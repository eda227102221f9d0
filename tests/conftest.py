"""Test-suite configuration: hypothesis tuned for CI boxes, and a private
result/snapshot cache directory for the whole session."""

import os

import pytest
from hypothesis import HealthCheck, settings

# Simulator-backed property tests construct real machines; generous
# deadlines keep them stable on slow single-core CI runners.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("repro")


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache_dir(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a session tmp dir, so no test reads a
    result or boot snapshot another checkout (or an earlier run) wrote
    to the user cache. Tests that need the default location still
    ``monkeypatch.delenv`` it; subprocesses inherit the tmp dir."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
