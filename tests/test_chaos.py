"""End-to-end chaos tests: the fabric under injected faults.

The acceptance bar from the issue: a quarter-scale Figure-6 sweep with
seeded chaos (worker kills, over-deadline delays, cache corruption)
must finish with a report byte-identical to a fault-free run, and a
sweep SIGKILLed mid-flight must resume with ``--resume`` reproducing
identical bytes while recomputing only the missing cells.

Chaos decisions are a pure function of (seed, channel, job key), so the
fault pattern asserted here — which jobs get killed, delayed, corrupted
— replays exactly on every run and platform.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.chaos import ChaosPolicy
from repro.harness.experiments import experiment_figure6
from repro.harness.parallel import (
    ExecutionPolicy,
    ResultCache,
    SweepJournal,
    execution_policy,
    last_run_stats,
)

WORKLOADS = ["povray", "xz"]
SCALE = 0.25  # 6 cells x ~0.1 s each
# The sweep simulates 2 latency bases (one per workload) and prices its
# 6 cells from them. seed=24 over those keys yields 1 kill and 1
# over-deadline delay (on the basis that is not killed) and 3 corrupted
# cell entries — at least one event on every chaos channel,
# deterministically. The seed is tied to the job keys: a change to the
# cell or basis params (e.g. a guard config field) moves every key and
# needs a seed re-chosen against this bar.
CHAOS = ChaosPolicy(seed=24, kill=0.3, delay=0.3, corrupt=0.3)


def _fig6(cache=None):
    return experiment_figure6(
        scale=SCALE, workloads=WORKLOADS, workers=2, cache=cache
    )


class TestChaosEndToEnd:
    def test_report_survives_kills_delays_and_corruption(self, tmp_path):
        clean = _fig6()

        cache = ResultCache(tmp_path)
        policy = ExecutionPolicy(
            timeout_s=2.0, retries=3, backoff_base_s=0.0, chaos=CHAOS
        )
        with execution_policy(policy):
            chaotic = _fig6(cache=cache)
        stats = last_run_stats()
        assert chaotic == clean
        assert stats.crashes >= 1, "chaos must kill at least one worker"
        assert stats.timeouts >= 1, "chaos must push at least one job over deadline"
        assert stats.retries >= stats.crashes + stats.timeouts
        assert not stats.degraded

        # The chaos run corrupted entries *after* caching them; a warm
        # replay must quarantine those, recompute, and stay identical.
        warm_cache = ResultCache(tmp_path)
        warm = _fig6(cache=warm_cache)
        warm_stats = last_run_stats()
        assert warm == clean
        assert warm_stats.quarantined >= 1
        # The quarantined cells are priced again from their cached bases.
        assert warm_stats.cached >= 1 and warm_stats.priced >= 1
        assert warm_stats.cached + warm_stats.priced == 6
        quarantined = list(warm_cache.quarantine_dir.glob("*.json"))
        assert len(quarantined) == warm_stats.quarantined

        # Quarantine is evidence, not a retry queue: a third pass is all
        # cache hits.
        final = _fig6(cache=ResultCache(tmp_path))
        assert final == clean and last_run_stats().cached == 6


def _strip_volatile(stdout: str) -> str:
    """Drop the bracketed timing line; everything else is the report."""
    lines = [
        line
        for line in stdout.splitlines()
        if not (line.startswith("[") and line.endswith("]"))
    ]
    return "\n".join(lines)


def _runner(extra, env):
    return [
        sys.executable,
        "-m",
        "repro.harness.runner",
        "fig6",
        "--workloads",
        ",".join(WORKLOADS),
        "--scale",
        "0.5",
        "--workers",
        "2",
        *extra,
    ]


def _entries(cache_dir):
    """Finished job files (two-hex-char shard dirs; skips journals/):
    latency bases and the cells priced from them."""
    return list(cache_dir.glob("??/*.json"))


def _cell_entries(cache_dir):
    """Finished fig6 cells among :func:`_entries`."""
    return [
        path
        for path in _entries(cache_dir)
        if json.loads(path.read_text(encoding="utf-8"))["kind"] == "workload_run"
    ]


def _processes_mentioning(path):
    """Pids of live processes whose command line contains ``path``."""
    needle = str(path).encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if needle in cmdline:
            pids.append(int(entry))
    return pids


class TestSigkillResume:
    def test_sigkill_midsweep_then_resume_is_byte_identical(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_CHAOS", None)
        cache_dir = tmp_path / "cache"
        reference_dir = tmp_path / "reference"

        victim = subprocess.Popen(
            _runner(["--cache-dir", str(cache_dir)], env),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if _entries(cache_dir):
                    break  # first cell landed on disk — strike now
                if victim.poll() is not None:
                    pytest.fail("sweep finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("no cache entry appeared within 60s")
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=30)
        assert victim.returncode == -signal.SIGKILL
        # Its pool workers notice the dead supervisor and exit instead
        # of blocking on their task queues forever.
        orphans = _processes_mentioning(cache_dir)
        deadline = time.monotonic() + 5
        while orphans and time.monotonic() < deadline:
            time.sleep(0.1)
            orphans = _processes_mentioning(cache_dir)
        assert orphans == [], f"orphaned pool workers still alive: {orphans}"

        assert _entries(cache_dir)
        done_before = len(_cell_entries(cache_dir))
        bases_before = len(_entries(cache_dir)) - done_before
        assert done_before < 6, "kill landed too late to leave missing cells"
        journals = list((cache_dir / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        assert not any(
            record["event"] == "sweep_complete"
            for record in SweepJournal.load(journals[0])
        )

        resumed = subprocess.run(
            _runner(["--cache-dir", str(cache_dir), "--resume"], env),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr

        reference = subprocess.run(
            _runner(["--cache-dir", str(reference_dir)], env),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert reference.returncode == 0, reference.stderr

        assert _strip_volatile(resumed.stdout) == _strip_volatile(reference.stdout)

        # The journal proves the resume recomputed only the missing
        # cells: every pre-kill cell was reused, the rest were priced
        # from their workload's basis, and only the bases not cached
        # before the kill ran fresh.
        completions = [
            record
            for record in SweepJournal.load(journals[0])
            if record["event"] == "sweep_complete"
        ]
        assert len(completions) == 1
        final = completions[0]
        assert final["cached"] == done_before
        assert final["priced"] == 6 - done_before
        assert final["fresh"] == 2 - bases_before


class TestSigtermResume:
    """SIGTERM (CI cancellation, systemd stop) is the polite kill: the
    runner must flush what it has, exit 128+15 with a --resume hint, and
    a resumed run must reproduce the uninterrupted report byte-for-byte."""

    def test_sigterm_midsweep_exits_143_then_resume_is_byte_identical(
        self, tmp_path
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_CHAOS", None)
        cache_dir = tmp_path / "cache"
        reference_dir = tmp_path / "reference"

        victim = subprocess.Popen(
            _runner(["--cache-dir", str(cache_dir)], env),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if _entries(cache_dir):
                    break  # first cell landed on disk — strike now
                if victim.poll() is not None:
                    pytest.fail("sweep finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("no cache entry appeared within 60s")
            victim.send_signal(signal.SIGTERM)
            _, stderr = victim.communicate(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)

        # Unlike SIGKILL's -9, SIGTERM is *handled*: a clean exit code in
        # the 128+signal convention plus an actionable one-line hint.
        assert victim.returncode == 143, stderr
        assert "terminated (SIGTERM)" in stderr
        assert "rerun with --resume" in stderr
        assert "Traceback" not in stderr

        done_before = len(_entries(cache_dir))
        assert done_before >= 1  # the journal kept what was finished

        resumed = subprocess.run(
            _runner(["--cache-dir", str(cache_dir), "--resume"], env),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr

        reference = subprocess.run(
            _runner(["--cache-dir", str(reference_dir)], env),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert reference.returncode == 0, reference.stderr
        assert _strip_volatile(resumed.stdout) == _strip_volatile(reference.stdout)
