"""Conformance suite for the pluggable executor backends.

Every :data:`repro.harness.parallel.BACKENDS` entry must be
indistinguishable through the ``run_jobs`` contract: byte-identical
reports, the same write-through cache behaviour, the same typed error
taxonomy, and the same recovery story under deterministic chaos. The
suite is parametrized over the registry, so adding a backend without
meeting the contract fails here, not in production sweeps.

Also home to the contextvars regression: two concurrent ``run_jobs``
calls in different threads must keep their policies and stats isolated
(the bug class that motivated moving fabric state off module globals).
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import (
    JobExecutionError,
    RetryBudgetExceededError,
    SimJobError,
    UnknownJobKindError,
)
from repro.harness.chaos import ChaosPolicy
from repro.harness.experiments import experiment_figure6
from repro.harness.parallel import (
    BACKENDS,
    ExecutionPolicy,
    ResultCache,
    SimJob,
    execution_policy,
    last_run_stats,
    register_job_kind,
    run_jobs,
)

QUARTER = 0.25
FIG_WORKLOADS = ["povray", "xz"]
ALL_BACKENDS = sorted(BACKENDS)
# Backends with a carrier that chaos can kill; inprocess has none.
CARRIER_BACKENDS = [name for name in ALL_BACKENDS if name != "inprocess"]


def _conf_double(params):
    return {"doubled": params["value"] * 2}


def _conf_explode(params):
    raise ValueError(f"job asked to explode on {params['value']}")


register_job_kind("conf_double", _conf_double)
register_job_kind("conf_explode", _conf_explode)


def _jobs(count, offset=0):
    return [
        SimJob(kind="conf_double", params={"value": index + offset})
        for index in range(count)
    ]


@pytest.fixture(scope="module")
def fig6_serial_reference():
    return experiment_figure6(scale=QUARTER, workloads=FIG_WORKLOADS, workers=1)


class TestBackendRegistry:
    def test_registry_names_match_instances(self):
        assert ALL_BACKENDS == ["inprocess", "process-pool"]
        assert all(callable(runner) for runner in BACKENDS.values())

    def test_unknown_backend_is_typed(self, monkeypatch, caplog):
        from repro.common.errors import ConfigurationError
        from repro.service import ServiceConfig

        # The retired thread-pool backend is rejected like any unknown name.
        for name in ("quantum", "threaded"):
            with pytest.raises(
                ConfigurationError, match="unknown executor backend"
            ) as info:
                run_jobs(_jobs(2), workers=2, backend=name)
            assert "(choose from inprocess, process-pool)" in str(info.value)
            with pytest.raises(ConfigurationError):
                run_jobs(
                    _jobs(2), workers=2, policy=ExecutionPolicy(backend=name)
                )
            with pytest.raises(ConfigurationError, match="inprocess, process-pool"):
                ServiceConfig(backend=name)
            # From the environment it warns and keeps the automatic choice.
            monkeypatch.setenv("REPRO_BACKEND", name)
            caplog.clear()
            with caplog.at_level("WARNING", logger="repro.harness.parallel"):
                assert ExecutionPolicy.from_env().backend is None
            assert f"ignoring unknown REPRO_BACKEND={name!r}" in caplog.text
            assert "inprocess, process-pool" in caplog.text


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestReportConformance:
    def test_figure6_bytes_identical(self, backend, fig6_serial_reference, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_policy(ExecutionPolicy(backend=backend)):
            cold = experiment_figure6(
                scale=QUARTER, workloads=FIG_WORKLOADS, workers=2, cache=cache
            )
            warm = experiment_figure6(
                scale=QUARTER, workloads=FIG_WORKLOADS, workers=2, cache=cache
            )
        assert cold == fig6_serial_reference
        assert warm == fig6_serial_reference
        assert cache.hits > 0, "warm pass must be served from the cache"

    def test_results_in_job_order_with_cache_hits(self, backend, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _jobs(5)
        cold = run_jobs(jobs, workers=2, cache=cache, backend=backend)
        assert cold == [{"doubled": 2 * index} for index in range(5)]
        assert last_run_stats().fresh == 5
        warm = run_jobs(jobs, workers=2, cache=cache, backend=backend)
        assert warm == cold
        assert last_run_stats().cached == 5 and last_run_stats().fresh == 0


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestErrorTaxonomyConformance:
    def test_job_exception_surfaces_as_permanent_execution_error(self, backend):
        jobs = [SimJob(kind="conf_explode", params={"value": 3})]
        with pytest.raises(JobExecutionError, match="asked to explode") as info:
            run_jobs(jobs + _jobs(2), workers=2, backend=backend)
        assert info.value.transient is False

    def test_unknown_kind_is_typed(self, backend):
        jobs = [SimJob(kind="conf_missing_kind", params={})] + _jobs(2)
        with pytest.raises(SimJobError) as info:
            run_jobs(jobs, workers=2, backend=backend)
        assert isinstance(
            info.value, (UnknownJobKindError, JobExecutionError)
        )
        assert info.value.transient is False


class TestChaosConformance:
    @pytest.mark.parametrize("backend", CARRIER_BACKENDS)
    def test_kill_every_first_attempt_still_correct(self, backend):
        policy = ExecutionPolicy(
            retries=2,
            backoff_base_s=0.0,
            chaos=ChaosPolicy(seed=11, kill=1.0),
        )
        results = run_jobs(_jobs(6), workers=2, policy=policy, backend=backend)
        stats = last_run_stats()
        assert results == [{"doubled": 2 * index} for index in range(6)]
        assert stats.crashes == 6, "every job's first attempt must be killed"
        assert stats.retries == 6

    @pytest.mark.parametrize("backend", CARRIER_BACKENDS)
    def test_kill_with_zero_retry_budget_is_typed_exhaustion(self, backend):
        policy = ExecutionPolicy(
            retries=0,
            backoff_base_s=0.0,
            fallback_serial=False,
            chaos=ChaosPolicy(seed=11, kill=1.0),
        )
        with pytest.raises(RetryBudgetExceededError) as info:
            run_jobs(_jobs(4), workers=2, policy=policy, backend=backend)
        assert getattr(info.value.__cause__, "transient", False) is True

    def test_inprocess_has_no_carrier_to_kill(self):
        policy = ExecutionPolicy(
            retries=0, backoff_base_s=0.0, chaos=ChaosPolicy(seed=11, kill=1.0)
        )
        results = run_jobs(_jobs(4), workers=1, policy=policy, backend="inprocess")
        assert results == [{"doubled": 2 * index} for index in range(4)]
        assert last_run_stats().crashes == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_corrupted_cache_recovers_on_every_backend(self, backend, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _jobs(4, offset=50)
        policy = ExecutionPolicy(chaos=ChaosPolicy(seed=5, corrupt=1.0))
        first = run_jobs(jobs, workers=2, cache=cache, policy=policy, backend=backend)

        warm_cache = ResultCache(tmp_path)
        warm = run_jobs(jobs, workers=2, cache=warm_cache, backend=backend)
        stats = last_run_stats()
        assert warm == first
        assert stats.quarantined == 4, "every corrupted entry must quarantine"
        assert stats.fresh == 4


ADAPTIVE_STRATEGIES = ("escalate", "rekey_burst")
ADAPTIVE_WINDOWS = 6
ADAPTIVE_SEED = 17


def _adaptive_jobs():
    from repro.analysis.siege_eval import adaptive_siege_cell_job
    from repro.recovery.policy import RECOVERY_POLICIES

    recovery = RECOVERY_POLICIES["full"].as_params()
    return [
        adaptive_siege_cell_job(
            strategy, ADAPTIVE_WINDOWS, ADAPTIVE_SEED, "povray", False, recovery
        )
        for strategy in ADAPTIVE_STRATEGIES
    ]


@pytest.fixture(scope="module")
def adaptive_serial_reference():
    """The in-process ground truth the backends must reproduce exactly."""
    from repro.analysis.siege_eval import run_adaptive_siege_cell
    from repro.recovery.policy import RECOVERY_POLICIES

    recovery = RECOVERY_POLICIES["full"].as_params()
    return [
        run_adaptive_siege_cell(
            strategy, ADAPTIVE_WINDOWS, ADAPTIVE_SEED, recovery=recovery
        )
        for strategy in ADAPTIVE_STRATEGIES
    ]


class TestObservationConformance:
    """The closed loop's telemetry is part of the backend contract: the
    per-window ObservationChannel trace and every strategy switch must be
    identical across serial and process-pool execution, and across a
    ``--resume`` replay — else adaptive sieges would not be
    content-addressable."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_telemetry_and_switch_sequences_identical(
        self, backend, tmp_path, adaptive_serial_reference
    ):
        from dataclasses import asdict

        cache = ResultCache(tmp_path)
        cells = run_jobs(
            _adaptive_jobs(), workers=2, cache=cache, backend=backend
        )
        for cell, reference in zip(cells, adaptive_serial_reference):
            assert cell.observations == reference.observations
            assert cell.strategy_switches == reference.strategy_switches
            assert asdict(cell) == asdict(reference)
        # The switching controller must actually have decided something,
        # or the equality above is vacuous.
        assert any(cell.strategy_switches for cell in cells)

    # abort_after is raised by the carrier supervisor; inprocess has none.
    @pytest.mark.parametrize("backend", CARRIER_BACKENDS)
    def test_resume_replay_preserves_telemetry(
        self, backend, tmp_path, adaptive_serial_reference
    ):
        from dataclasses import asdict

        cache = ResultCache(tmp_path)
        policy = ExecutionPolicy(
            retries=2,
            backoff_base_s=0.0,
            chaos=ChaosPolicy(seed=1, abort_after=1),
        )
        with pytest.raises(KeyboardInterrupt):
            run_jobs(
                _adaptive_jobs(), workers=2, cache=cache,
                policy=policy, backend=backend,
            )
        resumed = run_jobs(
            _adaptive_jobs(), workers=2, cache=ResultCache(tmp_path),
            backend=backend,
        )
        stats = last_run_stats()
        assert stats.cached >= 1, "the interrupted cell must replay from cache"
        for cell, reference in zip(resumed, adaptive_serial_reference):
            assert cell.observations == reference.observations
            assert cell.strategy_switches == reference.strategy_switches
            assert asdict(cell) == asdict(reference)


class TestContextIsolation:
    """Two interleaved ``run_jobs`` calls must not share policy or stats."""

    def test_threaded_runs_keep_policies_and_stats_isolated(self):
        observed = {}
        barrier = threading.Barrier(2)

        def sweep(name, seed, count):
            # Distinct chaos policies: each run must see only its own.
            policy = ExecutionPolicy(
                retries=2,
                backoff_base_s=0.0,
                chaos=ChaosPolicy(seed=seed, kill=1.0),
            )
            barrier.wait()
            results = run_jobs(
                _jobs(count, offset=seed * 100),
                workers=2,
                policy=policy,
                backend="process-pool",
            )
            stats = last_run_stats()
            observed[name] = (results, stats.jobs, stats.crashes)

        threads = [
            threading.Thread(target=sweep, args=("a", 1, 5)),
            threading.Thread(target=sweep, args=("b", 2, 3)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        results_a, jobs_a, crashes_a = observed["a"]
        results_b, jobs_b, crashes_b = observed["b"]
        assert results_a == [{"doubled": 2 * (100 + i)} for i in range(5)]
        assert results_b == [{"doubled": 2 * (200 + i)} for i in range(3)]
        assert (jobs_a, crashes_a) == (5, 5)
        assert (jobs_b, crashes_b) == (3, 3)

    def test_context_manager_policy_does_not_leak_across_threads(self):
        seen = {}

        def probe():
            # A fresh thread starts from defaults, not the main thread's
            # override — context-local, not global.
            from repro.harness.parallel import get_execution_policy

            seen["thread"] = get_execution_policy().retries

        with execution_policy(ExecutionPolicy(retries=9)):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            from repro.harness.parallel import get_execution_policy

            seen["main"] = get_execution_policy().retries
        assert seen["main"] == 9
        assert seen["thread"] != 9
