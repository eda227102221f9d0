"""Tests for the parallel experiment fabric (repro.harness.parallel).

The contract under test: serial (workers=1), parallel (workers>1) and
cached executions of the same experiment produce byte-identical report
strings; the content-addressed cache key changes whenever anything that
could change a result changes (config, seed, schema version); and a job
that raises in a worker surfaces as a clear SimJobError, never a hang.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness import parallel
from repro.harness.experiments import (
    experiment_figure6,
    experiment_figure7,
    experiment_figure9,
)
from repro.harness.parallel import (
    ResultCache,
    SimJob,
    SimJobError,
    default_workers,
    register_job_kind,
    run_jobs,
)

QUARTER = 0.25
FIG_WORKLOADS = ["povray", "xz"]  # one quiet + one memory-heavy workload


# -- bit-identity: serial vs parallel vs cached -------------------------------


class TestReportBitIdentity:
    def test_figure6_reports_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = experiment_figure6(scale=QUARTER, workloads=FIG_WORKLOADS, workers=1)
        parallel_cold = experiment_figure6(
            scale=QUARTER, workloads=FIG_WORKLOADS, workers=2, cache=cache
        )
        cached_warm = experiment_figure6(
            scale=QUARTER, workloads=FIG_WORKLOADS, workers=2, cache=cache
        )
        assert serial == parallel_cold
        assert serial == cached_warm
        assert cache.hits > 0  # the warm pass really came from the cache

    def test_figure7_reports_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = experiment_figure7(scale=QUARTER, workloads=FIG_WORKLOADS, workers=1)
        parallel_cold = experiment_figure7(
            scale=QUARTER, workloads=FIG_WORKLOADS, workers=2, cache=cache
        )
        cached_warm = experiment_figure7(
            scale=QUARTER, workloads=FIG_WORKLOADS, workers=2, cache=cache
        )
        assert serial == parallel_cold
        assert serial == cached_warm

    def test_figure9_reports_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        workloads = ("povray", "mcf")
        serial = experiment_figure9(scale=QUARTER, workloads=workloads, workers=1)
        parallel_cold = experiment_figure9(
            scale=QUARTER, workloads=workloads, workers=2, cache=cache
        )
        cached_warm = experiment_figure9(
            scale=QUARTER, workloads=workloads, workers=2, cache=cache
        )
        assert serial == parallel_cold
        assert serial == cached_warm


# -- job keys and cache invalidation ------------------------------------------


def _job(**overrides) -> SimJob:
    params = {
        "workload": "povray",
        "config": None,
        "mem_ops": 1000,
        "warmup_ops": 500,
        "seed": 1,
        "mac_algorithm": "pseudo",
    }
    params.update(overrides)
    return SimJob(kind="workload_run", params=params)


class TestCacheKeys:
    def test_key_is_stable_across_param_order(self):
        a = SimJob("k", {"x": 1, "y": 2})
        b = SimJob("k", {"y": 2, "x": 1})
        assert a.key() == b.key()

    def test_config_change_changes_key(self):
        from repro.common.config import PTGuardConfig
        from repro.harness.parallel import guard_config_params

        base = _job()
        guarded = _job(config=guard_config_params(PTGuardConfig()))
        tweaked = _job(
            config=guard_config_params(PTGuardConfig(mac_latency_cycles=15))
        )
        assert len({base.key(), guarded.key(), tweaked.key()}) == 3

    def test_seed_change_changes_key(self):
        assert _job(seed=1).key() != _job(seed=2).key()

    def test_schema_bump_changes_key(self, monkeypatch):
        before = _job().key()
        monkeypatch.setattr(
            parallel, "CACHE_SCHEMA_VERSION", parallel.CACHE_SCHEMA_VERSION + 1
        )
        assert _job().key() != before

    def test_stale_entries_unreachable_after_changes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), {"marker": 1})
        assert cache.get(_job()) == {"marker": 1}
        assert cache.get(_job(seed=99)) is None
        assert cache.get(_job(mem_ops=2000)) is None

    def test_job_recorded_with_retired_config_field_still_runs(self):
        # Sweep journals and service WAL records written before a
        # PTGuardConfig field was removed still carry it in their params.
        from repro.common.config import PTGuardConfig
        from repro.harness.parallel import decode_result, execute_job, guard_config_params

        current = guard_config_params(PTGuardConfig())
        recorded = _job(config={**current, "mac_verify_cache_entries": 0})
        assert recorded.key() != _job(config=current).key()
        replayed = decode_result(recorded, execute_job(recorded))
        fresh = _job(config=current)
        assert replayed == decode_result(fresh, execute_job(fresh))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, {"marker": 1})
        cache._path(job.key()).write_text("not json", encoding="utf-8")
        assert cache.get(job) is None


# -- execution semantics ------------------------------------------------------


def _explode(params):
    raise ValueError(f"boom on {params['cell']}")


def _double(params):
    return params["value"] * 2


register_job_kind("test_explode", _explode)
register_job_kind("test_double", _double)


class TestRunJobs:
    def test_results_in_job_order(self):
        jobs = [SimJob("test_double", {"value": v}) for v in range(8)]
        assert run_jobs(jobs, workers=1) == [v * 2 for v in range(8)]
        assert run_jobs(jobs, workers=3) == [v * 2 for v in range(8)]

    def test_worker_crash_surfaces_clear_error(self):
        jobs = [
            SimJob("test_double", {"value": 1}),
            SimJob("test_explode", {"cell": "fig6/povray"}),
        ]
        with pytest.raises(SimJobError) as excinfo:
            run_jobs(jobs, workers=2)
        message = str(excinfo.value)
        assert "test_explode" in message
        assert "fig6/povray" in message  # job identity, not just a traceback
        assert "ValueError" in message  # the original exception survives

    def test_in_process_crash_surfaces_same_error(self):
        with pytest.raises(SimJobError, match="test_explode"):
            run_jobs([SimJob("test_explode", {"cell": "x"})], workers=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimJobError, match="unknown job kind"):
            run_jobs([SimJob("no_such_kind", {})], workers=1)

    def test_cache_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [SimJob("test_double", {"value": v}) for v in range(4)]
        first = run_jobs(jobs, workers=2, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        second = run_jobs(jobs, workers=2, cache=cache)
        assert second == first
        assert cache.hits == 4

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        assert default_workers() == 5


class TestMulticoreJob:
    def test_slowdown_job_identity_and_key(self):
        from repro.cpu.multicore import slowdown_job

        a = slowdown_job(["lbm"] * 4, mem_ops_per_core=100)
        b = slowdown_job(("lbm",) * 4, mem_ops_per_core=100)
        assert a == b and a.key() == b.key()
        assert a.key() != slowdown_job(["lbm"] * 4, mem_ops_per_core=200).key()
        assert a.params["seed"] == 3  # the emitter fixes the seed in the key



USER_CACHE = pathlib.Path.home() / ".cache" / "ptguard-repro"


class TestCacheDirIsolation:
    def test_session_uses_a_private_cache_dir(self):
        # tests/conftest.py points REPRO_CACHE_DIR away from the user
        # cache, so no test reads what another checkout wrote there.
        assert not parallel.default_cache_dir().is_relative_to(USER_CACHE)

    def test_default_without_env_is_the_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert parallel.default_cache_dir() == USER_CACHE
