"""Unit tests for the fabric's resilience layer (repro.harness.parallel).

Contract under test: transient failures (worker kills, wall-clock
timeouts) are retried under a bounded budget and the sweep still
completes with correct results; permanent failures (the job's own code
raising, unknown kinds) fail fast with the remote traceback attached;
pool-level collapse degrades to in-process serial execution instead of
aborting; the cache detects and quarantines corrupt entries instead of
crashing or silently missing; and interrupted sweeps leave a journal
that a rerun resumes from, recomputing only the missing cells.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.common.errors import (
    ConfigurationError,
    JobExecutionError,
    JobTimeoutError,
    RetryBudgetExceededError,
    SimJobError,
    UnknownJobKindError,
    WorkerCrashError,
)
from repro.harness import parallel
from repro.harness.chaos import ChaosPolicy, corrupt_cache_entry
from repro.harness.parallel import (
    ExecutionPolicy,
    ResultCache,
    SimJob,
    SweepJournal,
    default_workers,
    execution_policy,
    last_run_stats,
    register_job_kind,
    run_jobs,
    sweep_id,
)


def _double(params):
    return params["value"] * 2


def _sleep(params):
    time.sleep(params["seconds"])
    return params["seconds"]


def _explode(params):
    raise ValueError(f"boom on {params['cell']}")


register_job_kind("res_double", _double)
register_job_kind("res_sleep", _sleep)
register_job_kind("res_explode", _explode)

DOUBLES = [SimJob("res_double", {"value": v}, label=f"d{v}") for v in range(4)]


def _fast_policy(**overrides) -> ExecutionPolicy:
    base = dict(retries=2, backoff_base_s=0.0, backoff_cap_s=0.0)
    base.update(overrides)
    return ExecutionPolicy(**base)


# -- taxonomy -----------------------------------------------------------------


class TestTaxonomy:
    def test_transient_vs_permanent_classification(self):
        assert JobTimeoutError.transient and WorkerCrashError.transient
        assert not JobExecutionError.transient
        assert not UnknownJobKindError.transient
        assert not RetryBudgetExceededError.transient

    def test_all_derive_from_simjoberror(self):
        for cls in (
            JobExecutionError,
            UnknownJobKindError,
            JobTimeoutError,
            WorkerCrashError,
            RetryBudgetExceededError,
        ):
            assert issubclass(cls, SimJobError)
        # pre-taxonomy callers caught RuntimeError; keep that working
        assert issubclass(SimJobError, RuntimeError)


# -- retry / timeout / crash --------------------------------------------------


class TestTransientRecovery:
    def test_killed_workers_are_respawned_and_jobs_retried(self):
        policy = _fast_policy(chaos=ChaosPolicy(seed=1, kill=1.0))
        results = run_jobs(DOUBLES, workers=2, policy=policy)
        assert results == [0, 2, 4, 6]
        stats = last_run_stats()
        assert stats.crashes == 4 and stats.retries == 4
        assert not stats.degraded

    def test_over_deadline_jobs_are_killed_and_retried(self):
        policy = _fast_policy(timeout_s=1.0, chaos=ChaosPolicy(seed=1, delay=1.0))
        results = run_jobs(DOUBLES, workers=2, policy=policy)
        assert results == [0, 2, 4, 6]
        stats = last_run_stats()
        assert stats.timeouts == 4 and stats.retries == 4

    def test_retry_budget_exhaustion_raises_with_cause(self):
        jobs = [
            SimJob("res_sleep", {"seconds": 30}, label="hang"),
            SimJob("res_double", {"value": 1}),
        ]
        policy = _fast_policy(timeout_s=0.4, retries=1)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            run_jobs(jobs, workers=2, policy=policy)
        assert "hang" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, JobTimeoutError)
        assert last_run_stats().timeouts == 2  # attempt 0 + attempt 1

    def test_permanent_failure_is_not_retried(self):
        jobs = [
            SimJob("res_double", {"value": 1}),
            SimJob("res_explode", {"cell": "fig6/povray"}),
        ]
        with pytest.raises(JobExecutionError) as excinfo:
            run_jobs(jobs, workers=2, policy=_fast_policy())
        message = str(excinfo.value)
        assert "res_explode" in message and "fig6/povray" in message
        assert "ValueError" in message and "Traceback" in message
        assert last_run_stats().retries == 0


class TestGracefulDegradation:
    def test_pool_collapse_falls_back_to_serial(self, caplog):
        policy = _fast_policy(
            retries=5, max_worker_restarts=1, chaos=ChaosPolicy(seed=1, kill=1.0)
        )
        with caplog.at_level("WARNING", logger="repro.harness.parallel"):
            results = run_jobs(DOUBLES, workers=2, policy=policy)
        assert results == [0, 2, 4, 6]
        assert last_run_stats().degraded
        assert any("falling back" in r.message for r in caplog.records)

    def test_fallback_disabled_raises_worker_crash(self):
        policy = _fast_policy(
            retries=5,
            max_worker_restarts=0,
            fallback_serial=False,
            chaos=ChaosPolicy(seed=1, kill=1.0),
        )
        with pytest.raises(WorkerCrashError, match="degraded"):
            run_jobs(DOUBLES, workers=2, policy=policy)


# -- start-method pinning -----------------------------------------------------


class TestStartMethod:
    def test_prefers_fork_when_available(self):
        assert parallel._pool_context().get_start_method() == "fork"

    def test_fallback_chain_forkserver_then_spawn(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        assert parallel._pool_context().get_start_method() == "forkserver"
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert parallel._pool_context().get_start_method() == "spawn"

    def test_env_override_and_rejection(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert parallel._pool_context().get_start_method() == "spawn"
        monkeypatch.setenv("REPRO_START_METHOD", "no-such-method")
        with pytest.raises(ConfigurationError, match="no-such-method"):
            parallel._pool_context()

    def test_no_method_available_is_configuration_error(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [])
        with pytest.raises(ConfigurationError):
            parallel._pool_context()


# -- registry / env parsing (satellite coverage) ------------------------------


class TestRegistryAndEnv:
    def test_unknown_kind_is_unknown_job_kind_error(self):
        with pytest.raises(UnknownJobKindError, match="unknown job kind"):
            run_jobs([SimJob("no_such_kind", {})], workers=1)

    def test_unknown_kind_in_worker_surfaces_kind_name(self):
        jobs = [SimJob("no_such_kind", {}), SimJob("res_double", {"value": 1})]
        with pytest.raises(SimJobError, match="no_such_kind"):
            run_jobs(jobs, workers=2, policy=_fast_policy())

    def test_remote_traceback_propagates_worker_frames(self):
        jobs = [
            SimJob("res_explode", {"cell": "x"}),
            SimJob("res_double", {"value": 0}),
        ]
        with pytest.raises(JobExecutionError) as excinfo:
            run_jobs(jobs, workers=2, policy=_fast_policy())
        # the worker-side frame (the job function itself) is visible
        assert "_explode" in str(excinfo.value)

    def test_default_workers_parsing_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        assert default_workers() == 5
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert default_workers() == 5

    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        monkeypatch.setenv("REPRO_CHAOS", "seed=9,kill=0.5")
        policy = ExecutionPolicy.from_env()
        assert policy.timeout_s == 12.5 and policy.retries == 4
        assert policy.chaos == ChaosPolicy(seed=9, kill=0.5)

    def test_policy_from_env_ignores_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        monkeypatch.setenv("REPRO_RETRIES", "many")
        monkeypatch.setenv("REPRO_CHAOS", "entropy")
        policy = ExecutionPolicy.from_env()
        assert policy.timeout_s is None and policy.retries == 2
        assert policy.chaos is None


# -- cache integrity ----------------------------------------------------------


def _job(**overrides) -> SimJob:
    params = {"value": 21}
    params.update(overrides)
    return SimJob("res_double", params)


class TestCacheIntegrity:
    def test_digest_is_stored_and_verified(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, 42)
        entry = json.loads(cache._path(job.key()).read_text(encoding="utf-8"))
        assert entry["digest"] == parallel.payload_digest(42)
        assert cache.get(job) == 42 and cache.corrupt == 0

    def test_tampered_payload_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, 42)
        path = cache._path(job.key())
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"] = 43  # valid JSON, wrong digest
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(job) is None
        assert cache.corrupt == 1
        assert (cache.quarantine_dir / path.name).exists()
        assert not path.exists()

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, 42)
        path = cache._path(job.key())
        path.write_text(path.read_text(encoding="utf-8")[:20], encoding="utf-8")
        assert cache.get(job) is None and cache.corrupt == 1

    def test_corrupt_entry_recomputed_via_run_jobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        run_jobs([job], workers=1, cache=cache)
        corrupt_cache_entry(cache, job)
        fresh_cache = ResultCache(tmp_path)
        assert run_jobs([job], workers=1, cache=fresh_cache) == [42]
        assert fresh_cache.corrupt == 1
        stats = last_run_stats()
        assert stats.quarantined == 1 and stats.fresh == 1
        # the recompute healed the entry: next lookup is a clean hit
        final_cache = ResultCache(tmp_path)
        assert final_cache.get(job) == 42

    def test_io_errors_are_counted_and_warned_once(self, tmp_path, monkeypatch, caplog):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, 42)

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(cache._path(job.key())), "read_text", denied)
        with caplog.at_level("WARNING", logger="repro.harness.parallel"):
            assert cache.get(job) is None
            assert cache.get(job) is None
        assert cache.io_errors == 2 and cache.misses == 2
        assert cache.corrupt == 0  # an EACCES is not corruption
        warnings = [r for r in caplog.records if "cache read failed" in r.message]
        assert len(warnings) == 1  # reported once, counted thereafter
        assert cache.stats()["io_errors"] == 2


# -- quarantine cap -----------------------------------------------------------


class TestQuarantineCap:
    def _quarantine_n(self, cache, count):
        """Create ``count`` distinct corrupt entries and trip the read
        path on each, so they all land in the quarantine directory."""
        for i in range(count):
            job = _job(value=1000 + i)
            cache.put(job, i)
            corrupt_cache_entry(cache, job)
            assert cache.get(job) is None

    def test_quarantine_stays_bounded_and_evicts_oldest(self, tmp_path, caplog):
        cache = ResultCache(tmp_path, quarantine_limit=3)
        with caplog.at_level("WARNING", logger="repro.harness.parallel"):
            self._quarantine_n(cache, 8)
        remaining = list(cache.quarantine_dir.glob("*.json"))
        assert len(remaining) == 3
        assert cache.quarantine_evictions == 5
        assert cache.stats()["quarantine_evictions"] == 5
        assert cache.corrupt == 8  # every corruption still counted
        # one summary line per eviction batch, naming the env override
        capped = [r for r in caplog.records if "quarantine at cap" in r.message]
        assert capped and "REPRO_QUARANTINE_LIMIT" in capped[0].getMessage()

    def test_env_sets_default_limit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_LIMIT", "2")
        cache = ResultCache(tmp_path)
        self._quarantine_n(cache, 5)
        assert len(list(cache.quarantine_dir.glob("*.json"))) == 2
        assert cache.quarantine_evictions == 3

    def test_nonpositive_limit_disables_the_cap(self, tmp_path):
        cache = ResultCache(tmp_path, quarantine_limit=0)
        self._quarantine_n(cache, 6)
        assert len(list(cache.quarantine_dir.glob("*.json"))) == 6
        assert cache.quarantine_evictions == 0

    def test_default_cap_is_64(self, tmp_path):
        assert ResultCache(tmp_path).quarantine_limit == 64


# -- journal / resume ---------------------------------------------------------


class TestSweepJournal:
    def test_truncated_tail_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.append({"event": "sweep_start", "jobs": 2})
        journal.append({"event": "job_done", "key": "aa"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "job_done", "key": "bb"')  # torn write
        records = SweepJournal.load(path)
        assert [r["event"] for r in records] == ["sweep_start", "job_done"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal.load(tmp_path / "absent.jsonl") == []

    def test_sweep_id_depends_on_job_keys_only(self):
        a = [SimJob("res_double", {"value": 1}, label="one")]
        b = [SimJob("res_double", {"value": 1}, label="other")]
        assert sweep_id(a) == sweep_id(b)
        assert sweep_id(a) != sweep_id([SimJob("res_double", {"value": 2})])

    def test_completed_sweep_writes_full_journal(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs(DOUBLES, workers=1, cache=cache)
        path = tmp_path / "journals" / f"{sweep_id(DOUBLES)}.jsonl"
        events = [r["event"] for r in SweepJournal.load(path)]
        assert events[0] == "sweep_start" and events[-1] == "sweep_complete"
        assert events.count("job_done") == 4

    def test_interrupted_sweep_resumes_missing_cells_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        policy = _fast_policy(chaos=ChaosPolicy(seed=1, abort_after=2))
        with pytest.raises(KeyboardInterrupt):
            run_jobs(DOUBLES, workers=2, cache=cache, policy=policy)
        path = tmp_path / "journals" / f"{sweep_id(DOUBLES)}.jsonl"
        interrupted = SweepJournal.load(path)
        done_before = sum(1 for r in interrupted if r["event"] == "job_done")
        assert done_before == 2
        assert not any(r["event"] == "sweep_complete" for r in interrupted)

        resumed_cache = ResultCache(tmp_path)
        results = run_jobs(DOUBLES, workers=2, cache=resumed_cache)
        assert results == [0, 2, 4, 6]
        stats = last_run_stats()
        assert stats.cached == 2 and stats.fresh == 2
        assert stats.resumed_cells == 2
        records = SweepJournal.load(path)
        assert any(r["event"] == "sweep_complete" for r in records)
        final = [r for r in records if r["event"] == "sweep_complete"][-1]
        assert final["cached"] == 2 and final["fresh"] == 2


    def test_corrupt_middle_record_does_not_hide_later_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        policy = _fast_policy(chaos=ChaosPolicy(seed=1, abort_after=3))
        with pytest.raises(KeyboardInterrupt):
            run_jobs(DOUBLES, workers=2, cache=cache, policy=policy)
        path = tmp_path / "journals" / f"{sweep_id(DOUBLES)}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"job_done"' in line]
        assert len(done) == 3
        # Bit rot in the first job_done: its digest no longer verifies.
        lines[done[0]] = lines[done[0]].replace('"job_done"', '"job_dona"')
        path.write_text("".join(lines), encoding="utf-8")

        records = SweepJournal.load(path)
        assert [r["event"] for r in records] == ["sweep_start", "job_done", "job_done"]
        assert "job_dona" in path.with_suffix(".quarantine").read_text()

        # The two records after the damage still mark the sweep as an
        # interrupted one, so the rerun counts its cached cells resumed.
        assert run_jobs(DOUBLES, workers=2, cache=ResultCache(tmp_path)) == [0, 2, 4, 6]
        stats = last_run_stats()
        assert stats.cached == 3 and stats.fresh == 1
        assert stats.resumed_cells == 3

    def test_unframed_journal_is_quarantined_and_cells_reused(self, tmp_path):
        run_jobs(DOUBLES, workers=1, cache=ResultCache(tmp_path))
        path = tmp_path / "journals" / f"{sweep_id(DOUBLES)}.jsonl"
        # Bare JSON lines, the journal format before records were framed.
        bare = [{"event": "sweep_start", "jobs": 4}, {"event": "job_done", "key": "aa"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in bare))
        assert SweepJournal.load(path) == []
        assert path.with_suffix(".quarantine").exists()
        assert run_jobs(DOUBLES, workers=1, cache=ResultCache(tmp_path)) == [0, 2, 4, 6]
        assert last_run_stats().cached == 4

# -- chaos policy parsing -----------------------------------------------------


class TestChaosSpec:
    def test_round_trip_spec(self):
        policy = ChaosPolicy.from_spec("seed=3, kill=0.2, delay=0.1, corrupt=0.05")
        assert policy == ChaosPolicy(seed=3, kill=0.2, delay=0.1, corrupt=0.05)
        assert ChaosPolicy.from_spec("abort_after=7").abort_after == 7

    def test_bad_specs_rejected(self):
        for spec in ("kill", "kill=1.5", "frobnicate=1", "abort_after=0", "seed=x"):
            with pytest.raises(ValueError):
                ChaosPolicy.from_spec(spec)

    def test_decisions_are_deterministic_and_seed_dependent(self):
        keys = [f"key-{i}" for i in range(256)]
        one = ChaosPolicy(seed=1, kill=0.25)
        replay = ChaosPolicy(seed=1, kill=0.25)
        other = ChaosPolicy(seed=2, kill=0.25)
        verdicts = [one.decide(k, "kill") for k in keys]
        assert verdicts == [replay.decide(k, "kill") for k in keys]
        assert verdicts != [other.decide(k, "kill") for k in keys]
        fraction = sum(verdicts) / len(verdicts)
        assert 0.1 < fraction < 0.4  # roughly the requested probability

    def test_zero_probability_never_fires(self):
        policy = ChaosPolicy(seed=1)
        assert not any(
            policy.decide(f"k{i}", channel)
            for i in range(64)
            for channel in ("kill", "delay", "corrupt")
        )


class TestExecutionPolicyContext:
    def test_context_manager_restores_previous(self):
        inner = ExecutionPolicy(retries=9)
        before = parallel.get_execution_policy()
        with execution_policy(inner):
            assert parallel.get_execution_policy() is inner
        assert parallel.get_execution_policy() is before
