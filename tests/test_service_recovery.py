"""Durable service state: WAL-backed crash recovery, exactly-once
results, disk-fault degradation.

The acceptance bar from the issue: a service killed mid-sweep and
restarted against the same ``--state-dir`` completes every accepted
submission with results byte-identical to an uninterrupted run,
recomputing only the cells the crash lost (exactly-once by sha256 job
addressing); disk faults and corrupt WAL records degrade — surfaced in
``health()``/``ready()`` — instead of crashing.

Crashes are simulated in-process: the service's ``crash_fn`` raises a
``BaseException`` subclass, which (like a real SIGKILL) bypasses the
dispatcher's ``except Exception`` error handling entirely — the
submission is left mid-flight with no finish record, exactly the state
a killed process leaves behind. Real-SIGKILL coverage lives in
``tests/test_service_cli.py``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    AdmissionRejected,
    RecoveredSubmissionError,
    SubmissionCancelled,
)
from repro.common.recordlog import encode_record
from repro.harness.parallel import (
    ResultCache,
    SimJob,
    last_run_stats,
    register_job_kind,
    run_jobs,
)
from repro.service import (
    FabricService,
    ServiceChaosPolicy,
    ServiceConfig,
    tenant_cache_root,
)


def _double(params):
    return {"doubled": params["value"] * 2}


def _fail(params):
    raise ValueError(f"cell {params['value']} is broken by design")


register_job_kind("rec_double", _double)
register_job_kind("rec_fail", _fail)


def _jobs(count, offset=0):
    return [
        SimJob(kind="rec_double", params={"value": index + offset})
        for index in range(count)
    ]


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SimulatedKill(BaseException):
    """Stands in for SIGKILL: unwinds through everything, no cleanup."""


@pytest.fixture()
def clock():
    return Clock()


def _service(tmp_path, clock, state=True, **kwargs):
    config = ServiceConfig(
        queue_depth=4,
        dispatchers=1,
        rate_capacity=100.0,
        rate_refill_per_s=10.0,
        workers=2,
    )
    return FabricService(
        cache_root=tmp_path / "cache",
        config=config,
        time_fn=clock,
        start=False,
        state_dir=(tmp_path / "state") if state else None,
        **kwargs,
    )


def _crash():
    raise SimulatedKill("service process died")


# -- the durable happy path ---------------------------------------------------


class TestDurableBasics:
    def test_wal_is_written_and_mode_is_durable(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(3), tenant="acme")
        service.drain()
        service.results(ticket)
        assert (tmp_path / "state" / "service.wal").exists()
        durability = service.durability()
        assert durability["mode"] == "durable"
        assert durability["wal"]["records_written"] == 3  # accept/dispatch/finish
        assert service.health()["durability"]["mode"] == "durable"
        assert service.ready()["durability"]["mode"] == "durable"
        service.close()

    def test_without_state_dir_mode_is_memory_only(self, tmp_path, clock):
        service = _service(tmp_path, clock, state=False)
        assert service.durability()["mode"] == "memory-only"
        assert service.health()["status"] == "ok"  # memory-only is not degraded
        service.close()

    def test_clean_shutdown_leaves_nothing_to_readopt(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(3), tenant="acme")
        service.drain()
        service.results(ticket)
        service.close()
        revived = _service(tmp_path, clock)
        assert revived.durability()["recovered_live"] == 0
        assert revived.durability()["recovered_terminal"] == 1
        revived.close()


# -- crash recovery -----------------------------------------------------------


class TestCrashRecovery:
    def test_queued_submission_survives_a_crash(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(4), tenant="acme")
        # No drain, no close: the process dies with the ticket queued.
        del service
        revived = _service(tmp_path, clock)
        assert revived.status(ticket)["state"] == "queued"
        assert revived.status(ticket)["recovered"] is True
        revived.drain()
        assert revived.results(ticket) == run_jobs(_jobs(4), workers=1)
        revived.close()

    def test_mid_sweep_crash_recomputes_only_missing_cells(self, tmp_path, clock):
        jobs = _jobs(8)
        chaos = ServiceChaosPolicy(seed=7, crash=1.0)
        point = chaos.crash_point("s-0001", len(jobs))
        assert point is not None and 1 <= point <= len(jobs)

        service = _service(tmp_path, clock, chaos=chaos, crash_fn=_crash)
        ticket = service.submit_sweep(jobs=jobs, tenant="acme")
        with pytest.raises(SimulatedKill):
            service.drain()

        revived = _service(tmp_path, clock)
        assert revived.durability()["recovered_live"] == 1
        assert revived.status(ticket)["state"] == "queued"
        revived.drain()
        results = revived.results(ticket)
        stats = last_run_stats()
        # Exactly-once by sha256 addressing: the cells cached before the
        # crash are adopted, only the gap is recomputed.
        assert stats.cached == point
        assert stats.fresh == len(jobs) - point
        assert results == run_jobs(jobs, workers=1)
        revived.close()

    def test_same_ticket_is_reissued(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        first = service.submit_sweep(jobs=_jobs(2), tenant="acme")
        del service
        revived = _service(tmp_path, clock)
        assert revived.status(first)["state"] == "queued"
        # New tickets continue the sequence -- never reuse a replayed id.
        fresh = revived.submit_sweep(jobs=_jobs(2, offset=50), tenant="acme")
        assert fresh != first
        assert int(fresh.split("-")[1]) > int(first.split("-")[1])
        revived.drain()
        revived.results(first), revived.results(fresh)
        revived.close()

    def test_done_results_rehydrate_from_cache_with_zero_recompute(
        self, tmp_path, clock
    ):
        jobs = _jobs(5)
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=jobs, tenant="acme")
        service.drain()
        expected = service.results(ticket)
        del service  # crash after completion, before any client re-read

        revived = _service(tmp_path, clock)
        view = revived.status(ticket)
        assert view["state"] == "done" and view["recovered"] is True
        assert revived.results(ticket, timeout=0.001) == expected
        stats = last_run_stats()
        assert stats.fresh == 0 and stats.cached == len(jobs)
        assert revived.health()["counters"]["rehydrated"] == 1
        revived.close()

    def test_tenant_isolation_survives_recovery(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket_a = service.submit_sweep(jobs=_jobs(2), tenant="alice")
        ticket_b = service.submit_sweep(jobs=_jobs(2), tenant="bob")
        del service
        revived = _service(tmp_path, clock)
        revived.drain()
        assert revived.results(ticket_a) == revived.results(ticket_b)
        for tenant in ("alice", "bob"):
            root = tenant_cache_root(tmp_path / "cache", tenant)
            assert len(list(root.glob("??/*.json"))) == 2
        revived.close()


# -- recovered terminal states ------------------------------------------------


class TestRecoveredTerminalStates:
    def test_failed_submission_replays_as_typed_error(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(
            jobs=[SimJob(kind="rec_fail", params={"value": 1})], tenant="acme"
        )
        service.drain()
        with pytest.raises(Exception):
            service.results(ticket)
        del service
        revived = _service(tmp_path, clock)
        with pytest.raises(RecoveredSubmissionError, match="broken by design"):
            revived.results(ticket, timeout=60.0)
        revived.close()

    def test_shed_submission_replays_as_admission_rejected(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        tickets = [
            service.submit_sweep(jobs=_jobs(1, offset=10 * n), tenant="greedy")
            for n in range(4)
        ]
        service.submit_sweep(jobs=_jobs(1, offset=99), tenant="alice")
        shed = tickets[0]
        with pytest.raises(AdmissionRejected) as excinfo:
            service.results(shed, timeout=60.0)
        assert excinfo.value.reason == "shed"
        del service
        revived = _service(tmp_path, clock)
        with pytest.raises(AdmissionRejected) as excinfo:
            revived.results(shed, timeout=60.0)
        assert excinfo.value.reason == "shed"
        revived.close()

    def test_cancelled_submission_replays_as_cancelled(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(2), tenant="acme")
        assert service.cancel(ticket)
        del service
        revived = _service(tmp_path, clock)
        with pytest.raises(SubmissionCancelled):
            revived.results(ticket, timeout=60.0)
        revived.close()


# -- damage tolerance ---------------------------------------------------------


class TestDamageTolerance:
    def test_unwritable_state_dir_degrades_not_crashes(self, tmp_path, clock):
        # state_dir's place is occupied by a *file*: every WAL open
        # fails, the cheapest deterministic ENOSPC/EIO stand-in.
        (tmp_path / "state").write_text("in the way")
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(3), tenant="acme")
        service.drain()
        assert service.results(ticket) == run_jobs(_jobs(3), workers=1)
        assert service.durability()["mode"] == "degraded"
        assert service.health()["status"] == "degraded"
        assert bool(service.ready()) is True  # degraded still accepts work
        service.close()

    def test_cache_write_fault_degrades_and_completes(
        self, tmp_path, clock, monkeypatch
    ):
        service = _service(tmp_path, clock)
        monkeypatch.setattr(
            ResultCache,
            "_write_entry",
            lambda self, job, payload: (_ for _ in ()).throw(
                OSError(28, "No space left on device")
            ),
        )
        ticket = service.submit_sweep(jobs=_jobs(3), tenant="acme")
        service.drain()
        # Results still come back -- durability, not liveness, was lost.
        assert service.results(ticket) == run_jobs(_jobs(3), workers=1)
        durability = service.durability()
        assert durability["mode"] == "degraded"
        assert durability["cache_put_errors"] == 3
        assert service.health()["caches"]["acme"]["put_errors"] == 3
        service.close()

    def test_corrupt_wal_record_is_quarantined_and_skipped(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        good = service.submit_sweep(jobs=_jobs(2), tenant="acme")
        del service
        wal_path = tmp_path / "state" / "service.wal"
        lines = wal_path.read_text().splitlines(keepends=True)
        corrupt = encode_record(
            {"type": "accept", "ticket": "s-0666", "tenant": "evil"}
        ).replace("evil", "EVIL")
        wal_path.write_text(lines[0] + corrupt + "".join(lines[1:]))

        revived = _service(tmp_path, clock)
        durability = revived.durability()
        assert durability["quarantined"] == 1
        assert (wal_path.with_suffix(".quarantine")).exists()
        # The good ticket still recovers; the damaged record is skipped.
        revived.drain()
        assert revived.results(good) == run_jobs(_jobs(2), workers=1)
        revived.close()

    def test_torn_wal_tail_is_dropped(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(2), tenant="acme")
        del service
        wal_path = tmp_path / "state" / "service.wal"
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"rec": {"v": 1, "type": "acc')  # mid-append crash
        revived = _service(tmp_path, clock)
        assert revived.status(ticket)["state"] == "queued"
        revived.drain()
        revived.results(ticket)
        revived.close()

    def test_wal_compacts_on_recovery(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        for n in range(3):
            ticket = service.submit_sweep(jobs=_jobs(1, offset=n), tenant="acme")
            service.drain()
            service.results(ticket)
        del service
        revived = _service(tmp_path, clock)
        # 3 x (accept + finish): dispatch records are coalesced away.
        wal_path = tmp_path / "state" / "service.wal"
        assert len(wal_path.read_text().splitlines()) == 6
        assert revived.durability()["replayed"] == 9
        revived.close()
