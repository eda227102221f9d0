"""The fabric service: admission, tenancy, degradation, acceptance.

The acceptance bar from the issue: a deterministic service-level chaos
test — seeded submission floods, backend kills, greedy tenants — where
every *accepted* sweep completes byte-identical to a serial run of the
same jobs, every *rejected* submission fails fast with a typed
``AdmissionRejected``, and per-tenant caches never cross-contaminate
(distinct paths, identical payload digests for identical jobs).

Everything here runs on an injected clock with paused dispatchers
(``start=False`` + ``drain()``): no sleeps, no real concurrency needed
for determinism — thread-mode coverage lives in one dedicated test.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.common.errors import (
    AdmissionRejected,
    CircuitOpenError,
    ConfigurationError,
    SubmissionCancelled,
    SubmissionNotFound,
)
from repro.harness.parallel import BACKENDS, SimJob, register_job_kind, run_jobs
from repro.service import (
    AsyncFabricService,
    FabricService,
    ServiceChaosPolicy,
    ServiceConfig,
    TokenBucket,
    flood_plan,
    killed_policy,
    tenant_cache_root,
    validate_tenant,
)
from repro.service.breaker import CircuitBreaker


def _double(params):
    return {"doubled": params["value"] * 2}


register_job_kind("svc_double", _double)


def _jobs(count, offset=0):
    return [
        SimJob(kind="svc_double", params={"value": index + offset})
        for index in range(count)
    ]


class Clock:
    """Injectable monotonic clock; time moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return Clock()


def _service(tmp_path, clock, **overrides):
    defaults = dict(
        queue_depth=4,
        dispatchers=1,
        rate_capacity=100.0,
        rate_refill_per_s=10.0,
        workers=2,
    )
    defaults.update(overrides)
    return FabricService(
        cache_root=tmp_path,
        config=ServiceConfig(**defaults),
        time_fn=clock,
        start=False,
    )


# -- tenancy ------------------------------------------------------------------


class TestTenancy:
    @pytest.mark.parametrize(
        "bad", ["", "..", "../alice", "a/b", "a\\b", ".hidden", "x" * 65]
    )
    def test_unsafe_tenant_ids_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="invalid tenant id"):
            validate_tenant(bad)

    def test_same_jobs_distinct_paths_identical_digests(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        jobs = _jobs(3)
        ticket_a = service.submit_sweep(jobs=jobs, tenant="alice")
        ticket_b = service.submit_sweep(jobs=jobs, tenant="bob")
        service.drain()
        assert service.results(ticket_a) == service.results(ticket_b)

        root_a = tenant_cache_root(tmp_path, "alice")
        root_b = tenant_cache_root(tmp_path, "bob")
        assert root_a != root_b
        entries_a = sorted(root_a.glob("??/*.json"))
        entries_b = sorted(root_b.glob("??/*.json"))
        assert len(entries_a) == len(entries_b) == 3
        for path_a, path_b in zip(entries_a, entries_b):
            # Same content-addressed name, same payload digest, but each
            # inside its own tenant subtree — isolation without forking
            # the determinism argument.
            assert path_a.name == path_b.name
            assert path_a != path_b
            record_a = json.loads(path_a.read_text())
            record_b = json.loads(path_b.read_text())
            assert record_a["digest"] == record_b["digest"]
        service.close()


# -- admission ----------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self, clock):
        bucket = TokenBucket(capacity=2, refill_per_s=0.5, time_fn=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(2.0)
        clock.advance(2.0)
        assert bucket.try_acquire()

    def test_zero_capacity_never_admits(self, clock):
        bucket = TokenBucket(capacity=0, refill_per_s=0, time_fn=clock)
        assert not bucket.try_acquire()
        assert bucket.retry_after() is None

    def test_clock_regression_mints_no_tokens(self, clock):
        bucket = TokenBucket(capacity=2, refill_per_s=1.0, time_fn=clock)
        clock.advance(5.0)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        # The clock jumps backwards (VM migration, NTP step on a
        # non-monotonic injection): no free tokens may appear.
        clock.now = 1.0
        assert not bucket.try_acquire()
        assert bucket.tokens == 0.0

    def test_clock_regression_does_not_double_mint_on_return(self, clock):
        bucket = TokenBucket(capacity=10, refill_per_s=1.0, time_fn=clock)
        clock.advance(5.0)
        for _ in range(10):
            assert bucket.try_acquire()
        # Regress, then return to the same instant: the 5.0 -> 1.0 -> 5.0
        # round trip spans zero real forward time, so zero tokens. A
        # refill that moved its watermark backwards would mint 4 here.
        clock.now = 1.0
        assert not bucket.try_acquire()
        clock.now = 5.0
        assert bucket.tokens == 0.0
        assert not bucket.try_acquire()
        # Genuine forward movement resumes minting from the watermark.
        clock.advance(1.0)
        assert bucket.try_acquire()

    def test_retry_after_capped_at_refill_horizon(self, clock):
        bucket = TokenBucket(capacity=4, refill_per_s=2.0, time_fn=clock)
        for _ in range(4):
            assert bucket.try_acquire()
        # Empty bucket: the wait can never exceed the time to refill one
        # token from empty -- tokens/refill_per_s = 0.5s.
        assert bucket.retry_after() == pytest.approx(0.5)
        assert bucket.retry_after() <= bucket.capacity / bucket.refill_per_s


class TestAdmission:
    def test_rate_limited_is_typed_with_retry_hint(self, tmp_path, clock):
        service = _service(
            tmp_path, clock, rate_capacity=1.0, rate_refill_per_s=0.5
        )
        service.submit_sweep(jobs=_jobs(1), tenant="alice")
        with pytest.raises(AdmissionRejected) as info:
            service.submit_sweep(jobs=_jobs(1, 10), tenant="alice")
        assert info.value.reason == "rate_limited"
        assert info.value.tenant == "alice"
        assert info.value.retry_after_s == pytest.approx(2.0)
        # Rate limits are per tenant: bob is unaffected by alice's burst.
        service.submit_sweep(jobs=_jobs(1, 20), tenant="bob")
        clock.advance(2.0)
        service.submit_sweep(jobs=_jobs(1, 30), tenant="alice")
        service.close()

    def test_full_queue_sheds_oldest_of_heaviest_tenant(self, tmp_path, clock):
        service = _service(tmp_path, clock, queue_depth=3)
        oldest = service.submit_sweep(jobs=_jobs(1, 0), tenant="alice")
        service.submit_sweep(jobs=_jobs(1, 1), tenant="alice")
        service.submit_sweep(jobs=_jobs(1, 2), tenant="bob")
        # Queue full; carol displaces alice's *oldest* entry (alice is
        # the heaviest tenant), not bob's.
        kept = service.submit_sweep(jobs=_jobs(1, 3), tenant="carol")
        with pytest.raises(AdmissionRejected) as info:
            service.results(oldest, timeout=0)
        assert info.value.reason == "shed"
        assert info.value.tenant == "alice"
        service.drain()
        assert service.results(kept) == run_jobs(_jobs(1, 3))
        service.close()

    def test_heaviest_newcomer_is_rejected_not_shed(self, tmp_path, clock):
        service = _service(tmp_path, clock, queue_depth=2)
        service.submit_sweep(jobs=_jobs(1, 0), tenant="alice")
        service.submit_sweep(jobs=_jobs(1, 1), tenant="alice")
        # alice dominates the full queue: her next submission cannot
        # displace anyone (that would reward the flooder) -- typed reject.
        with pytest.raises(AdmissionRejected) as info:
            service.submit_sweep(jobs=_jobs(1, 2), tenant="alice")
        assert info.value.reason == "queue_full"
        service.close()

    def test_submit_validates_request_shape(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        with pytest.raises(ConfigurationError, match="exactly one"):
            service.submit_sweep()
        with pytest.raises(ConfigurationError, match="exactly one"):
            service.submit_sweep(jobs=_jobs(1), experiment="fig6")
        with pytest.raises(ConfigurationError, match="empty job list"):
            service.submit_sweep(jobs=[])
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            service.submit_sweep(experiment="fig99")
        service.close()


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_state_machine(self, clock):
        breaker = CircuitBreaker("x", threshold=2, cooldown_s=10, time_fn=clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow(), "exactly one probe may pass"
        assert not breaker.allow(), "second probe must wait for the verdict"
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 2
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_service_trips_then_degrades_then_recovers(self, tmp_path, clock):
        service = _service(
            tmp_path,
            clock,
            backend="process-pool",
            breaker_threshold=2,
            breaker_cooldown_s=60.0,
        )
        # Two chaos-killed submissions with zero retry budget: each
        # surfaces a transient infra failure, reruns in-process
        # (byte-identical), and counts against the process-pool breaker.
        for offset in (0, 10):
            ticket = service.submit_sweep(
                jobs=_jobs(2, offset), tenant="alice", policy=killed_policy(7)
            )
            service.drain()
            assert service.results(ticket) == run_jobs(_jobs(2, offset))
            assert service.status(ticket)["degraded"] is True
        health = service.health()
        assert health["status"] == "degraded"
        # Per-backend keyed snapshots, covering every registered backend:
        # the tripped one reads open, the never-used ones read pristine.
        assert health["breakers"]["process-pool"] == {
            "backend": "process-pool",
            "state": "open",
            "consecutive_failures": 0,
            "trips": 1,
        }
        assert sorted(health["breakers"]) == sorted(BACKENDS)
        for name in BACKENDS:
            if name != "process-pool":
                assert health["breakers"][name]["state"] == "closed"
                assert health["breakers"][name]["trips"] == 0
        # The readiness probe carries the same per-backend states.
        probe = service.ready()
        assert probe["ready"] is True and bool(probe) is True
        assert probe["breakers"]["process-pool"] == "open"
        # Open circuit: clean submissions route straight to in-process.
        ticket = service.submit_sweep(jobs=_jobs(2, 20), tenant="alice")
        service.drain()
        view = service.status(ticket)
        assert view["backend"] == "inprocess" and view["degraded"] is True
        # After the cooldown one probe runs on the primary backend; its
        # success closes the circuit for everyone.
        clock.advance(60.0)
        ticket = service.submit_sweep(jobs=_jobs(2, 30), tenant="alice")
        service.drain()
        view = service.status(ticket)
        assert view["backend"] == "process-pool" and view["degraded"] is False
        assert service.health()["status"] == "ok"
        service.close()

    def test_fail_fast_mode_raises_circuit_open(self, tmp_path, clock):
        service = _service(
            tmp_path,
            clock,
            backend="process-pool",
            breaker_threshold=1,
            breaker_cooldown_s=30.0,
            allow_degraded=False,
        )
        first = service.submit_sweep(
            jobs=_jobs(2), tenant="alice", policy=killed_policy(7)
        )
        service.drain()
        with pytest.raises(CircuitOpenError) as info:
            service.results(first)
        assert info.value.backend == "process-pool"
        # While open, further submissions fail fast with the cooldown.
        second = service.submit_sweep(jobs=_jobs(2, 10), tenant="alice")
        service.drain()
        with pytest.raises(CircuitOpenError) as info:
            service.results(second)
        assert info.value.retry_after_s == pytest.approx(30.0)
        service.close()


# -- submission lifecycle -----------------------------------------------------


class TestLifecycle:
    def test_cancel_queued_but_not_running(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(2), tenant="alice")
        assert service.cancel(ticket) is True
        with pytest.raises(SubmissionCancelled):
            service.results(ticket)
        done = service.submit_sweep(jobs=_jobs(2, 10), tenant="alice")
        service.drain()
        assert service.cancel(done) is False, "completed work is not cancellable"
        assert service.results(done) == run_jobs(_jobs(2, 10))
        service.close()

    def test_unknown_ticket_and_timeout(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        with pytest.raises(SubmissionNotFound):
            service.status("s-9999")
        ticket = service.submit_sweep(jobs=_jobs(1), tenant="alice")
        with pytest.raises(TimeoutError):
            service.results(ticket, timeout=0)
        service.drain()
        assert service.results(ticket, timeout=0) == run_jobs(_jobs(1))
        service.close()

    def test_close_rejects_queued_work_typed(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        queued = service.submit_sweep(jobs=_jobs(1), tenant="alice")
        service.close()
        with pytest.raises(AdmissionRejected) as info:
            service.results(queued)
        assert info.value.reason == "shutdown"
        with pytest.raises(AdmissionRejected) as info:
            service.submit_sweep(jobs=_jobs(1, 5), tenant="alice")
        assert info.value.reason == "shutdown"
        assert service.ready()["ready"] is False

    def test_experiment_submission_runs_registry_function(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(
            experiment="fig6",
            tenant="alice",
            scale=0.25,
            workloads=["povray", "xz"],
        )
        service.drain()
        from repro.harness.experiments import experiment_figure6

        reference = experiment_figure6(
            scale=0.25, workloads=["povray", "xz"], workers=1
        )
        assert service.results(ticket) == reference
        service.close()

    def test_progress_streams_from_journal(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(4), tenant="alice")
        tail = service.stream_progress(ticket)
        assert tail.progress() == {"completed": 0, "total": None, "done": False}
        service.drain()
        assert tail.progress() == {"completed": 4, "total": 4, "done": True}
        assert service.status(ticket)["progress"]["done"] is True
        service.close()


class TestTerminalResults:
    """results() on any terminal ticket resolves immediately.

    The timeout parameter bounds the wait for an *undecided* outcome;
    a submission that is already done, failed, shed or cancelled must
    return/raise at once even with an absurd timeout — a client polling
    a dead ticket should never block.
    """

    # Far longer than the suite's own timeout: if results() ever waits
    # on a terminal ticket, the wall-clock assertion (and eventually CI)
    # catches it.
    HUGE_TIMEOUT = 3600.0

    def _assert_immediate(self, action):
        import time as _time

        started = _time.monotonic()
        action()
        assert _time.monotonic() - started < 5.0, (
            "terminal results() blocked instead of resolving immediately"
        )

    def test_done_returns_immediately(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(2), tenant="alice")
        service.drain()
        self._assert_immediate(
            lambda: service.results(ticket, timeout=self.HUGE_TIMEOUT)
        )
        service.close()

    def test_cancelled_raises_immediately(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(2), tenant="alice")
        assert service.cancel(ticket)
        def read():
            with pytest.raises(SubmissionCancelled):
                service.results(ticket, timeout=self.HUGE_TIMEOUT)
        self._assert_immediate(read)
        service.close()

    def test_shed_raises_immediately(self, tmp_path, clock):
        service = _service(tmp_path, clock, queue_depth=2)
        shed = service.submit_sweep(jobs=_jobs(1, 0), tenant="alice")
        service.submit_sweep(jobs=_jobs(1, 1), tenant="alice")
        service.submit_sweep(jobs=_jobs(1, 2), tenant="bob")
        def read():
            with pytest.raises(AdmissionRejected) as info:
                service.results(shed, timeout=self.HUGE_TIMEOUT)
            assert info.value.reason == "shed"
        self._assert_immediate(read)
        service.close()

    def test_failed_raises_immediately(self, tmp_path, clock):
        register_job_kind(
            "svc_broken",
            lambda params: (_ for _ in ()).throw(ValueError("broken cell")),
        )
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(
            jobs=[SimJob(kind="svc_broken", params={"value": 1})],
            tenant="alice",
        )
        service.drain()
        def read():
            with pytest.raises(Exception, match="broken cell"):
                service.results(ticket, timeout=self.HUGE_TIMEOUT)
        self._assert_immediate(read)
        service.close()

    def test_shutdown_rejected_raises_immediately(self, tmp_path, clock):
        service = _service(tmp_path, clock)
        ticket = service.submit_sweep(jobs=_jobs(1), tenant="alice")
        service.close()
        def read():
            with pytest.raises(AdmissionRejected) as info:
                service.results(ticket, timeout=self.HUGE_TIMEOUT)
            assert info.value.reason == "shutdown"
        self._assert_immediate(read)


# -- probes and threads -------------------------------------------------------


class TestProbesAndThreads:
    def test_ready_reflects_queue_headroom(self, tmp_path, clock):
        service = _service(tmp_path, clock, queue_depth=2)
        probe = service.ready()
        assert probe["ready"] is True and bool(probe) is True
        assert probe["queue"] == {"depth": 2, "queued": 0, "headroom": 2}
        assert probe["breakers"] == {name: "closed" for name in BACKENDS}
        service.submit_sweep(jobs=_jobs(1, 0), tenant="alice")
        service.submit_sweep(jobs=_jobs(1, 1), tenant="bob")
        probe = service.ready()
        assert probe["ready"] is False and bool(probe) is False
        assert probe["queue"] == {"depth": 2, "queued": 2, "headroom": 0}
        service.drain()
        probe = service.ready()
        assert probe["ready"] is True
        assert probe["queue"]["headroom"] == 2
        # The probe is JSON-able for a future HTTP readiness endpoint.
        assert json.loads(json.dumps(probe)) == dict(probe)
        service.close()

    def test_dispatcher_threads_complete_submissions(self, tmp_path):
        # Real threads + real clock: the one non-drain()-driven test.
        service = FabricService(
            cache_root=tmp_path,
            config=ServiceConfig(
                queue_depth=8, dispatchers=2, workers=2
            ),
        )
        try:
            tickets = [
                service.submit_sweep(jobs=_jobs(2, 10 * index), tenant="alice")
                for index in range(4)
            ]
            for index, ticket in enumerate(tickets):
                assert service.results(ticket, timeout=30) == run_jobs(
                    _jobs(2, 10 * index)
                )
        finally:
            service.close()

    def test_async_facade_round_trip(self, tmp_path):
        async def scenario():
            async with AsyncFabricService(
                cache_root=tmp_path,
                config=ServiceConfig(
                    queue_depth=4, dispatchers=1, workers=2
                ),
            ) as service:
                ticket = await service.submit_sweep(
                    jobs=_jobs(3), tenant="alice"
                )
                results = await service.results(ticket, timeout=30)
                health = await service.health()
                return results, health

        results, health = asyncio.run(scenario())
        assert results == run_jobs(_jobs(3))
        assert health["counters"]["completed"] == 1


# -- the acceptance scenario --------------------------------------------------


class TestServiceChaosAcceptance:
    """Seeded flood + backend kills + a greedy tenant, end to end."""

    def test_flood_with_kills_accepted_identical_rejected_typed(
        self, tmp_path, clock
    ):
        # seed=7 deterministically exercises every path in one flood: 7
        # of 14 submissions chaos-killed, 7 completed, 3 shed, 4
        # rejected at submit, and 3 killed submissions completing via
        # the degraded rerun.
        seed = 7
        policy = ServiceChaosPolicy(seed=seed, kill_backend=0.4)
        plan = flood_plan(
            policy,
            tenants=["alice", "bob"],
            per_tenant=4,
            greedy_tenant="greedy",
            greedy_extra=6,
        )
        assert len(plan) == 14
        assert any(entry.killed for entry in plan), "seed must kill some"
        # Replaying the plan builder is byte-stable: same seed, same
        # order, same verdicts.
        assert plan == flood_plan(
            policy,
            tenants=["alice", "bob"],
            per_tenant=4,
            greedy_tenant="greedy",
            greedy_extra=6,
        )

        service = _service(
            tmp_path,
            clock,
            backend="process-pool",
            queue_depth=3,
            rate_capacity=1000.0,
            rate_refill_per_s=100.0,
            breaker_threshold=3,
            breaker_cooldown_s=1000.0,
        )
        jobs_of = {
            entry.key: _jobs(2, offset=100 * index)
            for index, entry in enumerate(plan)
        }

        accepted = {}  # plan key -> ticket
        rejected_at_submit = []
        for step, entry in enumerate(plan):
            run_policy = killed_policy(seed) if entry.killed else None
            try:
                ticket = service.submit_sweep(
                    jobs=jobs_of[entry.key],
                    tenant=entry.tenant,
                    policy=run_policy,
                )
            except AdmissionRejected as exc:
                assert exc.reason in {"queue_full", "rate_limited"}
                rejected_at_submit.append(entry.key)
                continue
            accepted[entry.key] = ticket
            if step % 2 == 1:
                service.drain(limit=1)  # interleave work with arrivals
        service.drain()

        shed, completed = [], []
        for key, ticket in accepted.items():
            view = service.status(ticket)
            if view["state"] == "rejected":
                # Shed under load: must fail fast and typed, never hang.
                with pytest.raises(AdmissionRejected) as info:
                    service.results(ticket, timeout=0)
                assert info.value.reason == "shed"
                shed.append(key)
                continue
            assert view["state"] == "done", view
            # THE acceptance property: byte-identical to a quiet serial
            # run of the same jobs, kills and degradation included.
            assert service.results(ticket) == run_jobs(jobs_of[key])
            completed.append(key)

        # The flood must actually have exercised every path.
        assert completed, "some submissions must complete"
        assert shed or rejected_at_submit, "the flood must overload the queue"
        health = service.health()
        assert health["counters"]["completed"] == len(completed)
        assert health["counters"].get("shed", 0) == len(shed)
        killed_completed = [
            key for key in completed
            if any(e.key == key and e.killed for e in plan)
        ]
        assert killed_completed, "killed-then-degraded sweeps must complete"
        assert health["counters"]["degraded_runs"] >= len(killed_completed)

        # No cross-tenant contamination: each tenant's entries live
        # under its own subtree, and no tenant directory holds a key
        # computed for another tenant's exclusive jobs.
        for tenant in ("alice", "bob", "greedy"):
            root = tenant_cache_root(tmp_path, tenant)
            own_keys = {
                job.key()
                for key, ticket in accepted.items()
                for job in jobs_of[key]
                if key.startswith(f"{tenant}:")
            }
            found = {path.stem for path in root.glob("??/*.json")}
            assert found <= own_keys, f"{tenant} cache holds foreign entries"
        service.close()
