"""The multi-tenant fabric service: admission, dispatch, degradation.

:class:`FabricService` turns the batch experiment fabric
(:func:`repro.harness.run_jobs` and the named ``EXPERIMENTS``) into a
long-lived, overload-safe campaign service. The contract, from the
overload model in DESIGN.md:

* **Typed, bounded admission.** ``submit_sweep`` either returns a ticket
  or raises :class:`AdmissionRejected` *now* — per-tenant token buckets
  (``rate_limited``), a fixed-depth queue with tenant-fair shedding
  (``queue_full`` / ``shed``), and a closed service (``shutdown``).
  Nothing queues without bound; nothing blocks the caller.
* **Per-tenant isolation.** Every tenant's results live in a private
  subtree of the content-addressed cache
  (:func:`repro.service.tenancy.tenant_cache`); job keys are
  tenant-independent, so identical submissions from two tenants produce
  byte-identical payloads at distinct paths.
* **Degradation is a first-class state, not an error.** A backend that
  keeps failing transiently trips its circuit breaker; submissions are
  then routed to the in-process backend (observable via
  ``status``/``health``) until a probe succeeds. Accepted work still
  completes with byte-identical results — the write-through cache means
  a rerun after a backend failure recomputes only the missing cells.
  Operators who prefer fail-fast set ``allow_degraded=False`` and get
  :class:`CircuitOpenError` with a retry hint instead.
* **Determinism on demand.** The clock (``time_fn``) and the dispatcher
  threads (``start=False`` + :meth:`drain`) are injectable, so every
  overload scenario — floods, sheds, breaker trips — is reproducible in
  tests without sleeps or real time.

Progress streams from the sweep journals the fabric already writes
(:class:`repro.service.progress.JournalTail`); there is no second
bookkeeping channel to drift.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    AdmissionRejected,
    CircuitOpenError,
    ConfigurationError,
    JobTimeoutError,
    RecoveredSubmissionError,
    RetryBudgetExceededError,
    SubmissionCancelled,
    SubmissionNotFound,
    WorkerCrashError,
)
from repro.common.stats import LatencyRecorder, StatGroup
from repro.harness.parallel import (
    BACKENDS,
    ExecutionPolicy,
    ResultCache,
    SimJob,
    default_cache_dir,
    execution_policy,
    run_jobs,
    sweep_id,
)
from repro.service.admission import AdmissionQueue, TokenBucket
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.chaos import CrashingCache, ServiceChaosPolicy
from repro.service.progress import JournalTail
from repro.service.tenancy import DEFAULT_TENANT, tenant_cache, validate_tenant
from repro.service.wal import StateLog

# Submission lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, REJECTED, CANCELLED})

# Name of the write-ahead state log inside ``state_dir``.
WAL_FILENAME = "service.wal"


@dataclass
class ServiceConfig:
    """Operator knobs for :class:`FabricService`.

    ``rate_capacity`` / ``rate_refill_per_s`` are the default per-tenant
    token bucket (burst / sustained submissions-per-second);
    ``tenant_rates`` overrides specific tenants with ``(capacity,
    refill_per_s)`` pairs — a capacity of 0 blocks a tenant outright.
    ``backend`` is the primary executor (:data:`BACKENDS` key). The
    default, ``inprocess``, runs each sweep's cells on its dispatcher
    thread; ``process-pool`` buys real isolation (hung or crashing
    cells are killed, not shared), and only it can trip its breaker.
    ``allow_degraded`` chooses between rerouting to in-process execution
    (True, the default) and failing fast with :class:`CircuitOpenError`
    (False) when that backend's breaker is open.
    """

    queue_depth: int = 8
    dispatchers: int = 2
    rate_capacity: float = 4.0
    rate_refill_per_s: float = 1.0
    tenant_rates: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    backend: str = "inprocess"
    workers: int = 2
    allow_degraded: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown service backend {self.backend!r}; "
                f"valid: {', '.join(sorted(BACKENDS))}"
            )
        if self.dispatchers < 1:
            raise ConfigurationError("service needs at least one dispatcher")


@dataclass
class Submission:
    """One tracked sweep submission (jobs XOR a named experiment)."""

    ticket: str
    tenant: str
    jobs: Optional[List[SimJob]] = None
    experiment: Optional[str] = None
    experiment_kwargs: Dict[str, Any] = field(default_factory=dict)
    policy: Optional[ExecutionPolicy] = None
    state: str = QUEUED
    backend_used: Optional[str] = None
    degraded: bool = False
    error: Optional[BaseException] = None
    results: Optional[Any] = None
    submitted_at: float = 0.0
    dispatched_at: Optional[float] = None
    finished_at: Optional[float] = None
    journal_path: Optional[pathlib.Path] = None
    recovered: bool = False
    finished: threading.Event = field(default_factory=threading.Event)


class ReadyProbe(dict):
    """:meth:`FabricService.ready`'s structured answer.

    A plain dict (JSON-able for probe endpoints) whose truthiness is the
    ``ready`` flag, so existing ``if service.ready():`` callers keep
    their meaning while new callers read the queue and breaker detail.
    """

    def __init__(self, ready: bool, queue: Dict[str, int],
                 breakers: Dict[str, str],
                 durability: Optional[Dict[str, Any]] = None):
        super().__init__(ready=ready, queue=queue, breakers=breakers)
        if durability is not None:
            self["durability"] = durability

    def __bool__(self) -> bool:
        return bool(self["ready"])


def _is_transient_infra(error: BaseException) -> bool:
    """Did the *infrastructure* fail (backend health signal), as opposed
    to the job's own code? Retry-budget exhaustion inherits the verdict
    of its underlying cause."""
    if isinstance(error, (WorkerCrashError, JobTimeoutError)):
        return True
    if isinstance(error, RetryBudgetExceededError):
        return bool(getattr(error.__cause__, "transient", False))
    return False


class FabricService:
    """Long-lived, multi-tenant front end over the experiment fabric."""

    def __init__(
        self,
        cache_root: Optional[pathlib.Path] = None,
        config: Optional[ServiceConfig] = None,
        time_fn: Callable[[], float] = time.monotonic,
        start: bool = True,
        state_dir: Optional[pathlib.Path] = None,
        chaos: Optional[ServiceChaosPolicy] = None,
        crash_fn: Optional[Callable[[], None]] = None,
    ):
        self.cache_root = (
            pathlib.Path(cache_root) if cache_root is not None else default_cache_dir()
        )
        self.config = config if config is not None else ServiceConfig()
        self._time_fn = time_fn
        self._work = threading.Condition()
        self._queue = AdmissionQueue(self.config.queue_depth)
        self._submissions: Dict[str, Submission] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._caches: Dict[str, ResultCache] = {}
        self._tickets = itertools.count(1)
        self._closed = False
        self._threads: List[threading.Thread] = []
        self.counters = StatGroup("service")
        self.latency = {
            "queue_wait": LatencyRecorder("queue_wait"),
            "run": LatencyRecorder("run"),
            "reject": LatencyRecorder("reject"),
        }
        # Durability: a write-ahead state log under state_dir makes every
        # accepted ticket survive a crash; without one the service is
        # explicitly memory-only (the pre-durability behaviour).
        self.state_dir = pathlib.Path(state_dir) if state_dir is not None else None
        self._chaos = chaos
        self._crash_fn = crash_fn
        self._wal: Optional[StateLog] = None
        self._replayed = 0
        self._quarantined = 0
        self._recovered_live = 0
        self._recovered_terminal = 0
        if self.state_dir is not None:
            self._wal = StateLog(self.state_dir / WAL_FILENAME)
            self._recover()
        if start:
            self._start_dispatchers()

    # -- durability --------------------------------------------------------

    def _wal_append(self, record: Dict[str, Any]) -> None:
        """Log a state transition (call with ``self._work`` held)."""
        if self._wal is not None:
            self._wal.append(record)

    @staticmethod
    def _accept_record(submission: Submission) -> Dict[str, Any]:
        jobs = None
        if submission.jobs is not None:
            jobs = [
                {"kind": job.kind, "params": dict(job.params), "label": job.label}
                for job in submission.jobs
            ]
        return {
            "type": "accept",
            "ticket": submission.ticket,
            "tenant": submission.tenant,
            "jobs": jobs,
            "experiment": submission.experiment,
            "kwargs": submission.experiment_kwargs,
        }

    @staticmethod
    def _finish_record(submission: Submission) -> Dict[str, Any]:
        error = submission.error
        return {
            "type": "finish",
            "ticket": submission.ticket,
            "state": submission.state,
            "error": str(error) if error is not None else None,
            "reason": getattr(error, "reason", None),
        }

    @staticmethod
    def _ticket_number(ticket: str) -> int:
        try:
            return int(ticket.rsplit("-", 1)[-1])
        except ValueError:
            return 0

    def _recovered_error(
        self, record: Dict[str, Any], tenant: str
    ) -> Optional[BaseException]:
        """Reconstruct a typed error for a replayed terminal failure."""
        state = record.get("state")
        message = record.get("error") or f"submission {record.get('ticket')} failed"
        if state == REJECTED:
            return AdmissionRejected(
                message,
                tenant=tenant,
                reason=record.get("reason") or "overload",
            )
        if state == FAILED:
            return RecoveredSubmissionError(message)
        return None

    def _recover(self) -> None:
        """Replay the WAL: re-adopt live tickets, rehydrate terminal ones.

        Last record wins per ticket. Tickets whose latest state is
        ``queued``/``running`` are re-queued in their original accept
        order (bypassing shedding — they already won admission once);
        the cells they completed before the crash are in the tenant's
        write-through cache and each sweep's journal, so re-execution
        recomputes only the gap and the results come out byte-identical.
        Terminal tickets are rebuilt already-finished: ``results()`` on
        a re-issued ticket returns (rehydrating done results from the
        cache, all hits) or raises its typed error immediately. The log
        is then compacted to one accept + latest-state pair per ticket.
        """
        assert self._wal is not None
        replay = self._wal.replay()
        self._replayed = len(replay.records)
        self._quarantined = len(replay.quarantined)
        accepts: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        latest: Dict[str, Dict[str, Any]] = {}
        for record in replay.records:
            ticket = record.get("ticket")
            rtype = record.get("type")
            if not isinstance(ticket, str):
                continue
            if rtype == "accept":
                if ticket not in accepts:
                    accepts[ticket] = record
                    order.append(ticket)
                    latest[ticket] = {"type": "accept", "state": QUEUED}
            elif rtype == "dispatch":
                latest[ticket] = {"type": "dispatch", "state": RUNNING}
            elif rtype == "finish":
                latest[ticket] = record

        highest = 0
        compacted: List[Dict[str, Any]] = []
        now = self._time_fn()
        for ticket in order:
            accept = accepts[ticket]
            highest = max(highest, self._ticket_number(ticket))
            tenant = accept.get("tenant") or DEFAULT_TENANT
            jobs: Optional[List[SimJob]] = None
            raw_jobs = accept.get("jobs")
            if raw_jobs is not None:
                jobs = [
                    SimJob(
                        kind=entry["kind"],
                        params=entry.get("params") or {},
                        label=entry.get("label"),
                    )
                    for entry in raw_jobs
                ]
            submission = Submission(
                ticket=ticket,
                tenant=tenant,
                jobs=jobs,
                experiment=accept.get("experiment"),
                experiment_kwargs=dict(accept.get("kwargs") or {}),
                submitted_at=now,
                recovered=True,
            )
            if jobs is not None:
                cache = self._tenant_cache(tenant)
                submission.journal_path = (
                    cache.root / "journals" / f"{sweep_id(jobs)}.jsonl"
                )
            final = latest[ticket]
            compacted.append(accept)
            if final.get("state") in TERMINAL_STATES:
                submission.state = final["state"]
                submission.error = self._recovered_error(final, tenant)
                submission.finished_at = now
                submission.finished.set()
                self._recovered_terminal += 1
                compacted.append(final)
            else:
                # queued or running when the process died: re-adopt.
                self._queue.restore(ticket, tenant)
                self._recovered_live += 1
            self._submissions[ticket] = submission
        if self._recovered_live or self._recovered_terminal:
            self.counters.increment("recovered", self._recovered_live)
        if highest:
            self._tickets = itertools.count(highest + 1)
        self._wal.close()
        if replay.records or not replay.clean:
            self._wal.compact(compacted)

    def durability(self) -> Dict[str, Any]:
        """The durability facet of ``health()``/``ready()``.

        ``mode`` is ``memory-only`` (no ``state_dir`` configured),
        ``durable`` (WAL and cache write-throughs landing), or
        ``degraded`` (a disk fault on either path — accepted work still
        completes, but would not survive a crash).
        """
        with self._work:
            return self._durability_locked()

    def _durability_locked(self) -> Dict[str, Any]:
        put_errors = sum(cache.put_errors for cache in self._caches.values())
        if self._wal is None:
            mode = "memory-only"
        elif self._wal.degraded or put_errors:
            mode = "degraded"
        else:
            mode = "durable"
        view: Dict[str, Any] = {
            "mode": mode,
            "replayed": self._replayed,
            "quarantined": self._quarantined,
            "recovered_live": self._recovered_live,
            "recovered_terminal": self._recovered_terminal,
            "cache_put_errors": put_errors,
        }
        if self._wal is not None:
            view["wal"] = self._wal.stats()
        return view

    # -- lifecycle ---------------------------------------------------------

    def _start_dispatchers(self) -> None:
        for index in range(self.config.dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"fabric-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def close(self) -> None:
        """Stop accepting work, fail queued submissions, join dispatchers.

        In-flight (running) submissions finish; queued-but-undispatched
        ones are rejected with reason ``shutdown`` so waiting callers
        fail fast instead of hanging on results that will never come.
        """
        with self._work:
            if self._closed:
                return
            self._closed = True
            while True:
                taken = self._queue.take()
                if taken is None:
                    break
                ticket, _tenant = taken
                submission = self._submissions[ticket]
                self._finish_locked(
                    submission,
                    REJECTED,
                    error=AdmissionRejected(
                        f"service shut down before submission {ticket} ran",
                        tenant=submission.tenant,
                        reason="shutdown",
                    ),
                )
            self._work.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        if self._wal is not None:
            # Every queued ticket was just finished (shutdown-rejected)
            # and logged; a clean close therefore leaves only terminal
            # records, so the next boot re-adopts nothing.
            self._wal.close()

    def __enter__(self) -> "FabricService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission ---------------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            capacity, refill = self.config.tenant_rates.get(
                tenant, (self.config.rate_capacity, self.config.rate_refill_per_s)
            )
            bucket = TokenBucket(capacity, refill, time_fn=self._time_fn)
            self._buckets[tenant] = bucket
        return bucket

    def submit_sweep(
        self,
        jobs: Optional[Sequence[SimJob]] = None,
        tenant: str = DEFAULT_TENANT,
        experiment: Optional[str] = None,
        policy: Optional[ExecutionPolicy] = None,
        **experiment_kwargs: Any,
    ) -> str:
        """Admit one sweep; returns a ticket or raises, synchronously.

        Exactly one of ``jobs`` (a sequence of :class:`SimJob`) and
        ``experiment`` (an ``EXPERIMENTS`` name, with keyword arguments
        like ``scale``/``workloads`` passed through) must be given.
        Raises :class:`ConfigurationError` for malformed requests and
        :class:`AdmissionRejected` for overload — the latter carries a
        machine-readable ``reason`` and a ``retry_after_s`` hint.
        """
        started = self._time_fn()
        validate_tenant(tenant)
        if (jobs is None) == (experiment is None):
            raise ConfigurationError(
                "submit_sweep wants exactly one of jobs= or experiment="
            )
        if experiment is not None:
            from repro.harness.experiments import EXPERIMENTS

            if experiment not in EXPERIMENTS:
                raise ConfigurationError(
                    f"unknown experiment {experiment!r}; "
                    f"valid: {', '.join(sorted(EXPERIMENTS))}"
                )
        job_list: Optional[List[SimJob]] = None
        if jobs is not None:
            job_list = list(jobs)
            if not job_list:
                raise ConfigurationError("submit_sweep got an empty job list")

        with self._work:
            try:
                if self._closed:
                    raise AdmissionRejected(
                        "service is shut down",
                        tenant=tenant,
                        reason="shutdown",
                    )
                bucket = self._bucket(tenant)
                if not bucket.try_acquire():
                    self.counters.increment("rate_limited")
                    raise AdmissionRejected(
                        f"tenant {tenant!r} is over its submission rate",
                        tenant=tenant,
                        reason="rate_limited",
                        retry_after_s=bucket.retry_after(),
                    )
                ticket = f"s-{next(self._tickets):04d}"
                submission = Submission(
                    ticket=ticket,
                    tenant=tenant,
                    jobs=job_list,
                    experiment=experiment,
                    experiment_kwargs=dict(experiment_kwargs),
                    policy=policy,
                    submitted_at=started,
                )
                if job_list is not None:
                    cache = self._tenant_cache(tenant)
                    submission.journal_path = (
                        cache.root / "journals" / f"{sweep_id(job_list)}.jsonl"
                    )
                try:
                    victim = self._queue.offer(ticket, tenant)
                except AdmissionRejected:
                    self.counters.increment("queue_full")
                    raise
                self._submissions[ticket] = submission
                # Logged before the ticket is returned: an acknowledged
                # accept is a durable accept.
                self._wal_append(self._accept_record(submission))
                if victim is not None:
                    shed = self._submissions[victim]
                    self.counters.increment("shed")
                    self._finish_locked(
                        shed,
                        REJECTED,
                        error=AdmissionRejected(
                            f"submission {victim} shed under load "
                            f"(tenant {shed.tenant!r} held the largest "
                            "queue share)",
                            tenant=shed.tenant,
                            reason="shed",
                            retry_after_s=self._bucket(shed.tenant).retry_after(),
                        ),
                    )
                self.counters.increment("accepted")
                self._work.notify()
                return ticket
            except AdmissionRejected:
                self.counters.increment("rejected")
                self.latency["reject"].record(self._time_fn() - started)
                raise

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            submission = self._next_submission(block=True)
            if submission is None:
                return
            self._execute(submission)

    def _next_submission(self, block: bool) -> Optional[Submission]:
        with self._work:
            while True:
                taken = self._queue.take()
                if taken is not None:
                    ticket, _tenant = taken
                    submission = self._submissions[ticket]
                    submission.state = RUNNING
                    self._wal_append({"type": "dispatch", "ticket": ticket})
                    submission.dispatched_at = self._time_fn()
                    self.latency["queue_wait"].record(
                        submission.dispatched_at - submission.submitted_at
                    )
                    return submission
                if self._closed or not block:
                    return None
                self._work.wait()

    def drain(self, limit: Optional[int] = None) -> int:
        """Run queued submissions on the calling thread (``start=False``
        mode); returns how many ran. The deterministic-test entry point:
        no dispatcher threads, no time dependence beyond ``time_fn``."""
        processed = 0
        while limit is None or processed < limit:
            submission = self._next_submission(block=False)
            if submission is None:
                break
            self._execute(submission)
            processed += 1
        return processed

    # -- execution ---------------------------------------------------------

    def _tenant_cache(self, tenant: str) -> ResultCache:
        # Memoized so write-error counters (put_errors) accumulate per
        # tenant across a submission's lifetime and feed the durability
        # probe, instead of resetting on every fresh ResultCache.
        cache = self._caches.get(tenant)
        if cache is None:
            cache = tenant_cache(self.cache_root, tenant)
            self._caches[tenant] = cache
        return cache

    def _breaker(self, backend: str) -> CircuitBreaker:
        breaker = self._breakers.get(backend)
        if breaker is None:
            breaker = CircuitBreaker(
                backend,
                threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
                time_fn=self._time_fn,
            )
            self._breakers[backend] = breaker
        return breaker

    def _run_once(self, submission: Submission, backend: str) -> Any:
        """One execution attempt on ``backend``, in the caller's context.

        ``fallback_serial`` is forced off: backend degradation must
        surface here (as a transient error) so the *service* can record
        it against the breaker and own the rerun — silent in-fabric
        fallback would hide exactly the signal the breaker exists for.
        """
        base = submission.policy if submission.policy is not None else ExecutionPolicy()
        active = dataclasses.replace(base, backend=backend, fallback_serial=False)
        cache: Any = self._tenant_cache(submission.tenant)
        if self._chaos is not None:
            total = len(submission.jobs) if submission.jobs is not None else None
            point = self._chaos.crash_point(submission.ticket, total)
            if point is not None:
                # The crash channel: die after the Nth fresh cell lands
                # in the cache. Cached cells never re-put, so every
                # restarted attempt makes >= N cells of progress and a
                # supervised service converges even at crash=1.0.
                kwargs: Dict[str, Any] = {"crash_after": point}
                if self._crash_fn is not None:
                    kwargs["crash_fn"] = self._crash_fn
                cache = CrashingCache(cache, **kwargs)
        if submission.jobs is not None:
            return run_jobs(
                submission.jobs,
                workers=self.config.workers,
                cache=cache,
                policy=active,
            )
        from repro.harness.experiments import EXPERIMENTS

        function = EXPERIMENTS[submission.experiment]
        parameters = inspect.signature(function).parameters
        kwargs = {
            key: value
            for key, value in submission.experiment_kwargs.items()
            if key in parameters
        }
        if "cache" in parameters:
            kwargs.setdefault("cache", cache)
        if "workers" in parameters:
            kwargs.setdefault("workers", self.config.workers)
        with execution_policy(active):
            return function(**kwargs)

    def _execute(self, submission: Submission) -> None:
        primary = self.config.backend
        breaker = self._breaker(primary)
        with self._work:
            routed = primary if (primary == "inprocess" or breaker.allow()) else None
        if routed is None and not self.config.allow_degraded:
            self._finish(
                submission,
                FAILED,
                error=CircuitOpenError(
                    f"backend {primary!r} circuit is open and degraded "
                    "fallback is disabled",
                    backend=primary,
                    retry_after_s=breaker.retry_after(),
                ),
            )
            return
        if routed is None:
            submission.degraded = True
            self.counters.increment("degraded_runs")
            routed = "inprocess"

        submission.backend_used = routed
        try:
            results = self._run_once(submission, routed)
        except Exception as error:  # noqa: BLE001 - classified below
            if routed != "inprocess" and _is_transient_infra(error):
                with self._work:
                    breaker.record_failure()
                    self.counters.increment("backend_failures")
                if self.config.allow_degraded:
                    # The write-through cache holds every cell that
                    # finished before the backend died; the in-process
                    # rerun recomputes only the gap, so results remain
                    # byte-identical to an undisturbed run.
                    submission.degraded = True
                    submission.backend_used = "inprocess"
                    self.counters.increment("degraded_runs")
                    try:
                        results = self._run_once(submission, "inprocess")
                    except Exception as rerun_error:  # noqa: BLE001
                        self._finish(submission, FAILED, error=rerun_error)
                        return
                    self._finish(submission, DONE, results=results)
                    return
                if breaker.state == OPEN:
                    error = CircuitOpenError(
                        f"backend {primary!r} circuit opened after repeated "
                        "transient failures",
                        backend=primary,
                        retry_after_s=breaker.retry_after(),
                    )
                self._finish(submission, FAILED, error=error)
                return
            self._finish(submission, FAILED, error=error)
            return
        if routed != "inprocess":
            with self._work:
                breaker.record_success()
        self._finish(submission, DONE, results=results)

    def _finish(self, submission: Submission, state: str, **updates: Any) -> None:
        with self._work:
            self._finish_locked(submission, state, **updates)

    def _finish_locked(
        self,
        submission: Submission,
        state: str,
        error: Optional[BaseException] = None,
        results: Optional[Any] = None,
    ) -> None:
        submission.state = state
        submission.error = error
        submission.results = results
        submission.finished_at = self._time_fn()
        # Logged before the finished event wakes any waiter: by the time
        # a client observes the outcome, a restart would replay it.
        self._wal_append(self._finish_record(submission))
        if state == DONE:
            self.counters.increment("completed")
            if submission.dispatched_at is not None:
                self.latency["run"].record(
                    submission.finished_at - submission.dispatched_at
                )
        elif state == FAILED:
            self.counters.increment("failed")
        elif state == REJECTED:
            # Time for an accepted-then-refused submission (shed,
            # shutdown) to learn its fate -- the fail-fast metric.
            self.latency["reject"].record(
                submission.finished_at - submission.submitted_at
            )
        submission.finished.set()

    # -- client API --------------------------------------------------------

    def _submission(self, ticket: str) -> Submission:
        submission = self._submissions.get(ticket)
        if submission is None:
            raise SubmissionNotFound(f"no submission with ticket {ticket!r}")
        return submission

    def status(self, ticket: str) -> Dict[str, Any]:
        """Point-in-time view of one submission, progress included."""
        with self._work:
            submission = self._submission(ticket)
            view: Dict[str, Any] = {
                "ticket": submission.ticket,
                "tenant": submission.tenant,
                "state": submission.state,
                "backend": submission.backend_used,
                "degraded": submission.degraded,
                "recovered": submission.recovered,
                "error": str(submission.error) if submission.error else None,
            }
            journal_path = submission.journal_path
        if journal_path is not None:
            view["progress"] = JournalTail(journal_path).progress()
        return view

    def stream_progress(self, ticket: str) -> JournalTail:
        """A live :class:`JournalTail` for a jobs-based submission.

        Raises :class:`ConfigurationError` for experiment submissions
        (their sweeps are internal; poll :meth:`status` instead).
        """
        with self._work:
            submission = self._submission(ticket)
            if submission.journal_path is None:
                raise ConfigurationError(
                    f"submission {ticket} has no streamable journal "
                    "(experiment submissions aggregate internally)"
                )
            return JournalTail(submission.journal_path)

    def results(self, ticket: str, timeout: Optional[float] = None) -> Any:
        """Block until the submission resolves; return or raise its outcome.

        ``DONE`` returns the decoded results (or the experiment report);
        ``FAILED``/``REJECTED`` re-raise the stored typed error;
        ``CANCELLED`` raises :class:`SubmissionCancelled`. A submission
        already in a terminal state — cancelled, shed, failed, done —
        resolves *immediately*, whatever ``timeout`` says: the timeout
        bounds the wait for an outcome, never delays one that exists. A
        genuine timeout raises :class:`TimeoutError` without consuming
        the submission.
        """
        with self._work:
            submission = self._submission(ticket)
            terminal = submission.state in TERMINAL_STATES
        if terminal:
            # Terminal states are final: resolve now (outside the lock —
            # rehydrating a recovered result may touch the cache) rather
            # than making the caller spend its timeout on a done deal.
            return self._resolve(submission)
        if not submission.finished.wait(timeout):
            raise TimeoutError(
                f"submission {ticket} still {submission.state} "
                f"after {timeout}s"
            )
        return self._resolve(submission)

    def _resolve(self, submission: Submission) -> Any:
        """Return or raise a terminal submission's outcome."""
        if submission.state == DONE:
            if submission.results is None and submission.recovered:
                self._rehydrate(submission)
            return submission.results
        if submission.state == CANCELLED:
            raise SubmissionCancelled(
                f"submission {submission.ticket} was cancelled before "
                "completion"
            )
        assert submission.error is not None
        raise submission.error

    def _rehydrate(self, submission: Submission) -> None:
        """Recompute a recovered DONE submission's results from the cache.

        The WAL records *that* a submission completed, not its payload —
        the payload lives in the content-addressed cache, one entry per
        cell. Re-running the sweep in-process touches only cached
        entries (every cell completed before the crash, or the state
        would not be DONE), so this is a read-side reconstruction:
        exactly-once semantics by sha256 addressing, zero recomputation.
        Idempotent under races — concurrent callers rebuild identical
        bytes.
        """
        results = self._run_once(submission, "inprocess")
        with self._work:
            if submission.results is None:
                submission.results = results
                self.counters.increment("rehydrated")

    def cancel(self, ticket: str) -> bool:
        """Cancel a still-queued submission; False once it is running.

        Running sweeps are not interrupted — cells already computed are
        in the write-through cache and killing mid-sweep would forfeit
        that work for nothing.
        """
        with self._work:
            submission = self._submission(ticket)
            if submission.state != QUEUED or not self._queue.remove(ticket):
                return False
            self.counters.increment("cancelled")
            self._finish_locked(submission, CANCELLED)
            return True

    # -- probes ------------------------------------------------------------

    def ready(self) -> Dict[str, Any]:
        """Readiness probe: accepting submissions with queue headroom.

        Structured so an orchestrator can log *why* the service refused:
        the admission queue's current depth and headroom, and the breaker
        state of every registered backend. Truthiness follows the
        ``ready`` flag — ``if service.ready(): ...`` keeps working.
        """
        with self._work:
            queued = len(self._queue)
            accepting = not self._closed and queued < self._queue.depth
            return ReadyProbe(
                ready=accepting,
                queue={
                    "depth": self._queue.depth,
                    "queued": queued,
                    "headroom": max(0, self._queue.depth - queued),
                },
                breakers={
                    name: self._breaker(name).state
                    for name in sorted(BACKENDS)
                },
                durability=self._durability_locked(),
            )

    def health(self) -> Dict[str, Any]:
        """Liveness + load snapshot for operators and monitoring.

        ``breakers`` covers every registered backend keyed by name — a
        backend that never ran reports a pristine closed breaker, so a
        monitoring scrape sees the same shape regardless of traffic.
        """
        with self._work:
            breakers = {
                name: self._breaker(name).snapshot()
                for name in sorted(BACKENDS)
            }
            durability = self._durability_locked()
            degraded = (
                any(b["state"] != "closed" for b in breakers.values())
                or durability["mode"] == "degraded"
            )
            return {
                "status": (
                    "closed"
                    if self._closed
                    else "degraded" if degraded else "ok"
                ),
                "queue": {
                    "depth": self._queue.depth,
                    "queued": len(self._queue),
                    "per_tenant": self._queue.tenant_counts(),
                },
                "breakers": breakers,
                "durability": durability,
                "caches": {
                    tenant: cache.stats()
                    for tenant, cache in sorted(self._caches.items())
                },
                "counters": self.counters.as_dict(),
                "latency": {
                    name: recorder.summary()
                    for name, recorder in self.latency.items()
                },
            }


class AsyncFabricService:
    """Thin asyncio facade over :class:`FabricService`.

    The service's own concurrency lives in plain threads (dispatchers,
    the blocking fabric); this wrapper exposes the client API as
    coroutines via ``asyncio.to_thread`` so an async caller (or a future
    HTTP front end) never blocks its event loop. One wrapper per
    service; construct with an existing service or the same arguments.
    """

    def __init__(self, service: Optional[FabricService] = None, **kwargs: Any):
        self.service = service if service is not None else FabricService(**kwargs)

    async def submit_sweep(self, *args: Any, **kwargs: Any) -> str:
        import asyncio

        return await asyncio.to_thread(self.service.submit_sweep, *args, **kwargs)

    async def status(self, ticket: str) -> Dict[str, Any]:
        import asyncio

        return await asyncio.to_thread(self.service.status, ticket)

    async def results(self, ticket: str, timeout: Optional[float] = None) -> Any:
        import asyncio

        return await asyncio.to_thread(self.service.results, ticket, timeout)

    async def cancel(self, ticket: str) -> bool:
        import asyncio

        return await asyncio.to_thread(self.service.cancel, ticket)

    async def health(self) -> Dict[str, Any]:
        import asyncio

        return await asyncio.to_thread(self.service.health)

    async def close(self) -> None:
        import asyncio

        await asyncio.to_thread(self.service.close)

    async def __aenter__(self) -> "AsyncFabricService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
