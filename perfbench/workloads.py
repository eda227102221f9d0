"""The three cold-start workloads, one measured *pass* each.

A pass starts cold — a fresh result-cache directory and an empty
boot-snapshot memo — runs its sweep, then re-reads every result the way
a restarted process would, and hands back timings, the digest of its
simulated output and its operation counts. :mod:`run` repeats passes
for the run's time budget and reports medians.

* ``fig6-cold``: :func:`run_figure6` over all 25 workloads x baseline /
  PT-Guard / optimized at a fifth of CLI scale, in-process. Every boot snapshot
  is stored, never fetched.
* ``frontier-cold``: :func:`run_frontier` over the default policy grid x
  all five adaptive strategies at quarter scale, in-process: correction,
  blake2 MAC verify, rekeys and the recovery manager.
* ``service-loop``: two closed-loop clients (one per tenant) against an
  in-process :class:`FabricService` with a write-ahead log and the
  threaded backend. Each client runs the CLI's ``fig6`` then ``fig7``
  through the service, one workload and one MAC latency per sweep
  (:func:`client_plan`), waiting for each sweep's results before the
  next. The pass ends by closing the service, reopening it on the state
  directory the loop wrote and fetching every done ticket's results.

Inputs derive from the seed alone; the library receives it as ``seed=``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.frontier_eval import format_frontier_report, run_frontier
from repro.analysis.perf_eval import figure6_jobs, run_figure6
from repro.harness import snapshot
from repro.harness.parallel import ResultCache, last_run_stats
from repro.service import FabricService, ServiceConfig

#: A fifth of the CLI's ``--scale 1`` op counts (``experiment_figure6``),
#: so that a run of the default length holds about three passes.
FIG6_MEM_OPS = 4_000
FIG6_WARMUP_OPS = 2_400
#: Quarter of ``run_frontier``'s 48 exposure windows per siege cell.
FRONTIER_WINDOWS = 12
#: Restarts per pass: re-reads of a cold sweep from its cache, or
#: reopenings of the service with a fetch of every done ticket.
RESTART_REPEATS = 10

SERVICE_TENANTS = ("tenant-a", "tenant-b")
#: The workloads and cell size of the service flood benchmark
#: (``benchmarks/test_bench_service.py``: 4000 + 2000 ops per cell x
#: ``REPRO_SCALE``), here at scale 0.1 so that a run holds several passes.
SERVICE_WORKLOADS = ("povray", "xz", "mcf", "lbm")
SERVICE_MEM_OPS = 400
SERVICE_WARMUP_OPS = 200
#: ``run_figure6``'s MAC latency and ``run_figure7``'s latency sweep.
FIG6_LATENCY = 10
FIG7_LATENCIES = (5, 10, 15, 20)
SERVICE_RESULT_TIMEOUT_S = 120.0


@dataclass
class PassResult:
    """One pass: timings, digest of the simulated output, operations."""

    #: the cold sweep, or the service's closed loop
    wall_s: float
    #: each re-read of every result the way a restarted process would
    restarts: List[float]
    digest: str
    attempted: int
    failed: int
    #: completed sweeps
    sweeps: int
    #: simulated memory accesses the pass executed
    accesses: int
    sweep_latencies: List[float] = field(default_factory=list)
    #: seconds of in-process preparation before the measured work
    prep_s: float = 0.0
    #: queue wait (admission to dispatch) summed over sweeps
    queue_wait_s: float = 0.0
    errors: List[str] = field(default_factory=list)


def _digest(payload) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _start_cold(scratch: Path, label: str) -> Path:
    """An empty cache directory and an empty boot-snapshot memo."""
    directory = scratch / label
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    snapshot.reset()
    return directory


# -- fig6-cold and frontier-cold ---------------------------------------------


def _fig6(seed: int, cache: ResultCache) -> Tuple[Callable[[], str], int, int]:
    rows = run_figure6(
        mem_ops=FIG6_MEM_OPS,
        warmup_ops=FIG6_WARMUP_OPS,
        seed=seed,
        workers=1,
        cache=cache,
    )
    cells = len(rows) * 3
    digest = lambda: _digest([asdict(row) for row in rows])  # noqa: E731
    return digest, cells, cells * (FIG6_MEM_OPS + FIG6_WARMUP_OPS)


def _frontier(seed: int, cache: ResultCache) -> Tuple[Callable[[], str], int, int]:
    rows, cells = run_frontier(
        windows=FRONTIER_WINDOWS, seed=seed, workers=1, cache=cache
    )

    def digest() -> str:
        report = format_frontier_report(rows, cells)
        return hashlib.sha256(report.encode("utf-8")).hexdigest()

    # The attacker's simulated memory operations: hammer ops and walks.
    accesses = sum(cell.hammer_ops + cell.walks_issued for cell in cells)
    return digest, len(cells), accesses


def _cold_pass(
    sweep: Callable[[int, ResultCache], Tuple[Callable[[], str], int, int]],
    label: str,
    seed: int,
    scratch: Path,
) -> PassResult:
    """Run ``sweep`` on an empty cache, then re-read it from a new one.

    ``sweep`` hands back its output's digest as a callable, so that the
    check runs outside the timed spans.
    """
    clock = time.perf_counter
    prep = clock()
    directory = _start_cold(scratch, label)
    cache = ResultCache(directory)
    prep_s = clock() - prep
    start = clock()
    cold_digest, cells, accesses = sweep(seed, cache)
    wall = clock() - start
    cold_hits = last_run_stats().cached
    digest = cold_digest()
    restarts = []
    errors = []
    for _ in range(RESTART_REPEATS):
        start = clock()
        warm_digest, _, _ = sweep(seed, ResultCache(directory))
        restarts.append(clock() - start)
        if warm_digest() != digest:
            errors.append(f"{label}: output re-read from the cache differs from the cold run")
    shutil.rmtree(directory, ignore_errors=True)
    if cold_hits:
        errors.append(f"{label}: {cold_hits} result-cache hits on a cold cache")
    return PassResult(
        wall_s=wall,
        restarts=restarts,
        digest=digest,
        attempted=cells,
        failed=cells if errors else 0,
        sweeps=1,
        accesses=accesses,
        sweep_latencies=[wall],
        prep_s=prep_s,
        errors=errors,
    )


def fig6_pass(seed: int, scratch: Path, index: int) -> PassResult:
    return _cold_pass(_fig6, f"fig6-{index}", seed, scratch)


def frontier_pass(seed: int, scratch: Path, index: int) -> PassResult:
    return _cold_pass(_frontier, f"frontier-{index}", seed, scratch)


# -- service-loop ------------------------------------------------------------


@dataclass(frozen=True)
class PlannedSweep:
    workload: str
    mac_latency: int


def client_plan(seed: int, client: int) -> List[PlannedSweep]:
    """A client's session: ``fig6`` then ``fig7`` over SERVICE_WORKLOADS.

    Every sweep is the 3-cell grid ``figure6_jobs([workload],
    mac_latency=L)`` builds (baseline, PT-Guard, optimized), the shape of
    the flood benchmark's sweeps. ``fig6`` is one sweep per workload at
    L = 10; ``fig7`` covers the same designs at every latency of its
    sweep, one sweep per (latency, workload). The repeats follow from the
    cells' identity alone: of a workload's 15 cells, its fig7 baselines
    (3) and its whole L = 10 sweep (3) were computed before -- 40% of the
    cells and 1 sweep in 5, cache hits -- and every fig7 sweep restores the
    boot snapshots its fig6 sweep stored, since the latency is not part of
    the snapshot key. The seed orders the sweeps of each phase.
    """
    rng = random.Random(f"perfbench-service:{seed}:{client}")
    fig6 = [PlannedSweep(workload, FIG6_LATENCY) for workload in SERVICE_WORKLOADS]
    fig7 = [
        PlannedSweep(workload, latency)
        for latency in FIG7_LATENCIES
        for workload in SERVICE_WORKLOADS
    ]
    rng.shuffle(fig6)
    rng.shuffle(fig7)
    return fig6 + fig7


def _sweep_jobs(seed: int, sweep: PlannedSweep):
    return figure6_jobs(
        [sweep.workload],
        mem_ops=SERVICE_MEM_OPS,
        warmup_ops=SERVICE_WARMUP_OPS,
        mac_latency=sweep.mac_latency,
        seed=seed,
    )


def _results_digest(results) -> str:
    return _digest([asdict(result) for result in results])


def _service_config() -> ServiceConfig:
    # The default threaded backend, with admission limits sized so a
    # two-client closed loop is never refused: a refusal would count as
    # a failed operation.
    return ServiceConfig(rate_capacity=1e6, rate_refill_per_s=1e6)


def service_pass(seed: int, scratch: Path, index: int) -> PassResult:
    clock = time.perf_counter
    prep = clock()
    directory = _start_cold(scratch, f"service-{index}")
    state_dir = directory / "state"
    service = FabricService(
        cache_root=directory, config=_service_config(), state_dir=state_dir
    )
    prep_s = clock() - prep
    plans = [client_plan(seed, client) for client in range(len(SERVICE_TENANTS))]
    #: per client, (ticket, results) of each sweep, or (None, None)
    received: List[List[Tuple[Optional[str], Optional[list]]]] = [[] for _ in SERVICE_TENANTS]
    latencies: List[List[float]] = [[] for _ in SERVICE_TENANTS]
    errors: List[str] = []
    errors_lock = threading.Lock()

    def client(number: int) -> None:
        tenant = SERVICE_TENANTS[number]
        for sweep in plans[number]:
            begun = clock()
            try:
                ticket = service.submit_sweep(_sweep_jobs(seed, sweep), tenant=tenant)
                results = service.results(ticket, timeout=SERVICE_RESULT_TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 -- refusals and sheds too
                with errors_lock:
                    errors.append(f"{tenant}: {type(error).__name__}: {error}")
                received[number].append((None, None))
                continue
            latencies[number].append(clock() - begun)
            received[number].append((ticket, results))

    start = clock()
    threads = [
        threading.Thread(target=client, args=(number,), name=f"perfbench-client-{number}")
        for number in range(len(SERVICE_TENANTS))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    loop = clock() - start
    # Checked outside the loop's timed span.
    digests = [
        [_results_digest(results) if ticket else "failed" for ticket, results in done]
        for done in received
    ]
    tickets: List[List[Tuple[str, str]]] = [
        [(ticket, digest) for (ticket, _), digest in zip(done, hashes) if ticket]
        for done, hashes in zip(received, digests)
    ]
    # LatencyRecorder exposes percentiles only; the layer wants the sum.
    queue_wait = sum(service.latency["queue_wait"]._samples)
    service.close()

    # Reopening compacts the WAL, so every restart starts from a copy of
    # the log the loop wrote, restored outside the timed span.
    written = directory / "state-written"
    shutil.copytree(state_dir, written)
    restarts = []
    mismatched = set()
    for _ in range(RESTART_REPEATS):
        shutil.rmtree(state_dir)
        shutil.copytree(written, state_dir)
        fetched = []
        start = clock()
        reopened = FabricService(
            cache_root=directory, config=_service_config(), state_dir=state_dir
        )
        try:
            for done in tickets:
                for ticket, digest in done:
                    try:
                        fetched.append((ticket, digest, reopened.results(ticket, timeout=0)))
                    except Exception as error:  # noqa: BLE001
                        errors.append(f"restart {ticket}: {type(error).__name__}: {error}")
                        mismatched.add(ticket)
        finally:
            reopened.close()
        restarts.append(clock() - start)
        for ticket, digest, results in fetched:
            if _results_digest(results) != digest:
                errors.append(f"restart {ticket}: results differ after replay")
                mismatched.add(ticket)
    shutil.rmtree(directory, ignore_errors=True)

    flat_latencies = [value for per_client in latencies for value in per_client]
    attempted = sum(len(plan) for plan in plans)
    failed = (attempted - len(flat_latencies)) + len(mismatched)
    # Distinct cells per client: baseline plus two designs per latency.
    fresh_cells = len(plans) * len(SERVICE_WORKLOADS) * (1 + 2 * len(FIG7_LATENCIES))
    return PassResult(
        wall_s=loop,
        restarts=restarts,
        digest=_digest(digests),
        attempted=attempted,
        failed=failed,
        sweeps=len(flat_latencies),
        accesses=fresh_cells * (SERVICE_MEM_OPS + SERVICE_WARMUP_OPS),
        sweep_latencies=flat_latencies,
        prep_s=prep_s,
        queue_wait_s=queue_wait,
        errors=errors,
    )


PASSES: Dict[str, Callable[[int, Path, int], PassResult]] = {
    "fig6-cold": fig6_pass,
    "frontier-cold": frontier_pass,
    "service-loop": service_pass,
}
