"""Service under flood and under crashes: throughput, fast-fail, recovery.

A seeded burst of real fig6-cell sweeps from three tenants floods a
small admission queue on the live (threaded, multi-dispatcher) service.
The bench measures what the overload machinery costs and guarantees:
how many submissions per second complete under sustained flood, how
fast a refused submission learns its fate (shed/reject p95 — the
"fail fast, never hang" half of the contract), and that every accepted
submission's results are byte-identical to a quiet serial run.

The recovery bench prices the durability layer: WAL append overhead
(fsync-per-record vs batched), replay time as a function of WAL length,
and — after a seed-addressed mid-sweep crash — that a restarted service
recomputes exactly the missing cells, never the cached ones.

Both merge their sections into machine-readable ``BENCH_service.json``
at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile
import time

from conftest import scale

from repro.analysis.perf_eval import figure6_jobs
from repro.common.errors import AdmissionRejected
from repro.harness.parallel import last_run_stats, run_jobs
from repro.service import (
    FabricService,
    ServiceChaosPolicy,
    ServiceConfig,
    StateLog,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
WORKLOADS = ["povray", "xz", "mcf", "lbm"]
TENANTS = ["alice", "bob", "carol"]
SUBMISSIONS = 24
QUEUE_DEPTH = 4


def _write_bench(update):
    """Merge ``update`` into BENCH_service.json, preserving other sections."""
    path = REPO_ROOT / "BENCH_service.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            payload = {}
    except (OSError, ValueError):
        payload = {}
    payload.update(update)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _submission_jobs(index: int, mem_ops: int, warmup: int):
    """One small, unique fig6 sweep per submission (3 config cells)."""
    workload = WORKLOADS[index % len(WORKLOADS)]
    # Distinct mem_ops per submission keeps every sweep's cells unique,
    # so the flood measures real execution, not cross-submission cache hits.
    return figure6_jobs([workload], mem_ops + index, warmup)


def test_bench_service_flood(once, emit):
    mem_ops = int(4_000 * scale())
    warmup = int(2_000 * scale())
    cache_root = pathlib.Path(tempfile.mkdtemp(prefix="ptguard-bench-svc-"))

    def experiment():
        config = ServiceConfig(
            queue_depth=QUEUE_DEPTH,
            dispatchers=2,
            rate_capacity=float(SUBMISSIONS),
            rate_refill_per_s=float(SUBMISSIONS),
            backend="threaded",
            workers=2,
        )
        service = FabricService(cache_root=cache_root, config=config)
        tickets = {}
        rejected_at_submit = 0
        flood_start = time.perf_counter()
        try:
            for index in range(SUBMISSIONS):
                tenant = TENANTS[index % len(TENANTS)]
                try:
                    tickets[index] = service.submit_sweep(
                        jobs=_submission_jobs(index, mem_ops, warmup),
                        tenant=tenant,
                    )
                except AdmissionRejected:
                    rejected_at_submit += 1
            flood_sec = time.perf_counter() - flood_start

            completed, shed = [], 0
            for index, ticket in tickets.items():
                try:
                    service.results(ticket, timeout=600)
                    completed.append(index)
                except AdmissionRejected as exc:
                    assert exc.reason == "shed", exc.reason
                    shed += 1
            drain_sec = time.perf_counter() - flood_start

            # Byte-identity spot check: the three accepted submissions
            # spread across tenants vs quiet serial runs of their jobs.
            sample = completed[:: max(1, len(completed) // 3)][:3]
            identical = all(
                service.results(tickets[index])
                == run_jobs(_submission_jobs(index, mem_ops, warmup))
                for index in sample
            )
            health = service.health()
        finally:
            service.close()
        return {
            "flood_sec": flood_sec,
            "drain_sec": drain_sec,
            "completed": len(completed),
            "shed": shed,
            "rejected_at_submit": rejected_at_submit,
            "identical": identical,
            "sampled": len(sample),
            "counters": health["counters"],
            "latency": health["latency"],
        }

    try:
        result = once(experiment)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    throughput = result["completed"] / result["drain_sec"]
    reject_p95 = result["latency"]["reject"]["p95"]
    queue_p95 = result["latency"]["queue_wait"]["p95"]
    run_p95 = result["latency"]["run"]["p95"]
    emit(
        "\n".join(
            [
                f"Service flood — {SUBMISSIONS} fig6-cell sweeps from "
                f"{len(TENANTS)} tenants into a depth-{QUEUE_DEPTH} queue "
                f"(REPRO_SCALE={scale():g})",
                "",
                f"{'accepted throughput':<28} {throughput:>8.2f} sweeps/s",
                f"{'completed / shed / rejected':<28} "
                f"{result['completed']:>3} / {result['shed']} / "
                f"{result['rejected_at_submit']}",
                f"{'submit burst (all 24)':<28} {result['flood_sec']:>8.3f} s",
                f"{'shed/reject fast-fail p95':<28} {reject_p95 * 1e3:>8.3f} ms",
                f"{'queue wait p95':<28} {queue_p95:>8.3f} s",
                f"{'sweep run p95':<28} {run_p95:>8.3f} s",
                "",
                f"accepted results byte-identical to serial "
                f"({result['sampled']} sampled): {result['identical']}",
            ]
        )
    )

    payload = {
        "repro_scale": scale(),
        "submissions": SUBMISSIONS,
        "queue_depth": QUEUE_DEPTH,
        "tenants": TENANTS,
        "mem_ops": mem_ops,
        "completed": result["completed"],
        "shed": result["shed"],
        "rejected_at_submit": result["rejected_at_submit"],
        "accepted_throughput_sweeps_per_s": throughput,
        "flood_submit_sec": result["flood_sec"],
        "drain_sec": result["drain_sec"],
        "shed_reject_p95_s": reject_p95,
        "queue_wait_p95_s": queue_p95,
        "run_p95_s": run_p95,
        "counters": result["counters"],
        "sampled_identical": result["identical"],
    }
    _write_bench(payload)

    # Host-independent properties (always asserted).
    assert result["identical"], "an accepted sweep diverged from serial"
    assert result["completed"] >= 1, "the flood starved every submission"
    assert (
        result["completed"] + result["shed"] + result["rejected_at_submit"]
        == SUBMISSIONS
    ), "every submission must resolve: done, shed or typed-rejected"
    assert result["counters"]["completed"] == result["completed"]


# -- durability & crash recovery ----------------------------------------------

WAL_APPENDS = 256
REPLAY_LENGTHS = [100, 1000]


class _SimulatedKill(BaseException):
    """In-process stand-in for SIGKILL: unwinds past ``except Exception``."""


def _kill():
    raise _SimulatedKill("crash channel fired")


def _wal_append_us(root):
    log = StateLog(root / "bench-append.wal")
    record = {"type": "accept", "ticket": "s-0001", "tenant": "alice"}
    start = time.perf_counter()
    for index in range(WAL_APPENDS):
        assert log.append(dict(record, n=index))
    elapsed = time.perf_counter() - start
    log.close()
    return elapsed / WAL_APPENDS * 1e6


def _replay_ms(root, length):
    log = StateLog(root / f"bench-r{length}.wal")
    for index in range(length):
        log.append({"type": "accept", "ticket": f"s-{index:04d}", "n": index})
    log.close()
    start = time.perf_counter()
    result = log.replay()
    elapsed = time.perf_counter() - start
    assert len(result.records) == length and result.clean
    return elapsed * 1e3


def test_bench_service_recovery(once, emit):
    mem_ops = int(4_000 * scale())
    warmup = int(2_000 * scale())
    root = pathlib.Path(tempfile.mkdtemp(prefix="ptguard-bench-rec-"))

    def experiment():
        append_us = _wal_append_us(root)
        replay = {str(n): _replay_ms(root, n) for n in REPLAY_LENGTHS}

        # A mid-sweep crash at a seed-addressed cell, then a restart
        # against the same state dir. The content-addressed cache is the
        # exactly-once mechanism: recompute is exactly the missing gap.
        jobs = figure6_jobs(WORKLOADS, mem_ops, warmup)
        chaos = ServiceChaosPolicy(seed=7, crash=1.0)
        config = ServiceConfig(backend="threaded", workers=2, dispatchers=1)
        service = FabricService(
            cache_root=root / "cache",
            config=config,
            state_dir=root / "state",
            chaos=chaos,
            crash_fn=_kill,
            start=False,
        )
        ticket = service.submit_sweep(jobs=jobs, tenant="alice")
        point = chaos.crash_point(ticket, len(jobs))
        try:
            service.drain()
        except _SimulatedKill:
            pass

        recover_start = time.perf_counter()
        revived = FabricService(
            cache_root=root / "cache",
            config=config,
            state_dir=root / "state",
            start=False,
        )
        recover_ms = (time.perf_counter() - recover_start) * 1e3
        try:
            revived.drain()
            results = revived.results(ticket)
            stats = last_run_stats()
        finally:
            revived.close()
        assert results == run_jobs(jobs, workers=1)
        return {
            "append_us": append_us,
            "replay_ms": replay,
            "cells_total": len(jobs),
            "cells_cached_at_crash": stats.cached,
            "cells_recomputed": stats.fresh,
            "crash_point": point,
            "recover_ms": recover_ms,
        }

    try:
        result = once(experiment)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    emit(
        "\n".join(
            [
                f"Service durability — WAL append, replay, crash recovery "
                f"(REPRO_SCALE={scale():g})",
                "",
                f"{'WAL append (fsync each)':<28} "
                f"{result['append_us']:>8.1f} us/record",
                *(
                    f"{f'replay {length} records':<28} "
                    f"{result['replay_ms'][str(length)]:>8.2f} ms"
                    for length in REPLAY_LENGTHS
                ),
                f"{'restart (replay + re-adopt)':<28} "
                f"{result['recover_ms']:>8.2f} ms",
                "",
                f"crash at cell {result['crash_point']} of "
                f"{result['cells_total']}: adopted "
                f"{result['cells_cached_at_crash']} cached cells, "
                f"recomputed {result['cells_recomputed']}",
            ]
        )
    )

    _write_bench(
        {
            "recovery": {
                "repro_scale": scale(),
                "wal_append_us": result["append_us"],
                "wal_replay_ms": result["replay_ms"],
                "recover_ms": result["recover_ms"],
                "cells_total": result["cells_total"],
                "cells_cached_at_crash": result["cells_cached_at_crash"],
                "cells_recomputed": result["cells_recomputed"],
            }
        }
    )

    # Host-independent properties (always asserted).
    assert result["cells_cached_at_crash"] == result["crash_point"]
    assert (
        result["cells_recomputed"]
        == result["cells_total"] - result["crash_point"]
    ), "recovery must recompute exactly the missing cells"
