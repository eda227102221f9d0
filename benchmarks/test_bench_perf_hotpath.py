"""Hot-path throughput: host-side simulator speed per MAC backend.

Unlike the figure benchmarks (which reproduce *simulated* results), this
one measures the *simulator itself*: end-to-end accesses/sec on a
fig6-style trace-driven run and MAC computations/sec, for each MAC
backend, against the throughput recorded at the growth seed. It guards
the hot-path optimisations (table-driven QARMA, the allocation-free
access loop and the fused batch execution core — ``repro.cpu.batch_core``,
selected by ``REPRO_BATCH``) against regression, and asserts the one
property that makes them safe: batching changes no simulated outcome.

Writes machine-readable ``BENCH_hotpath.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from conftest import scale

from repro.common.config import optimized_ptguard_config
from repro.cpu.workloads import get_workload
from repro.harness.system import build_system

REPO_ROOT = pathlib.Path(__file__).parent.parent
WORKLOAD = "xalancbmk"  # fig6's worst case: memory-intensive, walk-heavy

# Accesses/sec recorded at the growth seed (commit 6cb10eb) on the
# reference container, same workload/op counts as below. These are
# host-machine numbers: the speedup assertions only bind at full scale
# (REPRO_SCALE >= 1), i.e. acceptance runs on comparable hardware.
SEED_BASELINE_ACC_PER_SEC = {
    "pseudo": 25_449.0,
    "blake2": 24_209.0,
    "qarma": 2_105.0,
}

# Accesses/sec recorded by the previous (pre-batching) optimisation pass
# on the reference container — the "current optimised" bar the batched
# core is measured against. Same host caveat as the seed numbers.
PREV_RECORDED_ACC_PER_SEC = {
    "pseudo": 77_719.0,
    "blake2": 88_646.0,
    "qarma": 58_917.0,
}


def _run_workload(mac_algorithm: str, mem_ops: int, warmup_ops: int,
                  batch: int | None = None) -> dict:
    """One fig6-style timed window; returns host + simulated metrics.

    ``batch`` pins ``REPRO_BATCH`` for the run (None = ambient default):
    1 forces the scalar reference loop, >1 the fused batch core.
    """
    previous_batch = os.environ.get("REPRO_BATCH")
    if batch is not None:
        os.environ["REPRO_BATCH"] = str(batch)
    try:
        system = build_system(
            ptguard=optimized_ptguard_config(),
            mac_algorithm=mac_algorithm,
            seed=2023,
        )
        profile = get_workload(WORKLOAD)
        process, trace = system.workload_process(profile, seed=11)
        core = system.new_core(process)
        core.prefault(trace)
        for _ in range(warmup_ops):
            record = trace.next_record()
            core._execute(record.virtual_address, record.is_write)
        guard = system.controller.ptguard
        computations_before = guard.engine.computations
        cycles_before = core.cycles
        instructions_before = core.instructions
        # Time in chunks and report the best chunk rate: shared-container
        # CPU noise only ever slows a chunk down, so max-rate is the
        # stable statistic for "how fast is this code".
        chunks = 4
        chunk_ops = max(1, mem_ops // chunks)
        best_rate = 0.0
        elapsed = 0.0
        for _ in range(chunks):
            start = time.perf_counter()
            core.run(trace, mem_ops=chunk_ops)
            chunk_sec = time.perf_counter() - start
            elapsed += chunk_sec
            best_rate = max(best_rate, chunk_ops / chunk_sec)
        computations = guard.engine.computations - computations_before
        return {
            "mac": mac_algorithm,
            "mem_ops": chunk_ops * chunks,
            "elapsed_sec": elapsed,
            "acc_per_sec": best_rate,
            "mac_computations": computations,
            "mac_computations_per_sec": computations / elapsed,
            # Simulated outcomes — must be invariant under host-side tweaks.
            "cycles": core.cycles - cycles_before,
            "instructions": core.instructions - instructions_before,
        }
    finally:
        if batch is not None:
            if previous_batch is None:
                os.environ.pop("REPRO_BATCH", None)
            else:
                os.environ["REPRO_BATCH"] = previous_batch


def _run_walk_heavy(batch: int, mem_ops: int) -> dict:
    """One timed window on the synthetic TLB-thrashing profile.

    qarma backend: every PTE-line read at the DRAM boundary pays a real
    MAC check, so the run isolates exactly what the batched walk path
    accelerates — bulk-primed tags vs ~100 us scalar
    tags. Timed as one window (not chunks) because the bulk-tag priming
    pass runs once per ``core.run``; noise is handled by best-of-N in
    the caller.
    """
    previous_batch = os.environ.get("REPRO_BATCH")
    os.environ["REPRO_BATCH"] = str(batch)
    try:
        system = build_system(
            ptguard=optimized_ptguard_config(), mac_algorithm="qarma", seed=2023
        )
        profile = get_workload("walkheavy")
        process, trace = system.workload_process(profile, seed=11)
        core = system.new_core(process)
        core.prefault(trace)
        guard = system.controller.ptguard
        start = time.perf_counter()
        core.run(trace, mem_ops=mem_ops)
        elapsed = time.perf_counter() - start
        return {
            "mem_ops": mem_ops,
            "elapsed_sec": elapsed,
            "acc_per_sec": mem_ops / elapsed,
            "outcomes": {
                "cycles": core.cycles,
                "instructions": core.instructions,
                "mac_computations": guard.engine.computations,
                "walker": core.walker.stats.as_dict(),
                "tlb": core.walker.tlb.stats.as_dict(),
                "guard": guard.stats.as_dict(),
            },
        }
    finally:
        if previous_batch is None:
            os.environ.pop("REPRO_BATCH", None)
        else:
            os.environ["REPRO_BATCH"] = previous_batch


def _walk_heavy_best_of(batch: int, mem_ops: int, repeats: int = 3) -> dict:
    """Best-of-N fresh runs; every repeat must agree on every outcome."""
    runs = [_run_walk_heavy(batch, mem_ops) for _ in range(repeats)]
    for run in runs[1:]:
        assert run["outcomes"] == runs[0]["outcomes"], (
            "walk-heavy run is not deterministic across repeats"
        )
    best = min(runs, key=lambda run: run["elapsed_sec"])
    return best


def _qarma_table_speedup(blocks: int) -> dict:
    """Single-block Qarma128 encrypt: table-driven vs reference."""
    from repro.crypto.qarma import Qarma128

    key = bytes(range(32))
    fast = Qarma128(key)
    slow = Qarma128(key, use_tables=False)
    plain, tweak = 0x0123_4567_89AB_CDEF_0011_2233_4455_6677, 0x42

    start = time.perf_counter()
    for i in range(blocks):
        fast.encrypt(plain ^ i, tweak)
    fast_sec = time.perf_counter() - start

    slow_blocks = max(1, blocks // 16)
    start = time.perf_counter()
    for i in range(slow_blocks):
        slow.encrypt(plain ^ i, tweak)
    slow_sec = time.perf_counter() - start

    fast_rate = blocks / fast_sec
    slow_rate = slow_blocks / slow_sec
    return {
        "table_blocks_per_sec": fast_rate,
        "reference_blocks_per_sec": slow_rate,
        "speedup": fast_rate / slow_rate,
    }


def test_bench_perf_hotpath(once, emit):
    mem_ops = int(32_000 * scale())
    warmup = int(2_000 * scale())

    def experiment():
        # Headline rows use the fused batch core (the shipping default);
        # scalar rows force batch=1 to quantify the batching win and to
        # cross-check that every simulated outcome is bit-identical.
        rows = [
            _run_workload(mac, mem_ops, warmup)
            for mac in ("pseudo", "blake2", "qarma")
        ]
        scalar_rows = [
            _run_workload(mac, mem_ops, warmup, batch=1)
            for mac in ("pseudo", "blake2", "qarma")
        ]
        qarma = _qarma_table_speedup(blocks=max(256, int(4096 * scale())))
        walk_ops = max(500, int(10_000 * scale()))
        walk_batched = _walk_heavy_best_of(4096, walk_ops)
        walk_scalar = _walk_heavy_best_of(1, walk_ops)
        return rows, scalar_rows, qarma, walk_batched, walk_scalar

    rows, scalar_rows, qarma, walk_batched, walk_scalar = once(experiment)
    walk_speedup = walk_batched["acc_per_sec"] / walk_scalar["acc_per_sec"]
    walk_outcomes_identical = (
        walk_batched["outcomes"] == walk_scalar["outcomes"]
    )
    by_mac = {row["mac"]: row for row in rows}
    scalar_by_mac = {row["mac"]: row for row in scalar_rows}
    blake2 = by_mac["blake2"]

    speedups = {
        row["mac"]: row["acc_per_sec"] / SEED_BASELINE_ACC_PER_SEC[row["mac"]]
        for row in rows
    }
    batch_speedups = {
        mac: by_mac[mac]["acc_per_sec"] / scalar_by_mac[mac]["acc_per_sec"]
        for mac in by_mac
    }
    # Batched and scalar runs must agree on every simulated quantity.
    invariant_keys = ("cycles", "instructions", "mac_computations")
    batch_outcomes_identical = all(
        by_mac[mac][key] == scalar_by_mac[mac][key]
        for mac in by_mac
        for key in invariant_keys
    )

    lines = [
        f"Hot-path throughput — {WORKLOAD}, {mem_ops} mem ops "
        f"(REPRO_SCALE={scale():g})",
        "",
        f"{'MAC':<8} {'acc/s':>10} {'scalar':>10} {'batch':>7} "
        f"{'seed acc/s':>11} {'speedup':>8} {'MACs/s':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['mac']:<8} {row['acc_per_sec']:>10,.0f} "
            f"{scalar_by_mac[row['mac']]['acc_per_sec']:>10,.0f} "
            f"{batch_speedups[row['mac']]:>6.2f}x "
            f"{SEED_BASELINE_ACC_PER_SEC[row['mac']]:>11,.0f} "
            f"{speedups[row['mac']]:>7.2f}x "
            f"{row['mac_computations_per_sec']:>10,.0f}"
        )
    lines += [
        "",
        f"batched vs scalar outcomes bit-identical: {batch_outcomes_identical}",
        "",
        f"qarma/blake2 host-cost ratio "
        f"{blake2['acc_per_sec'] / by_mac['qarma']['acc_per_sec']:.2f}x "
        f"(seed {SEED_BASELINE_ACC_PER_SEC['blake2'] / SEED_BASELINE_ACC_PER_SEC['qarma']:.1f}x)",
        f"Qarma128 table-driven vs reference: {qarma['speedup']:.1f}x "
        f"({qarma['table_blocks_per_sec']:,.0f} vs "
        f"{qarma['reference_blocks_per_sec']:,.0f} blocks/s)",
        "",
        f"walk-heavy (walkheavy/qarma, "
        f"{walk_batched['outcomes']['walker'].get('walks', 0):,} walks, "
        f"{walk_batched['outcomes']['guard'].get('pte_reads', 0):,} PTE DRAM reads): "
        f"batched {walk_batched['acc_per_sec']:,.0f} acc/s vs "
        f"scalar {walk_scalar['acc_per_sec']:,.0f} acc/s = {walk_speedup:.2f}x, "
        f"outcomes identical: {walk_outcomes_identical}",
    ]
    emit("\n".join(lines))

    payload = {
        "workload": WORKLOAD,
        "mem_ops": mem_ops,
        "repro_scale": scale(),
        "seed_baseline_acc_per_sec": SEED_BASELINE_ACC_PER_SEC,
        "prev_recorded_acc_per_sec": PREV_RECORDED_ACC_PER_SEC,
        "optimised": {
            row["mac"]: {
                "acc_per_sec": row["acc_per_sec"],
                "mac_computations_per_sec": row["mac_computations_per_sec"],
                "speedup_vs_seed": speedups[row["mac"]],
            }
            for row in rows
        },
        "batched": {
            "default_batch_size": 4096,
            "scalar_acc_per_sec": {
                mac: scalar_by_mac[mac]["acc_per_sec"] for mac in scalar_by_mac
            },
            "batched_vs_scalar_speedup": batch_speedups,
            "outcomes_identical": batch_outcomes_identical,
        },
        "qarma_table": qarma,
        "walk_heavy": {
            "workload": "walkheavy",
            "mac": "qarma",
            "mem_ops": walk_batched["mem_ops"],
            "batched_acc_per_sec": walk_batched["acc_per_sec"],
            "scalar_acc_per_sec": walk_scalar["acc_per_sec"],
            "batched_vs_scalar_speedup": walk_speedup,
            "walks": walk_batched["outcomes"]["walker"].get("walks"),
            "pte_dram_reads": walk_batched["outcomes"]["guard"].get("pte_reads"),
            "outcomes_identical": walk_outcomes_identical,
        },
    }
    (REPO_ROOT / "BENCH_hotpath.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    # Host-independent properties (always asserted).
    assert batch_outcomes_identical, "batching changed a simulated outcome"
    assert walk_outcomes_identical, (
        "walk-heavy batching changed a simulated outcome"
    )
    assert qarma["speedup"] >= 8.0, "table-driven QARMA lost its edge"
    # QARMA used to cost ~11x blake2 end-to-end; must stay within ~10x.
    assert blake2["acc_per_sec"] / by_mac["qarma"]["acc_per_sec"] <= 10.0
    # Absolute speedup vs the recorded seed numbers is host-dependent;
    # bind it only for full-scale runs (acceptance hardware).
    if scale() >= 1.0:
        assert speedups["blake2"] >= 3.0, (
            f"end-to-end blake2 speedup {speedups['blake2']:.2f}x < 3x seed"
        )
        assert speedups["qarma"] >= 10.0, (
            f"end-to-end qarma speedup {speedups['qarma']:.2f}x < 10x seed"
        )
        prev_ratio = (
            by_mac["qarma"]["acc_per_sec"] / PREV_RECORDED_ACC_PER_SEC["qarma"]
        )
        assert prev_ratio >= 1.5, (
            f"batched qarma only {prev_ratio:.2f}x the previous recorded "
            "optimised throughput"
        )
        assert walk_speedup >= 2.5, (
            f"walk-heavy batched-vs-scalar speedup {walk_speedup:.2f}x < 2.5x"
        )
