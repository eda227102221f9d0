"""Priced fig 6/7 cells equal the simulated ones, field for field.

The fabric prices every ``workload_run`` cell of a sweep from one guarded
simulation at zero MAC latency per (workload, design): a cell at latency L
gets ``cycles(0) + L x (MAC-checked reads)`` and the baseline gets the
zero-latency run itself (:class:`~repro.analysis.perf_eval.LatencyBasis`).
:func:`~repro.analysis.perf_eval.run_workload` stays the simulated
reference; these tests compare the two over every workload, both
designs and the Fig 7 latencies, demand-paged as fig 6 runs, so the
timed window takes page faults whose kernel reads and aborted walks must
not be priced. A basis whose run corrects or fails a PTE check raises
instead of pricing.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.perf_eval import (
    boot_workload,
    figure6_jobs,
    measure_basis,
    run_figure7,
    run_latency_basis,
    run_workload,
)
from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.common.errors import SimulationError
from repro.cpu.workloads import WORKLOADS, get_workload
from repro.harness.parallel import ResultCache, SweepJournal, last_run_stats, run_jobs
from repro.mmu.walker import PTEIntegrityException

MEM_OPS = 600
WARMUP_OPS = 360
SEED = 1
LATENCIES = (0, 5, 10, 15, 20)
DESIGNS = {"ptguard": PTGuardConfig, "optimized": optimized_ptguard_config}
NAMES = [profile.name for profile in WORKLOADS]


@functools.lru_cache(maxsize=None)
def simulated(workload: str, design: str, latency: int):
    """The reference: one direct simulation (design None = baseline)."""
    config = None if design is None else DESIGNS[design](mac_latency_cycles=latency)
    return run_workload(get_workload(workload), config, MEM_OPS, WARMUP_OPS, SEED)


@pytest.mark.parametrize("workload", NAMES)
def test_basis_prices_every_latency_and_the_baseline(workload):
    baseline = simulated(workload, None, 0)
    for design, make_config in DESIGNS.items():
        basis = run_latency_basis(
            get_workload(workload), make_config(), MEM_OPS, WARMUP_OPS, SEED
        )
        assert basis.result == baseline, f"{design}: zero latency is the baseline"
        for latency in LATENCIES:
            assert basis.price(latency) == simulated(workload, design, latency), (
                f"{workload}/{design}@{latency}cy"
            )


def test_cold_fig6_and_fig7_run_fifty_bases_and_price_the_rest(tmp_path, monkeypatch):
    appends = []
    append = SweepJournal.append

    def counted_append(journal, *records):
        appends.append(records)
        return append(journal, *records)

    monkeypatch.setattr(SweepJournal, "append", counted_append)
    cache = ResultCache(tmp_path)
    fig6 = figure6_jobs(NAMES, MEM_OPS, WARMUP_OPS, mac_latency=10, seed=SEED)
    results = run_jobs(fig6, workers=1, cache=cache)
    stats = last_run_stats()
    assert (stats.fresh, stats.cached, stats.priced) == (50, 0, 75)
    for job, result in zip(fig6, results):
        config = job.params["config"]
        design = None if config is None else (
            "optimized" if config["identifier_enabled"] else "ptguard"
        )
        assert result == simulated(job.params["workload"], design, 10), job.label

    # One append (one fsync) per simulation, between the sweep's start
    # and completion: each carries the cells its basis priced.
    assert len(appends) == 1 + 50 + 1
    (journal,) = (tmp_path / "journals").glob("*.jsonl")
    records = [r for r in SweepJournal.load(journal) if r["event"] == "job_done"]
    assert len(records) == 75 and all(r["priced"] for r in records)
    assert sorted(r["key"] for r in records) == sorted(job.key() for job in fig6)

    # Fig 7 over every workload simulates nothing after fig 6: its
    # default-latency cells and baselines are cached, the rest priced
    # from the cached bases.
    points = run_figure7(
        NAMES, mem_ops=MEM_OPS, warmup_ops=WARMUP_OPS, seed=SEED, workers=1, cache=cache
    )
    stats = last_run_stats()
    assert (stats.fresh, stats.cached, stats.priced) == (0, 75, 150)
    assert points == run_figure7(
        NAMES, mem_ops=MEM_OPS, warmup_ops=WARMUP_OPS, seed=SEED, workers=1
    )


def test_baseline_without_a_guarded_cell_still_simulates():
    jobs = figure6_jobs(["xz"], MEM_OPS, WARMUP_OPS, seed=SEED)[:1]
    assert run_jobs(jobs, workers=1) == [simulated("xz", None, 0)]
    stats = last_run_stats()
    assert (stats.fresh, stats.priced) == (1, 0)


def _corrupt_first_walk_read(workload: str, config: PTGuardConfig):
    """Boot ``workload``, warm it up, then flip one bit of the first PTE
    line a walk reads from DRAM in the timed window."""
    system, core, trace = boot_workload(get_workload(workload), config, SEED)
    core.run(trace, mem_ops=0, warmup_ops=WARMUP_OPS)
    fired = []

    def hook(address, is_pte):
        if is_pte and not fired:
            fired.append(address)
            system.memory.flip_bit(address, 13)

    system.controller.install_read_fault_hook(hook)
    return system, core, trace, fired


def test_failed_pte_check_in_the_timed_window_raises():
    system, core, trace, fired = _corrupt_first_walk_read(
        "xalancbmk", PTGuardConfig(mac_latency_cycles=0)
    )
    with pytest.raises(PTEIntegrityException):
        measure_basis(system, core, trace, MEM_OPS, 0)
    assert fired


def test_corrected_pte_line_in_the_timed_window_raises():
    config = PTGuardConfig(mac_latency_cycles=0, correction_enabled=True)
    system, core, trace, fired = _corrupt_first_walk_read("xalancbmk", config)
    with pytest.raises(SimulationError, match="correction_writebacks"):
        measure_basis(system, core, trace, MEM_OPS, 0)
    assert fired
