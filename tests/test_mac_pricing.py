"""Priced fig 6/7 cells equal the simulated ones, field for field.

The fabric prices every ``workload_run`` cell of a sweep from one
PT-Guard simulation at zero MAC latency per run (workload, ops, seed):
a cell at latency L gets ``cycles(0) + L x (reads its design
MAC-checks)`` and the baseline gets the zero-latency run itself
(:class:`~repro.analysis.perf_eval.LatencyBasis`). The run also counts
the reads Optimized PT-Guard would check
(:meth:`~repro.core.guard.PTGuard.optimized_mac_checked`), so it
prices both designs. :func:`~repro.analysis.perf_eval.run_workload`
stays the simulated reference; these tests compare the two over every
workload, both designs and the Fig 7 latencies, demand-paged as fig 6
runs, so the timed window takes page faults whose kernel reads and
aborted walks must not be priced. A twin-machine test holds the
Optimized count rule to a real Optimized machine on the line classes no
fig 6 workload reads in its timed window. A basis whose run corrects or
fails a PTE check, or reads a line the rule cannot place, raises
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
    workload_job,
)
from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.common.errors import SimulationError
from repro.core import pattern
from repro.cpu.core import _store_payload
from repro.cpu.workloads import WORKLOADS, get_workload
from repro.harness.parallel import ResultCache, SweepJournal, last_run_stats, run_jobs
from repro.harness.system import build_system
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


def _design(config):
    if config is None:
        return None
    return "optimized" if config["identifier_enabled"] else "ptguard"


@pytest.mark.parametrize("workload", NAMES)
def test_basis_prices_every_latency_and_the_baseline(workload):
    basis = run_latency_basis(get_workload(workload), MEM_OPS, WARMUP_OPS, SEED)
    assert basis.result == simulated(workload, None, 0), "zero latency is the baseline"
    assert basis.price(None) == basis.result
    for design, make_config in DESIGNS.items():
        for latency in LATENCIES:
            assert basis.price(make_config(mac_latency_cycles=latency)) == simulated(
                workload, design, latency
            ), f"{workload}/{design}@{latency}cy"


def test_a_basis_prices_no_other_design():
    basis = run_latency_basis(get_workload("xz"), MEM_OPS, WARMUP_OPS, SEED)
    with pytest.raises(ValueError, match="does not price"):
        basis.price(PTGuardConfig(ctb_entries=8))


def test_cold_fig6_and_fig7_run_one_basis_per_workload_and_price_the_rest(
    tmp_path, monkeypatch
):
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
    assert (stats.fresh, stats.cached, stats.priced) == (25, 0, 75)
    for job, result in zip(fig6, results):
        design = _design(job.params["config"])
        assert result == simulated(job.params["workload"], design, 10), job.label

    # One append (one fsync) per simulation, between the sweep's start
    # and completion: each carries the three cells its basis priced.
    assert len(appends) == 1 + 25 + 1
    assert all(len(records) == 3 for records in appends[1:-1])
    (journal,) = (tmp_path / "journals").glob("*.jsonl")
    records = [r for r in SweepJournal.load(journal) if r["event"] == "job_done"]
    assert len(records) == 75 and all(r["priced"] for r in records)
    assert sorted(r["key"] for r in records) == sorted(job.key() for job in fig6)
    # Each record names the basis that priced it: one per workload.
    bases = {}
    for record in records:
        bases.setdefault(record["basis"], set()).add(record["label"].split("/")[1])
    assert sorted(map(len, bases.values())) == [1] * 25
    assert all("backend" not in record for record in records)

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
    assert (stats.fresh, stats.priced) == (1, 1)


def test_another_design_is_simulated(tmp_path):
    config = PTGuardConfig(ctb_entries=8)
    jobs = [
        workload_job("xz", config, MEM_OPS, WARMUP_OPS, SEED, label="xz/ctb8"),
        workload_job("xz", None, MEM_OPS, WARMUP_OPS, SEED, label="xz/baseline"),
    ]
    results = run_jobs(jobs, workers=1, cache=ResultCache(tmp_path))
    assert results == [
        run_workload(get_workload("xz"), config, MEM_OPS, WARMUP_OPS, SEED),
        simulated("xz", None, 0),
    ]
    stats = last_run_stats()
    assert (stats.fresh, stats.priced) == (2, 1)
    (journal,) = (tmp_path / "journals").glob("*.jsonl")
    records = {
        r["label"]: r for r in SweepJournal.load(journal) if r["event"] == "job_done"
    }
    assert records["xz/ctb8"]["backend"] == "inprocess"
    assert "priced" not in records["xz/ctb8"] and "basis" not in records["xz/ctb8"]
    assert records["xz/baseline"]["priced"] and "backend" not in records["xz/baseline"]


# -- the Optimized count rule, on twin machines -------------------------------

#: Lines by class, as functions of the line's address (None: never written).
LINE_CLASSES = {
    "never written": None,
    "written as zero": lambda address: bytes(64),
    "non-zero pattern-matching": lambda address: (
        ((address >> 6) % (1 << 28) << 12 | 0x67).to_bytes(8, "little") * 8
    ),
    # Bits 51:40 clear but not 58:52: only PT-Guard's pattern matches.
    "identifier field set": lambda address: (
        (1 << 52 | (address >> 6) % (1 << 28) << 12 | 0x67).to_bytes(8, "little") * 8
    ),
    "store payload": _store_payload,
}


def _twin_controllers():
    ptguard = build_system(
        ptguard=PTGuardConfig(mac_latency_cycles=0), mac_algorithm="pseudo", seed=SEED
    ).controller
    optimized = build_system(
        ptguard=optimized_ptguard_config(0), mac_algorithm="pseudo", seed=SEED
    ).controller
    assert ptguard.ptguard.identifier == optimized.ptguard.identifier
    ptguard.count_optimized = True
    return ptguard, optimized


@pytest.mark.parametrize("is_pte", [False, True], ids=["data", "walk"])
@pytest.mark.parametrize("line_class", list(LINE_CLASSES))
def test_derived_optimized_count_matches_an_optimized_machine(line_class, is_pte):
    ptguard, optimized = _twin_controllers()
    # Three lines of the class, far above every frame the boot allocated.
    middle = ptguard.dram.config.size_bytes // 2
    addresses = [middle + 4096 * k + 64 * k for k in range(3)]
    make_line = LINE_CLASSES[line_class]
    for address in addresses:
        for controller in (ptguard, optimized):
            if make_line is not None:
                controller.write_access(address, make_line(address))
            controller.read(address, is_pte)
        assert ptguard.mac_checked_reads[2:] == optimized.mac_checked_reads[:2], (
            f"{line_class} at {address:#x}"
        )
    # The classes differ in what they cost, so the twin test is not vacuous.
    if is_pte:
        expected = line_class not in ("never written", "written as zero")
    else:
        expected = line_class == "non-zero pattern-matching"
    assert optimized.mac_checked_reads[is_pte] == (3 if expected else 0)
    assert ptguard.mac_checked_reads[is_pte] == 3


def test_a_data_line_carrying_the_identifier_outside_the_pattern_raises():
    system, core, trace = boot_workload(
        get_workload("xalancbmk"), PTGuardConfig(mac_latency_cycles=0), SEED
    )
    core.run(trace, mem_ops=0, warmup_ops=WARMUP_OPS)
    identifier = system.guard.identifier
    planted = []

    def hook(address, is_pte):
        if not is_pte and not planted:
            planted.append(address)
            value = int.from_bytes(_store_payload(address), "little")
            line = pattern.with_identifier(value, identifier)
            system.dram.write_line(address, line.to_bytes(64, "little"))

    system.controller.install_read_fault_hook(hook)
    with pytest.raises(SimulationError, match="identifier"):
        measure_basis(system, core, trace, MEM_OPS, 0)
    assert planted


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
