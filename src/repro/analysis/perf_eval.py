"""Performance evaluation (paper Section IV-H, V-C/V-D; Figures 6 and 7).

Runs each workload trace on the simulated machine three ways —
unprotected baseline, PT-Guard, Optimized PT-Guard — and reports
normalized IPC and LLC MPKI per workload (Fig 6), plus the MAC-latency
sensitivity sweep over {5, 10, 15, 20} cycles for average and worst case
(Fig 7).

Timing runs use the ``pseudo`` MAC: tag *values* never affect timing
(only pattern/identifier matches do), and it keeps multi-million-access
simulations tractable — see :class:`repro.crypto.mac.PseudoLineMAC`.

The sweeps emit one ``workload_run`` job per cell, but the fabric
simulates only one :class:`LatencyBasis` per (workload, design): a run's
cycles are affine in the MAC latency and its zero-latency run is the
baseline, so every latency and the baseline are priced from it
(:func:`repro.harness.parallel.run_jobs`). :func:`run_workload` is the
simulated reference the pricing is tested against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.common.errors import SimulationError
from repro.cpu.core import CoreResult, InOrderCore
from repro.cpu.trace import TraceGenerator
from repro.cpu.workloads import WORKLOADS, WorkloadProfile, get_workload
from repro.harness import snapshot as boot_snapshot
from repro.harness.parallel import ResultCache, SimJob, guard_config_params, run_jobs
from repro.harness.system import COLD_BASE, HOT_BASE, System, build_system


@dataclass
class Figure6Row:
    """One workload's Fig-6 datapoint."""

    workload: str
    suite: str
    target_mpki: float
    measured_mpki: float
    baseline_ipc: float
    ptguard_ipc: float
    optimized_ipc: Optional[float] = None

    @property
    def normalized_ipc(self) -> float:
        """IPC / IPC_b for PT-Guard (the Fig-6 top panel)."""
        return self.ptguard_ipc / self.baseline_ipc if self.baseline_ipc else 0.0

    @property
    def slowdown_percent(self) -> float:
        return (self.baseline_ipc / self.ptguard_ipc - 1.0) * 100.0 if self.ptguard_ipc else 0.0

    @property
    def optimized_slowdown_percent(self) -> Optional[float]:
        if self.optimized_ipc is None or not self.optimized_ipc:
            return None
        return (self.baseline_ipc / self.optimized_ipc - 1.0) * 100.0


def geometric_mean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def boot_workload(
    profile: WorkloadProfile,
    guard_config: Optional[PTGuardConfig],
    seed: int = 1,
    prefault: bool = False,
    mac_algorithm: str = "pseudo",
) -> Tuple[System, InOrderCore, TraceGenerator]:
    """The machine, core and trace one :func:`run_workload` call runs.

    Booting — build machine, map regions, (optionally) prefault — is
    identical for every call sharing ``(profile, config-sans-latency,
    seed, prefault, mac_algorithm)``, so it goes through the boot
    snapshot layer (:mod:`repro.harness.snapshot`): the first such call
    boots cold and is snapshotted; later calls deep-restore a private
    copy. ``mac_latency_cycles`` stays out of the snapshot key because
    the guard reads it per access from ``guard.config``, which is
    re-pointed at the caller's real config after restore — that is what
    lets every latency of a (workload, design) share one snapshot.
    Prefault uses a throwaway core: it only drives
    ``kernel.handle_page_fault``, so machine state is identical to
    faulting through the measurement core.
    """

    def boot():
        system = build_system(
            ptguard=guard_config, mac_algorithm=mac_algorithm, seed=seed
        )
        process, trace = system.workload_process(profile, seed=seed)
        if prefault:
            system.new_core(process).prefault(trace)
        return system, process.pid

    config_params = guard_config_params(guard_config)
    if config_params is not None:
        config_params = dict(config_params)
        del config_params["mac_latency_cycles"]
    system, pid = boot_snapshot.cached_boot(
        "workload_run",
        {
            "workload": asdict(profile),
            "config": config_params,
            "seed": seed,
            "prefault": prefault,
            "mac_algorithm": mac_algorithm,
        },
        boot,
    )
    if system.guard is not None:
        system.guard.config = guard_config
    process = system.kernel.processes[pid]
    trace = TraceGenerator(profile, hot_base=HOT_BASE, cold_base=COLD_BASE, seed=seed)
    return system, system.new_core(process), trace


def run_workload(
    profile: WorkloadProfile,
    guard_config: Optional[PTGuardConfig],
    mem_ops: int = 20_000,
    warmup_ops: int = 12_000,
    seed: int = 1,
    prefault: bool = False,
    mac_algorithm: str = "pseudo",
) -> CoreResult:
    """Simulate one workload on one machine configuration.

    With ``prefault=False`` (default) pages fault in on first touch —
    mostly during the untimed warmup, exactly like the paper's
    KVM-fast-forward methodology; faults are OS work outside the timed
    window either way, and the baseline/guarded runs see identical
    streams, so slowdown ratios are unaffected while runs start ~2s
    faster on large-footprint workloads.

    The result is a pure function of the arguments (a fresh system is
    booted per call, see :func:`boot_workload`). This is the simulated
    reference: the fig 6/7 sweeps price their cells from a
    :class:`LatencyBasis` instead, and ``tests/test_mac_pricing.py``
    holds the two equal.
    """
    _, core, trace = boot_workload(profile, guard_config, seed, prefault, mac_algorithm)
    return core.run(trace, mem_ops=mem_ops, warmup_ops=warmup_ops)


#: Guard and controller counters of events whose cost is not affine in
#: the MAC latency (a correction's write-back, a CTB overflow, a rekey
#: sweep, a failed PTE check). A basis run that records one cannot
#: price its latencies.
_UNPRICEABLE_EVENTS = (
    ("controller", "correction_writebacks"),
    ("controller", "ctb_overflows"),
    ("controller", "pte_check_failures"),
    ("guard", "rekeys"),
)


@dataclass(frozen=True)
class LatencyBasis:
    """A guarded run at ``mac_latency_cycles = 0`` that prices every latency.

    The guard adds either 0 or ``mac_latency_cycles`` to a DRAM read, the
    in-order core sums read latencies into its stalls, and DRAM timing
    ignores the cycle when no mitigation is active. So the same machine
    at latency L runs ``cycles(0) + L * (mac_data_reads +
    mac_walk_reads)`` cycles, and every other :class:`CoreResult` field
    is unchanged. At L = 0 the guard changes no timing at all, so
    ``result`` is also the unprotected baseline of the same run.
    """

    result: CoreResult
    #: MAC-checked LLC-miss reads of the timed window (loads and
    #: write-allocate fetches).
    mac_data_reads: int
    #: MAC-checked page-walk reads of the timed window's completed walks.
    mac_walk_reads: int

    def price(self, mac_latency: int) -> CoreResult:
        """The :class:`CoreResult` of the same run at ``mac_latency``."""
        extra = mac_latency * (self.mac_data_reads + self.mac_walk_reads)
        return replace(self.result, cycles=self.result.cycles + extra)


def measure_basis(
    system: System,
    core: InOrderCore,
    trace: TraceGenerator,
    mem_ops: int,
    warmup_ops: int,
) -> LatencyBasis:
    """Run ``core`` over ``trace`` and return the run as a :class:`LatencyBasis`.

    The same run as ``core.run(trace, mem_ops, warmup_ops)``. Raises
    :class:`SimulationError` when the timed window recorded an event
    whose cost is not affine in the MAC latency: ``workload_run``
    machines have no mitigation and no fault injection, so one means
    the machine is not the one pricing was derived for.
    """
    # Warm up first, so the event check sees the timed window alone.
    core.run(trace, mem_ops=0, warmup_ops=warmup_ops)
    sources = {"controller": system.controller.stats, "guard": system.guard.stats}
    before = [sources[owner].get(name) for owner, name in _UNPRICEABLE_EVENTS]
    result = core.run(trace, mem_ops=mem_ops)
    for (owner, name), start in zip(_UNPRICEABLE_EVENTS, before):
        if sources[owner].get(name) != start:
            raise SimulationError(
                f"latency basis recorded {owner} {name}: its cycles are "
                "not affine in the MAC latency, so it cannot price one"
            )
    data_reads, walk_reads = core.mac_checked_reads
    return LatencyBasis(result, data_reads, walk_reads)


def run_latency_basis(
    profile: WorkloadProfile,
    guard_config: PTGuardConfig,
    mem_ops: int = 20_000,
    warmup_ops: int = 12_000,
    seed: int = 1,
    prefault: bool = False,
    mac_algorithm: str = "pseudo",
) -> LatencyBasis:
    """The :class:`LatencyBasis` of ``run_workload(profile, guard_config, ...)``.

    Simulates the guarded machine once, at ``mac_latency_cycles = 0``;
    ``guard_config``'s own latency is ignored.
    """
    config = replace(guard_config, mac_latency_cycles=0)
    booted = boot_workload(profile, config, seed, prefault, mac_algorithm)
    return measure_basis(*booted, mem_ops=mem_ops, warmup_ops=warmup_ops)


def workload_job(
    workload: str,
    guard_config: Optional[PTGuardConfig],
    mem_ops: int,
    warmup_ops: int,
    seed: int,
    label: Optional[str] = None,
) -> SimJob:
    """The :class:`SimJob` equivalent of one :func:`run_workload` call.

    The seed lands in the job params — part of the cache key, fixed by
    the emitter — so serial, parallel and cached runs of the same cell
    are bit-identical by construction. ``label`` names the cell in logs,
    journals and failure messages; it never enters the key, so fig 6 and
    fig 7 still share identical cells through the cache.
    """
    return SimJob(
        kind="workload_run",
        params={
            "workload": workload,
            "config": guard_config_params(guard_config),
            "mem_ops": mem_ops,
            "warmup_ops": warmup_ops,
            "seed": seed,
            "mac_algorithm": "pseudo",
        },
        label=label,
    )


def figure6_jobs(
    workload_names: Optional[Sequence[str]] = None,
    mem_ops: int = 20_000,
    warmup_ops: int = 12_000,
    mac_latency: int = 10,
    include_optimized: bool = True,
    seed: int = 1,
) -> List[SimJob]:
    """The Figure-6 job grid, workload-major then configuration.

    Exposed separately from :func:`run_figure6` so callers that reason
    about the cells themselves — the service benchmark submits one
    workload's grid per sweep — build exactly the grid the sweep runs.
    ``run_jobs`` simulates two latency bases per workload (PT-Guard and
    Optimized at zero latency) and prices all three cells from them; with
    ``include_optimized=False`` one basis prices both cells.
    """
    profiles = (
        [get_workload(name) for name in workload_names]
        if workload_names is not None
        else list(WORKLOADS)
    )
    configs: List[Tuple[str, Optional[PTGuardConfig]]] = [
        ("baseline", None),
        ("ptguard", PTGuardConfig(mac_latency_cycles=mac_latency)),
    ]
    if include_optimized:
        configs.append(("optimized", optimized_ptguard_config(mac_latency)))
    return [
        workload_job(
            profile.name,
            config,
            mem_ops,
            warmup_ops,
            seed,
            label=f"fig6/{profile.name}/{design}",
        )
        for profile in profiles
        for design, config in configs
    ]


def run_figure6(
    workload_names: Optional[Sequence[str]] = None,
    mem_ops: int = 20_000,
    warmup_ops: int = 12_000,
    mac_latency: int = 10,
    include_optimized: bool = True,
    seed: int = 1,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Figure6Row]:
    """Figure 6: per-workload normalized IPC + MPKI at the default latency.

    Emits one job per (workload, configuration) cell; ``run_jobs``
    prices the cells from one latency basis per (workload, design), fanned
    out over ``workers`` processes. Results reassemble in job order, so
    the rows — and any report built from them — are identical at every
    worker count.
    """
    profiles = (
        [get_workload(name) for name in workload_names]
        if workload_names is not None
        else list(WORKLOADS)
    )
    jobs = figure6_jobs(
        workload_names, mem_ops, warmup_ops, mac_latency, include_optimized, seed
    )
    results = run_jobs(jobs, workers=workers, cache=cache)
    rows: List[Figure6Row] = []
    stride = 3 if include_optimized else 2
    for position, profile in enumerate(profiles):
        base, guarded = results[position * stride], results[position * stride + 1]
        optimized = results[position * stride + 2] if include_optimized else None
        rows.append(
            Figure6Row(
                workload=profile.name,
                suite=profile.suite,
                target_mpki=profile.target_mpki,
                measured_mpki=base.llc_mpki,
                baseline_ipc=base.ipc,
                ptguard_ipc=guarded.ipc,
                optimized_ipc=optimized.ipc if optimized else None,
            )
        )
    return rows


@dataclass
class Figure7Point:
    """One (design, MAC latency) sweep point: average + worst slowdown."""

    design: str  # "ptguard" | "optimized"
    mac_latency: int
    average_slowdown_percent: float
    worst_slowdown_percent: float
    worst_workload: str


def run_figure7(
    workload_names: Optional[Sequence[str]] = None,
    latencies: Sequence[int] = (5, 10, 15, 20),
    mem_ops: int = 20_000,
    warmup_ops: int = 12_000,
    seed: int = 1,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Figure7Point]:
    """Figure 7: slowdown vs MAC-computation latency, both designs.

    Every cell — baseline or sweep point — is one job, and ``run_jobs``
    prices them all from one latency basis per (workload, design): two
    simulations per workload serve every latency and the baseline. After
    a Figure-6 sweep of the same workloads and sizes, the bases, the
    baselines and the default-latency cells are all in the cache, so the
    sweep simulates nothing.
    """
    profiles = (
        [get_workload(name) for name in workload_names]
        if workload_names is not None
        else list(WORKLOADS)
    )
    designs = ("ptguard", "optimized")
    jobs = [
        workload_job(
            profile.name,
            None,
            mem_ops,
            warmup_ops,
            seed,
            label=f"fig7/{profile.name}/baseline",
        )
        for profile in profiles
    ]
    for design in designs:
        for latency in latencies:
            for profile in profiles:
                config = (
                    PTGuardConfig(mac_latency_cycles=latency)
                    if design == "ptguard"
                    else optimized_ptguard_config(latency)
                )
                jobs.append(
                    workload_job(
                        profile.name,
                        config,
                        mem_ops,
                        warmup_ops,
                        seed,
                        label=f"fig7/{profile.name}/{design}@{latency}cy",
                    )
                )
    results = run_jobs(jobs, workers=workers, cache=cache)
    baselines: Dict[str, CoreResult] = {
        p.name: results[position] for position, p in enumerate(profiles)
    }
    cursor = len(profiles)
    points: List[Figure7Point] = []
    for design in designs:
        for latency in latencies:
            slowdowns = []
            for profile in profiles:
                result = results[cursor]
                cursor += 1
                base_ipc = baselines[profile.name].ipc
                slowdowns.append(
                    (profile.name, (base_ipc / result.ipc - 1.0) * 100.0)
                )
            worst_name, worst = max(slowdowns, key=lambda item: item[1])
            points.append(
                Figure7Point(
                    design=design,
                    mac_latency=latency,
                    average_slowdown_percent=arithmetic_mean([s for _, s in slowdowns]),
                    worst_slowdown_percent=worst,
                    worst_workload=worst_name,
                )
            )
    return points


def summarize_figure6(rows: List[Figure6Row]) -> Dict[str, float]:
    """The headline statistics the paper quotes from Fig 6."""
    slowdowns = [row.slowdown_percent for row in rows]
    normalized = [row.normalized_ipc for row in rows]
    summary = {
        "amean_slowdown_percent": arithmetic_mean(slowdowns),
        "gmean_normalized_ipc": geometric_mean(normalized),
        "worst_slowdown_percent": max(slowdowns) if slowdowns else 0.0,
        "worst_workload_mpki": max((r.measured_mpki for r in rows), default=0.0),
    }
    optimized = [
        row.optimized_slowdown_percent
        for row in rows
        if row.optimized_slowdown_percent is not None
    ]
    if optimized:
        summary["optimized_amean_slowdown_percent"] = arithmetic_mean(optimized)
        summary["optimized_worst_slowdown_percent"] = max(optimized)
    return summary
