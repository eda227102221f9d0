"""Multi-core timing model (paper Section VII-C).

Four cores, each with a private L1/L2 and TLB/walker, share the L3 and
the memory controller. The paper's observation: with more cores, memory-
channel contention inflates the *baseline* DRAM access time, so
PT-Guard's constant MAC delay is a smaller relative cost — average
slowdown drops from 1.3 % (single-core) to 0.5 %.

Contention model: the shared channel serialises DRAM data bursts. Each
DRAM access occupies the channel for ``burst_cycles``; an access issued
while the channel is busy waits for its turn. Cores advance in a
round-robin, one trace record per turn, with per-core cycle counts.

Workload mixes follow the paper: SAME (4 instances of one workload) and
MIX (4 distinct workloads).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from typing import TYPE_CHECKING

from repro.common.config import MIB, PTGuardConfig, SystemConfig
from repro.cpu.core import CoreResult, InOrderCore
from repro.cpu.trace import HOT_REGION_BYTES, TraceGenerator
from repro.cpu.workloads import WorkloadProfile, get_workload

if TYPE_CHECKING:  # harness imports cpu; keep the back-edge lazy
    from repro.harness.system import System

BURST_CYCLES = 32  # effective channel occupancy per 64-byte transfer
# (64 B at DDR4-2400 is ~10 CPU cycles on the pins; bank-group and
# command-bus overheads under 4-core contention push effective occupancy
# to ~3x that, which is what the shared-channel model charges.)


class SharedChannel:
    """Serialises DRAM accesses from all cores (bandwidth contention)."""

    def __init__(self, burst_cycles: int = BURST_CYCLES):
        self.burst_cycles = burst_cycles
        self._free_at = 0
        self.total_wait = 0

    def occupy(self, now: int) -> int:
        """Request the channel at cycle ``now``; returns queueing delay."""
        wait = max(0, self._free_at - now)
        self._free_at = max(self._free_at, now) + self.burst_cycles
        self.total_wait += wait
        return wait


@dataclass
class MulticoreResult:
    """Aggregate of one multi-core run."""

    per_core: List[CoreResult]

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.per_core)

    @property
    def max_cycles(self) -> int:
        return max((r.cycles for r in self.per_core), default=0)

    @property
    def system_ipc(self) -> float:
        """Total instructions over the longest core's cycles."""
        return self.total_instructions / self.max_cycles if self.max_cycles else 0.0


class MulticoreSimulator:
    """Round-robin interleaved execution of N cores on one System."""

    def __init__(
        self,
        profiles: Sequence[WorkloadProfile],
        guard_config: Optional[PTGuardConfig],
        config: Optional[SystemConfig] = None,
        seed: int = 3,
    ):
        from repro.harness.system import build_system

        if config is None:
            # Sec VII-C memory system: 1 MB shared LLC per core.
            from dataclasses import replace

            from repro.common.config import CacheConfig, MIB as _MIB

            config = replace(
                SystemConfig(),
                l3=CacheConfig("L3", len(profiles) * _MIB, 16, hit_latency=38),
            )
        self.system: "System" = build_system(
            config=config, ptguard=guard_config, mac_algorithm="pseudo", seed=seed
        )
        from repro.cache.cache import Cache
        from repro.cache.hierarchy import CacheHierarchy, SharedLLCAdapter
        from repro.cpu.core import InOrderCore as _Core
        from repro.mmu.mmu_cache import MMUCache
        from repro.mmu.tlb import TLB
        from repro.mmu.walker import PageWalker

        self.channel = SharedChannel()
        # One shared LLC in front of the controller; each core gets a
        # private L1/L2 hierarchy on top of it.
        self.shared_llc = SharedLLCAdapter(
            Cache(self.system.config.l3),
            self.system.controller,
            hit_latency=self.system.config.l3.hit_latency,
        )
        self.system.controller.attach_coherent_cache(self.shared_llc)
        self.cores: List[InOrderCore] = []
        self.traces: List[TraceGenerator] = []
        for index, profile in enumerate(profiles):
            # Distinct VA regions per core/process avoid sharing effects.
            hot_base = 0x0000_5000_0000_0000 + index * 0x0000_0100_0000_0000
            cold_base = 0x0000_6000_0000_0000 + index * 0x0000_0100_0000_0000
            process = self.system.kernel.create_process(f"{profile.name}-{index}")
            self.system.kernel.mmap(
                process, HOT_REGION_BYTES // 4096, name="hot", at=hot_base
            )
            self.system.kernel.mmap(
                process,
                profile.footprint_mib * MIB // 4096,
                name="cold",
                at=cold_base,
            )
            trace = TraceGenerator(
                profile, hot_base=hot_base, cold_base=cold_base, seed=seed + index
            )
            hierarchy = CacheHierarchy(
                self.system.config, self.shared_llc, private_levels_only=True
            )
            self.system.controller.attach_coherent_cache(hierarchy)
            walker = PageWalker(
                hierarchy,
                tlb=TLB(self.system.config.tlb.entries),
                mmu_cache=MMUCache(
                    self.system.config.tlb.mmu_cache_bytes,
                    self.system.config.tlb.mmu_cache_assoc,
                ),
            )
            core = _Core(hierarchy, walker, self.system.kernel, process)
            self.cores.append(core)
            self.traces.append(trace)

    def prefault(self) -> None:
        for core, trace in zip(self.cores, self.traces):
            core.prefault(trace)

    def run(self, mem_ops_per_core: int, warmup_ops: int = 4000) -> MulticoreResult:
        """Interleave cores record-by-record with channel contention."""
        for core, trace in zip(self.cores, self.traces):
            for _ in range(warmup_ops):
                record = trace.next_record()
                core._execute(record.virtual_address, record.is_write)

        starts = [core._reset_window() for core in self.cores]
        # Patch contention in: wrap the controller so each DRAM access adds
        # the channel queueing delay of the issuing core's current cycle.
        controller = self.system.controller
        original_read = controller.read
        original_write = controller.write_access
        active_core: Dict[str, Optional[InOrderCore]] = {"core": None}
        channel = self.channel

        def contended_read(address, is_pte=False, cycle=0):
            data, latency, failed = original_read(address, is_pte, cycle)
            core = active_core["core"]
            delay = channel.occupy(core.cycles if core else 0)
            return data, latency + delay, failed

        def contended_write(address, data, cycle=0, origin=None):
            response = original_write(address, data, cycle, origin)
            core = active_core["core"]
            channel.occupy(core.cycles if core else 0)  # writes occupy too
            return response

        controller.read = contended_read  # type: ignore[method-assign]
        controller.write_access = contended_write  # type: ignore[method-assign]
        try:
            remaining = [mem_ops_per_core] * len(self.cores)
            while any(remaining):
                for index, (core, trace) in enumerate(zip(self.cores, self.traces)):
                    if not remaining[index]:
                        continue
                    active_core["core"] = core
                    record = trace.next_record()
                    core.instructions += record.instructions + 1
                    core.cycles += record.instructions
                    core._execute(record.virtual_address, record.is_write, timed=True)
                    core.mem_ops += 1
                    remaining[index] -= 1
        finally:
            del controller.read  # type: ignore[method-assign]
            del controller.write_access  # type: ignore[method-assign]
            active_core["core"] = None

        return MulticoreResult(
            per_core=[
                core._result(start[0], start[1])
                for core, start in zip(self.cores, starts)
            ]
        )


def run_multicore_experiment(
    workload_names: Sequence[str],
    guard_config: Optional[PTGuardConfig],
    mem_ops_per_core: int = 6000,
    warmup_ops: int = 9000,
    seed: int = 3,
) -> MulticoreResult:
    # warmup >= ~3x the hot-region line count, so the measured window is
    # steady state rather than cold-cache fill (which would charge every
    # core a compulsory-miss MAC tax and flatten workload differences).
    """One SAME or MIX datapoint."""
    profiles = [get_workload(name) for name in workload_names]
    simulator = MulticoreSimulator(profiles, guard_config, seed=seed)
    simulator.prefault()
    return simulator.run(mem_ops_per_core=mem_ops_per_core, warmup_ops=warmup_ops)


def multicore_slowdown(
    workload_names: Sequence[str],
    mem_ops_per_core: int = 6000,
    mac_latency: int = 10,
    seed: int = 3,
) -> float:
    """Percent slowdown of PT-Guard vs baseline for one 4-core mix."""
    base = run_multicore_experiment(workload_names, None,
                                    mem_ops_per_core=mem_ops_per_core, seed=seed)
    guarded = run_multicore_experiment(
        workload_names,
        PTGuardConfig(mac_latency_cycles=mac_latency),
        mem_ops_per_core=mem_ops_per_core,
        seed=seed,
    )
    return (base.system_ipc / guarded.system_ipc - 1.0) * 100.0


def slowdown_job(
    workload_names: Sequence[str],
    mem_ops_per_core: int = 6000,
    mac_latency: int = 10,
    seed: int = 3,
    label: Optional[str] = None,
):
    """The :class:`~repro.harness.parallel.SimJob` form of one
    :func:`multicore_slowdown` datapoint (baseline + guarded pair run
    inside the job; the returned result is the slowdown percentage).
    ``label`` is display-only (logs/journal) and never enters the key."""
    from repro.harness.parallel import SimJob  # keep the back-edge lazy

    return SimJob(
        kind="multicore_slowdown",
        params={
            "mix": list(workload_names),
            "mem_ops_per_core": mem_ops_per_core,
            "mac_latency": mac_latency,
            "seed": seed,
        },
        label=label or f"sec7c/{'+'.join(workload_names)}",
    )


def make_same_mix(workload: str) -> List[str]:
    """SAME configuration: four instances of one workload."""
    return [workload] * 4


def make_random_mix(seed: int, pool: Optional[Sequence[str]] = None) -> List[str]:
    """MIX configuration: four randomly selected workloads."""
    from repro.cpu.workloads import WORKLOADS

    names = list(pool) if pool is not None else [w.name for w in WORKLOADS]
    rng = random.Random(seed)
    return [rng.choice(names) for _ in range(4)]
