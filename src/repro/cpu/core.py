"""In-order core timing model (paper Table III: 1 IPC peak, 3 GHz).

The core consumes a :class:`~repro.cpu.trace.TraceGenerator` stream.
Non-memory instructions retire one per cycle; each memory operation first
translates through the TLB/walker (page-table walks go through the cache
hierarchy with the ``isPTE`` bit and may reach DRAM, where PT-Guard adds
MAC latency), then performs the data access. L1 hits are considered
pipelined (no stall); deeper hits and DRAM accesses stall the core for
their full latency — the blocking in-order model whose slowdowns the
paper itself calls pessimistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import CACHELINE_BYTES, PAGE_BYTES, SystemConfig, batch_size
from repro.common.errors import PageFaultError
from repro.common.stats import StatGroup, per_kilo
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.trace import TraceGenerator, region_pages
from repro.mmu.walker import PageWalker
from repro.os.kernel import Kernel
from repro.os.process import Process

try:  # the fused batch loop needs numpy; fall back to the scalar loop
    from repro.cpu import batch_core as _batch_core
except ImportError:  # pragma: no cover - numpy-less host
    _batch_core = None


@dataclass(frozen=True)
class CoreResult:
    """Timing outcome of one simulation window."""

    instructions: int
    cycles: int
    mem_ops: int
    llc_misses: int
    dram_reads: int
    dram_writes: int
    tlb_misses: int
    walks: int
    walk_dram_reads: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def llc_mpki(self) -> float:
        return per_kilo(self.llc_misses, self.instructions)


_PAYLOAD_CACHE: dict[int, bytes] = {}


def _store_payload(address: int) -> bytes:
    """Synthetic store data: address-derived, never pattern-matching.

    Bits 51:40 (the MAC field) are forced non-zero so regular data writes
    do not opportunistically receive MACs — mirroring real pointer-free
    data, and keeping the protected-line population realistic. Payloads
    are a pure function of the address, so they are memoized.
    """
    payload = _PAYLOAD_CACHE.get(address)
    if payload is None:
        if len(_PAYLOAD_CACHE) >= 1 << 18:  # bound memory on huge footprints
            _PAYLOAD_CACHE.clear()
        word = (address | 0x00FF_1000_0000_0000) & (1 << 64) - 1
        payload = _PAYLOAD_CACHE[address] = word.to_bytes(8, "little") * (
            CACHELINE_BYTES // 8
        )
    return payload


class InOrderCore:
    """One hardware thread over its own L1/L2 (hierarchy) and walker."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        walker: PageWalker,
        kernel: Kernel,
        process: Process,
        l1_hit_latency: Optional[int] = None,
    ):
        self.hierarchy = hierarchy
        self.walker = walker
        self.kernel = kernel
        self.process = process
        self.l1_hit_latency = (
            l1_hit_latency
            if l1_hit_latency is not None
            else hierarchy.config.l1d.hit_latency
        )
        self.cycles = 0
        self.instructions = 0
        self.mem_ops = 0
        self.stats = StatGroup("core")

    # -- execution ---------------------------------------------------------------

    def prefault(self, trace: TraceGenerator) -> int:
        """Map every page the trace may touch (models the fast-forward
        phase of the paper's methodology). Returns pages mapped."""
        count = 0
        for page_va in region_pages(trace.regions):
            self.kernel.handle_page_fault(self.process, page_va)
            count += 1
        return count

    def run(self, trace: TraceGenerator, mem_ops: int, warmup_ops: int = 0) -> CoreResult:
        """Execute ``warmup_ops`` untimed then ``mem_ops`` timed accesses.

        Records are replayed through the fused batch loop
        (:mod:`repro.cpu.batch_core`) unless ``REPRO_BATCH`` selects the
        scalar reference loop (or numpy is unavailable) — the two paths
        produce bit-identical results.
        """
        batch = batch_size()
        if batch > 1 and _batch_core is not None:
            return _batch_core.run_batched(self, trace, mem_ops, warmup_ops, batch)
        for _ in range(warmup_ops):
            record = trace.next_record()
            self._execute(record.virtual_address, record.is_write)

        start_cycles, start_instructions = self._reset_window()
        next_record = trace.next_record
        execute = self._execute
        for _ in range(mem_ops):
            instructions, virtual_address, is_write = next_record()
            self.instructions += instructions + 1  # +1 for the mem op
            self.cycles += instructions
            execute(virtual_address, is_write, timed=True)
        self.mem_ops += mem_ops
        return self._result(start_cycles, start_instructions)

    def _reset_window(self) -> tuple[int, int]:
        self._window_stats = {
            "llc_misses": self.hierarchy.stats.get("llc_misses"),
            "dram_reads": self._dram_reads(),
            "dram_writes": self.hierarchy.controller.stats.get("writes"),
            "tlb_misses": self.walker.tlb.stats.get("misses"),
            "walks": self.walker.stats.get("walks"),
            "walk_dram": self.hierarchy.controller.stats.get("pte_reads"),
        }
        self.mem_ops = 0
        return self.cycles, self.instructions

    def _dram_reads(self) -> int:
        stats = self.hierarchy.controller.stats
        return stats.get("reads") + stats.get("pte_reads")

    def _result(self, start_cycles: int, start_instructions: int) -> CoreResult:
        window = self._window_stats
        return CoreResult(
            instructions=self.instructions - start_instructions,
            cycles=self.cycles - start_cycles,
            mem_ops=self.mem_ops,
            llc_misses=self.hierarchy.stats.get("llc_misses") - window["llc_misses"],
            dram_reads=self._dram_reads() - window["dram_reads"],
            dram_writes=self.hierarchy.controller.stats.get("writes")
            - window["dram_writes"],
            tlb_misses=self.walker.tlb.stats.get("misses") - window["tlb_misses"],
            walks=self.walker.stats.get("walks") - window["walks"],
            walk_dram_reads=self.hierarchy.controller.stats.get("pte_reads")
            - window["walk_dram"],
        )

    # -- one memory operation ---------------------------------------------------------

    def _execute(self, virtual_address: int, is_write: bool, timed: bool = False) -> None:
        physical = self._translate(virtual_address, timed)
        line_address = physical & ~(CACHELINE_BYTES - 1)
        if is_write:
            result = self.hierarchy.write(line_address, _store_payload(line_address))
        else:
            result = self.hierarchy.read(line_address)
        if timed:
            stall = result.latency_cycles - self.l1_hit_latency
            if stall > 0:
                self.cycles += stall
            self.hierarchy.cycle = self.cycles

    def _translate(self, virtual_address: int, timed: bool) -> int:
        # Fast path: probe the TLB directly — the common hit needs only the
        # PFN, not a full WalkResult. The walker re-probing is suppressed
        # (tlb_checked) so hit/miss counters match the one-probe-per-attempt
        # accounting of the plain walker path.
        process = self.process
        entry = self.walker.tlb.lookup(process.asid, virtual_address >> 12)
        if entry is not None:
            return entry.pfn * PAGE_BYTES + (virtual_address & (PAGE_BYTES - 1))
        tlb_checked = True
        while True:
            try:
                walk = self.walker.translate(
                    process.asid,
                    process.page_table.root_pfn,
                    virtual_address,
                    tlb_checked=tlb_checked,
                )
                if timed and not walk.tlb_hit:
                    # The walk's memory latency stalls the in-order pipe.
                    self.cycles += walk.latency_cycles
                    self.stats.increment("walk_stall_cycles", walk.latency_cycles)
                return walk.pfn * PAGE_BYTES + (virtual_address & (PAGE_BYTES - 1))
            except PageFaultError:
                # Demand-paging faults are OS work outside the timed window
                # (the paper fast-forwards past them with KVM).
                self.kernel.handle_page_fault(self.process, virtual_address)
                tlb_checked = False
