"""In-order core timing model (paper Table III: 1 IPC peak, 3 GHz).

The core consumes a :class:`~repro.cpu.trace.TraceGenerator` stream.
Non-memory instructions retire one per cycle; each memory operation first
translates through the TLB/walker (page-table walks go through the cache
hierarchy with the ``isPTE`` bit and may reach DRAM, where PT-Guard adds
MAC latency), then performs the data access. L1 hits are considered
pipelined (no stall); deeper hits and DRAM accesses stall the core for
their full latency — the blocking in-order model whose slowdowns the
paper itself calls pessimistic.

:meth:`InOrderCore.run` is one loop that draws each record with
``next_record()`` and inlines the common case — TLB hit, L1 hit, L1
write hit — as plain dict operations with the side effects of
``TLB.lookup``, ``Cache.lookup`` and ``Cache.write_hit`` (counters, LRU
``move_to_end`` order). Everything else calls the one implementation
the rest of the simulator uses: a TLB miss takes :meth:`_translate`
(``PageWalker.translate``, demand-paging faults and integrity failures
included) and an L1 miss takes ``CacheHierarchy.read_below_l1``.
:meth:`_execute` is the per-access reference the multicore model runs
and ``tests/test_batch_equivalence.py`` compares the loop against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import CACHELINE_BYTES, PAGE_BYTES
from repro.common.errors import PageFaultError
from repro.common.stats import StatGroup, per_kilo
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.trace import TraceGenerator, region_pages
from repro.mmu.walker import PageWalker
from repro.os.kernel import Kernel
from repro.os.process import Process

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
        # MAC-checked DRAM reads whose latency reached ``cycles`` in the
        # last timed window, as (data reads, page-walk reads): the reads
        # that add mac_latency_cycles each to CoreResult.cycles. Then the
        # same pair for Optimized PT-Guard, in the controller's slot order
        # (MemoryController.mac_checked_reads).
        self.mac_checked_reads = (0, 0, 0, 0)
        # The controller's MAC-checked reads in this window that no stall
        # charged: aborted walks and the kernel's demand-fault work.
        self._uncharged_mac_reads = [0, 0, 0, 0]

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

        Hot counters accumulate in locals and are added to the stat dicts
        in ``finally``, so they compose with the increments the miss paths
        make directly. ``hierarchy.cycle`` is written only before a miss
        path that can reach the memory controller, with the value a
        per-record write would have left (the end of the previous record).
        A record is drawn before it executes, so an exception
        (``PTEIntegrityException``, ``InvariantViolation``, ...) leaves the
        trace just after the failing record, with its front-end charge
        applied and every counter flushed.
        """
        if warmup_ops:
            self._run_window(trace.next_record, warmup_ops, timed=False)
        start_cycles, start_instructions = self._reset_window()
        self._run_window(trace.next_record, mem_ops, timed=True)
        self.mem_ops += mem_ops
        return self._result(start_cycles, start_instructions)

    def _run_window(self, next_record, count: int, timed: bool) -> None:
        hierarchy = self.hierarchy
        walker_tlb = self.walker.tlb
        asid = self.process.asid
        translate = self._translate
        l1_hit_latency = self.l1_hit_latency

        # Inlined-structure handles: TLB.lookup, Cache.lookup and
        # Cache.write_hit are replicated below; a change there must be
        # mirrored here (tests/test_batch_equivalence.py catches a drift).
        tlb_get = walker_tlb._entries.get
        tlb_move = walker_tlb._entries.move_to_end
        l1 = hierarchy.l1
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        l1_bits = l1._set_bits
        fill = hierarchy._fill
        read_below_l1 = hierarchy.read_below_l1
        payload_cache = _PAYLOAD_CACHE
        lat1 = hierarchy._lat1

        line_mask = ~(CACHELINE_BYTES - 1)
        page_mask = PAGE_BYTES - 1

        tlb_hits = 0
        l1_hits = 0
        l1_misses = 0
        reads = 0
        writes = 0

        cycles = self.cycles
        prev_end = cycles  # the hierarchy.cycle the controller must see
        instr_acc = 0
        try:
            if timed:
                for _ in range(count):
                    gap, virtual_address, is_write = next_record()
                    # Front-end charge: gap instructions + the mem op itself.
                    instr_acc += gap + 1
                    cycles += gap

                    key = (asid, virtual_address >> 12)
                    entry = tlb_get(key)
                    if entry is not None:
                        tlb_hits += 1
                        tlb_move(key)
                        physical = entry.pfn * PAGE_BYTES + (virtual_address & page_mask)
                    else:
                        # _translate re-probes (counting the miss), walks,
                        # and adds the walk stall to self.cycles.
                        hierarchy.cycle = prev_end
                        self.cycles = cycles
                        physical = translate(virtual_address, True)
                        cycles = self.cycles

                    line_address = physical & line_mask
                    la = line_address >> 6  # Cache._offset_bits is log2(64)
                    tag1 = la >> l1_bits
                    lines = l1_sets.get(la & l1_mask)
                    line = None if lines is None else lines.get(tag1)
                    if is_write:
                        writes += 1
                        payload = payload_cache.get(line_address)
                        if payload is None:
                            payload = _store_payload(line_address)
                        if line is not None:
                            # Cache.write_hit in place; L1 latency, no stall.
                            line.data = payload
                            line.dirty = True
                            lines.move_to_end(tag1)
                        else:
                            # CacheHierarchy.write's write-allocate: fetch
                            # (counting the read and its L1 miss), then
                            # dirty the line into L1.
                            hierarchy.cycle = prev_end
                            reads += 1
                            l1_misses += 1
                            read_latency = read_below_l1(line_address, False).latency_cycles
                            fill(line_address, payload, True, 0)
                            stall = lat1 + read_latency - l1_hit_latency
                            if stall > 0:
                                cycles += stall
                    else:
                        reads += 1
                        if line is not None:
                            l1_hits += 1
                            lines.move_to_end(tag1)  # pipelined: no stall
                        else:
                            hierarchy.cycle = prev_end
                            l1_misses += 1
                            stall = (
                                read_below_l1(line_address, False).latency_cycles
                                - l1_hit_latency
                            )
                            if stall > 0:
                                cycles += stall
                    prev_end = cycles
            else:
                # Untimed warmup: the same accesses, no cycle accounting
                # and no hierarchy.cycle writes.
                for _ in range(count):
                    _gap, virtual_address, is_write = next_record()
                    key = (asid, virtual_address >> 12)
                    entry = tlb_get(key)
                    if entry is not None:
                        tlb_hits += 1
                        tlb_move(key)
                        physical = entry.pfn * PAGE_BYTES + (virtual_address & page_mask)
                    else:
                        physical = translate(virtual_address, False)

                    line_address = physical & line_mask
                    la = line_address >> 6
                    tag1 = la >> l1_bits
                    lines = l1_sets.get(la & l1_mask)
                    line = None if lines is None else lines.get(tag1)
                    if is_write:
                        writes += 1
                        payload = payload_cache.get(line_address)
                        if payload is None:
                            payload = _store_payload(line_address)
                        if line is not None:
                            line.data = payload
                            line.dirty = True
                            lines.move_to_end(tag1)
                        else:
                            reads += 1
                            l1_misses += 1
                            read_below_l1(line_address, False)
                            fill(line_address, payload, True, 0)
                    else:
                        reads += 1
                        if line is not None:
                            l1_hits += 1
                            lines.move_to_end(tag1)
                        else:
                            l1_misses += 1
                            read_below_l1(line_address, False)
        finally:
            if timed:
                self.instructions += instr_acc
                self.cycles = cycles
                hierarchy.cycle = prev_end
            counters = walker_tlb._counters
            if tlb_hits:
                counters["hits"] = counters.get("hits", 0) + tlb_hits
            counters = l1._counters
            if l1_hits:
                counters["hits"] = counters.get("hits", 0) + l1_hits
            if l1_misses:
                counters["misses"] = counters.get("misses", 0) + l1_misses
            counters = hierarchy._counters
            if reads:
                counters["reads"] = counters.get("reads", 0) + reads
            if writes:
                counters["writes"] = counters.get("writes", 0) + writes

    def _reset_window(self) -> tuple[int, int]:
        self._window_stats = {
            "llc_misses": self.hierarchy.stats.get("llc_misses"),
            "dram_reads": self._dram_reads(),
            "dram_writes": self.hierarchy.controller.stats.get("writes"),
            "tlb_misses": self.walker.tlb.stats.get("misses"),
            "walks": self.walker.stats.get("walks"),
            "walk_dram": self.hierarchy.controller.stats.get("pte_reads"),
            "mac_checked_reads": tuple(self.hierarchy.controller.mac_checked_reads),
        }
        self._uncharged_mac_reads = [0, 0, 0, 0]
        self.mem_ops = 0
        return self.cycles, self.instructions

    def _dram_reads(self) -> int:
        stats = self.hierarchy.controller.stats
        return stats.get("reads") + stats.get("pte_reads")

    def _result(self, start_cycles: int, start_instructions: int) -> CoreResult:
        window = self._window_stats
        self.mac_checked_reads = tuple(
            now - start - uncharged
            for now, start, uncharged in zip(
                self.hierarchy.controller.mac_checked_reads,
                window["mac_checked_reads"],
                self._uncharged_mac_reads,
            )
        )
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
            if timed:
                mac_reads = self.hierarchy.controller.mac_checked_reads
                before = mac_reads[:]
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
                if timed:
                    # Neither the aborted walk's reads nor the handler's
                    # stall the core.
                    uncharged = self._uncharged_mac_reads
                    for slot, start in enumerate(before):
                        uncharged[slot] += mac_reads[slot] - start
                tlb_checked = False
