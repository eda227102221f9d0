"""Fused batch execution loop for :class:`~repro.cpu.core.InOrderCore`.

The scalar path costs ~45 Python calls per access (``next_record`` →
``_execute`` → ``_translate`` → ``hierarchy.read``/``write`` → per-level
``Cache.lookup``). This module collapses the common case — TLB hit, L1 or
L2 hit — into one flat loop over a pre-generated batch of trace records
(:class:`~repro.cpu.trace_vector.VectorTraceReplayer`), inlining the TLB
probe, the L1/L2 probes and the L1 write-hit update as plain dict
operations. TLB misses no longer leave the fused loop either: the
4-level page walk is inlined (walk-cache probe/insert, PTE-line L1/L2
ladder, TLB install — see ``walk_miss``), the page-table line MAC tags
having been vectorized up front through ``compute_batch``
(:func:`_prime_walk_tags`), and the *unmodified* scalar implementations
(``InOrderCore._translate``, ``PageWalker.translate``,
``CacheHierarchy.read_below_l2``, ``CacheHierarchy.write``) remain the
reference slow path for everything else — non-hierarchy walk ports,
demand-paging faults and MAC-failed (faulted/tampered) lines. Because every slow path is
the scalar implementation itself and every inline fast path replicates the
scalar side effects exactly (counters, LRU ``move_to_end`` order, cycle
accounting, ``hierarchy.cycle`` visibility to the memory controller), a
batched run is bit-identical to a scalar run: same ``CoreResult``, same
stat counters, same DRAM traffic, same PT-Guard outcomes — the
equivalence is asserted by ``tests/test_batch_equivalence.py`` and the
scalar points of ``ci/equivalence_matrix.py``.

Counter updates for the inline paths are accumulated in locals and
flushed into the real stat dicts at batch end (and on the exception
path), so mid-batch slow-path increments — which hit the same dicts
directly — compose correctly: the flush *adds deltas*, it never
overwrites.

Exception safety: a fault injected mid-batch (``PTECheckFailedError``,
``InvariantViolation``, CTB overflow, ...) must leave the simulation in
the exact state the scalar loop would have left: counters flushed,
``instructions``/``cycles`` including the failing record's front-end
charge, and — critically — the trace RNG positioned *after* the failing
record (the scalar loop draws the record before executing it). The
handler flushes, syncs, rewinds the replayer to the record after the
failure, and re-raises.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.config import CACHELINE_BYTES, PAGE_BYTES
from repro.common.errors import InvariantViolation, PageFaultError
from repro.common.stats import StatGroup

from repro.cpu import core as core_mod
from repro.cpu.trace_vector import VectorTraceReplayer
from repro.faults.invariants import validation_enabled
from repro.mmu.tlb import TLBEntry
from repro.mmu.walker import PTEIntegrityException

#: Module-wide statistics for the sampled replay oracle, following the
#: ``faults/invariants`` StatGroup discipline (shared across runs;
#: ``batches_checked`` / ``records_checked`` / ``violations``).
ORACLE_STATS = StatGroup("batch_replay_oracle")

#: Cross-check every Nth batch under ``--validate`` — a sampled
#: fraction, same cost philosophy as the MAC differential oracle's
#: ``sample_period``.
ORACLE_PERIOD = 16

#: Observability for the bulk page-table tag priming pass (host-side
#: only — never part of a simulated outcome): ``lines_primed`` counts
#: PTE lines whose MAC tags were vectorized ahead of the batched walks.
BULK_TAG_STATS = StatGroup("batch_bulk_tags")


def _prime_walk_tags(core) -> int:
    """Vectorize the page-table line MAC tags before a batched run.

    Gathers every cacheline of the process's page-table pages straight
    from backing DRAM (no simulated traffic) and computes their tags in
    one ``compute_batch`` pass, installing them as *hints* on the MAC
    engine (:meth:`repro.core.engine.MACEngine.prime_bulk_tags`). The
    inline page walks below then reach the controller with their tags
    pre-computed: the engine still counts every simulated ``computations``
    tick and still runs its differential oracle, but the host-side scalar
    tag (for qarma, ~100 us each) is skipped. Lines whose protected bits
    changed since priming (faults, tampering, new table pages) miss the
    hint's content check and fall through to the scalar reference path —
    so priming can never mask a corruption. A no-op for backends without
    ``compute_batch``, where scalar priming would merely move the same
    host cost earlier.
    """
    controller = core.hierarchy.controller
    guard = getattr(controller, "ptguard", None)
    dram = getattr(controller, "dram", None)
    if guard is None or dram is None:
        return 0
    engine = guard.engine
    if getattr(engine.line_mac, "compute_batch", None) is None:
        return 0
    lines_per_page = PAGE_BYTES // CACHELINE_BYTES
    addresses = []
    for pfn in core.process.page_table.table_pfns:
        base = pfn * PAGE_BYTES
        addresses.extend(
            base + CACHELINE_BYTES * i for i in range(lines_per_page)
        )
    if not addresses:
        return 0
    read_line = dram.read_line
    primed = engine.prime_bulk_tags(
        [read_line(address) for address in addresses], addresses
    )
    if primed:
        BULK_TAG_STATS.increment("lines_primed", primed)
    return primed


class TraceReplayOracle:
    """Differential oracle for the vectorized trace replay.

    Under ``--validate`` (:func:`repro.faults.invariants.validation_enabled`)
    every :data:`ORACLE_PERIOD`-th batch is re-drawn by an independent
    scalar :class:`~repro.cpu.trace.TraceGenerator` clone seeded from
    the pre-batch RNG state, and compared record for record — plus the
    post-batch RNG state and cold cursor, so a single mis-parsed MT19937
    word is caught at the batch it happens in, not as a downstream
    outcome drift. Violations raise
    :class:`~repro.common.errors.InvariantViolation` in the
    ``faults/invariants`` style; the clone never touches the live
    generator, so a passing check perturbs nothing.
    """

    def __init__(self, trace, period: int = ORACLE_PERIOD):
        from repro.cpu.trace import TraceGenerator

        self.trace = trace
        self.period = period
        self._count = 0
        self._clone = TraceGenerator(
            trace.profile, trace.regions.hot_base, trace.regions.cold_base
        )

    def due(self) -> bool:
        due = self._count % self.period == 0
        self._count += 1
        return due

    def snapshot(self):
        return self.trace._rng.getstate(), self.trace._cold_cursor

    def verify(self, before, batch) -> None:
        instr_list, addr_list, write_list = batch
        clone = self._clone
        clone._rng.setstate(before[0])
        clone._cold_cursor = before[1]
        ORACLE_STATS.increment("batches_checked")
        ORACLE_STATS.increment("records_checked", len(instr_list))
        for i in range(len(instr_list)):
            record = clone.next_record()
            if (
                record.instructions != instr_list[i]
                or record.virtual_address != addr_list[i]
                or record.is_write != write_list[i]
            ):
                ORACLE_STATS.increment("violations")
                raise InvariantViolation(
                    f"[batch_replay_oracle] batched record {i} "
                    f"({instr_list[i]}, {addr_list[i]:#x}, {write_list[i]}) "
                    f"!= scalar replay ({record.instructions}, "
                    f"{record.virtual_address:#x}, {record.is_write})"
                )
        if (
            clone._rng.getstate() != self.trace._rng.getstate()
            or clone._cold_cursor != self.trace._cold_cursor
        ):
            ORACLE_STATS.increment("violations")
            raise InvariantViolation(
                "[batch_replay_oracle] generator state diverged from "
                "scalar replay after batch"
            )


def run_batched(core, trace, mem_ops: int, warmup_ops: int, batch_size: int):
    """Batched equivalent of :meth:`InOrderCore.run`.

    Executes ``warmup_ops`` untimed then ``mem_ops`` timed accesses in
    batches of ``batch_size`` records, returning the same
    :class:`~repro.cpu.core.CoreResult` the scalar loop would.
    """
    _prime_walk_tags(core)
    replayer = VectorTraceReplayer(trace)
    oracle = TraceReplayOracle(trace) if validation_enabled() else None

    def next_batch(n):
        if oracle is not None and oracle.due():
            before = oracle.snapshot()
            batch = replayer.next_batch(n)
            oracle.verify(before, batch)
            return batch
        return replayer.next_batch(n)

    if warmup_ops:
        remaining = warmup_ops
        while remaining:
            n = batch_size if batch_size < remaining else remaining
            _execute_batch(core, next_batch(n), replayer, timed=False)
            remaining -= n
    start_cycles, start_instructions = core._reset_window()
    remaining = mem_ops
    while remaining:
        n = batch_size if batch_size < remaining else remaining
        _execute_batch(core, next_batch(n), replayer, timed=True)
        remaining -= n
    core.mem_ops += mem_ops
    return core._result(start_cycles, start_instructions)


def _execute_batch(core, batch, replayer, timed: bool) -> None:
    """Run one pre-generated batch through the fused access loop."""
    instr_list, addr_list, write_list = batch

    hierarchy = core.hierarchy
    walker_tlb = core.walker.tlb
    asid = core.process.asid
    translate = core._translate
    store_payload = core_mod._store_payload
    l1_hit_latency = core.l1_hit_latency

    # Inlined-structure handles (the scalar methods these replicate are
    # TLB.lookup, Cache.lookup, Cache.write_hit and CacheHierarchy.read's
    # L1/L2 ladder — any change there must be mirrored here; the
    # equivalence tests exist to catch a drift).
    tlb_entries = walker_tlb._entries
    tlb_get = tlb_entries.get
    tlb_move = tlb_entries.move_to_end
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    l1_bits = l1._set_bits
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_bits = l2._set_bits
    l1_fill = l1.fill
    handle_victim = hierarchy._handle_victim
    read_below_l2 = hierarchy.read_below_l2
    payload_cache = core_mod._PAYLOAD_CACHE
    lat1 = hierarchy._lat1
    lat12 = hierarchy._lat1 + hierarchy._lat2
    l2_stall = lat12 - l1_hit_latency
    if l2_stall < 0:  # scalar: `if stall > 0` — never un-charge cycles
        l2_stall = 0

    line_mask = ~(CACHELINE_BYTES - 1)
    page_mask = PAGE_BYTES - 1

    # Deferred counter accumulators (flushed in ``finally``).
    tlb_hits = 0
    l1_hits = 0
    l1_misses = 0
    l2_hits = 0
    l2_misses = 0
    reads = 0
    writes = 0
    # Inline-walk accumulators (same discipline).
    tlb_misses = 0
    tlb_evictions = 0
    walks = 0
    page_faults = 0
    integrity_failures = 0
    mmu_hits = 0
    mmu_misses = 0
    mmu_evictions = 0
    walk_stall = 0

    # Inline page-walk prebinds. The walk is fused only when the walker's
    # port IS the hierarchy (the standard core wiring) — exotic ports
    # (e.g. ControllerPort) keep the scalar ``core._translate`` bail.
    walker = core.walker
    kernel = core.kernel
    process = core.process
    root_pfn = process.page_table.root_pfn
    mmu_cache = walker.mmu_cache
    mmu_sets = mmu_cache._sets
    mmu_set_mask = mmu_cache.num_sets - 1
    mmu_set_bits = mmu_cache.num_sets.bit_length() - 1
    mmu_assoc = mmu_cache.associativity
    tlb_capacity = walker_tlb.capacity
    base_walk_latency = walker.tlb_hit_latency

    if walker.port is hierarchy:

        def walk_miss(virtual_address, key):
            """Inline 4-level walk, replicating ``PageWalker.translate``
            (plus ``core._translate``'s counting TLB probe and stall
            charge) side effect for side effect: walk-cache LRU order,
            PTE-line L1/L2 ladder and fills, stat counters, TLB insert.
            Returns ``(physical, walk_latency)``; the caller charges the
            latency only on the timed path. Integrity failures raise
            :class:`PTEIntegrityException` exactly as the scalar walker;
            demand-paging faults retry through the *scalar* walker, which
            re-probes the TLB (counting another miss) just as
            ``core._translate``'s retry loop does.
            """
            nonlocal tlb_misses, tlb_evictions, walks, page_faults
            nonlocal integrity_failures, mmu_hits, mmu_misses, mmu_evictions
            nonlocal reads, l1_hits, l1_misses, l2_hits, l2_misses
            tlb_misses += 1  # core._translate's counting TLB probe
            walks += 1  # walker.stats "walks"
            walk_latency = base_walk_latency
            table_pfn = root_pfn
            entries = None
            set_index = mmu_tag = 0
            for shift in (39, 30, 21, 12):  # PML4, PDPT, PD, PT
                entry_address = table_pfn * PAGE_BYTES + (
                    ((virtual_address >> shift) & 511) << 3
                )
                entry_value = None
                if shift != 12:
                    # MMUCache.lookup, inlined.
                    mmu_entry = entry_address >> 3
                    set_index = mmu_entry & mmu_set_mask
                    mmu_tag = mmu_entry >> mmu_set_bits
                    entries = mmu_sets.get(set_index)
                    entry_value = (
                        None if entries is None else entries.get(mmu_tag)
                    )
                    if entry_value is None:
                        mmu_misses += 1
                    else:
                        mmu_hits += 1
                        entries.move_to_end(mmu_tag)
                if entry_value is None:
                    # PTE-line fetch: CacheHierarchy.read(is_pte=True)
                    # inlined — the same L1/L2 ladder as the data path,
                    # sharing read_below_l2 as the slow path.
                    reads += 1
                    pte_line = entry_address & line_mask
                    la = pte_line >> 6
                    tag1 = la >> l1_bits
                    lines = l1_sets.get(la & l1_mask)
                    line = None if lines is None else lines.get(tag1)
                    if line is not None:
                        l1_hits += 1
                        lines.move_to_end(tag1)
                        data = line.data
                        walk_latency += lat1
                    else:
                        l1_misses += 1
                        tag2 = la >> l2_bits
                        lines2 = l2_sets.get(la & l2_mask)
                        line2 = None if lines2 is None else lines2.get(tag2)
                        if line2 is not None:
                            l2_hits += 1
                            lines2.move_to_end(tag2)
                            data = line2.data
                            victim = l1_fill(pte_line, data, is_pte=True)
                            if victim is not None and victim.dirty:
                                handle_victim(victim, 0)
                            walk_latency += lat12
                        else:
                            l2_misses += 1
                            result = read_below_l2(pte_line, True, lat12)
                            if result.pte_check_failed:
                                # Sec IV-F: never installed, never cached;
                                # the partial walk's latency is dropped,
                                # exactly as the scalar unwind does.
                                integrity_failures += 1
                                raise PTEIntegrityException(
                                    virtual_address,
                                    (39 - shift) // 9,
                                    entry_address,
                                )
                            data = result.data
                            walk_latency += result.latency_cycles
                    offset = entry_address & 63
                    entry_value = int.from_bytes(
                        data[offset : offset + 8], "little"
                    )
                if not entry_value & 1:
                    # Demand-paging fault: count it, drop the partial
                    # walk's latency (the scalar loop unwinds before
                    # charging it), map the page, retry via the scalar
                    # walker.
                    page_faults += 1
                    kernel.handle_page_fault(process, virtual_address)
                    while True:
                        try:
                            walk = walker.translate(
                                asid,
                                root_pfn,
                                virtual_address,
                                tlb_checked=False,
                            )
                        except PageFaultError:
                            kernel.handle_page_fault(process, virtual_address)
                            continue
                        return (
                            walk.pfn * PAGE_BYTES
                            + (virtual_address & page_mask),
                            0 if walk.tlb_hit else walk.latency_cycles,
                        )
                if shift != 12:
                    # MMUCache.insert, inlined (runs even after a lookup
                    # hit, as the scalar walker does).
                    if entries is None:
                        entries = mmu_sets[set_index] = OrderedDict()
                    if mmu_tag in entries:
                        entries.move_to_end(mmu_tag)
                    elif len(entries) >= mmu_assoc:
                        entries.popitem(last=False)
                        mmu_evictions += 1
                    entries[mmu_tag] = entry_value
                table_pfn = (entry_value >> 12) & 0xFF_FFFF_FFFF
            # Leaf: decode the raw PTE and install the TLB entry
            # (TLB.insert, inlined).
            entry = TLBEntry(
                pfn=table_pfn,
                writable=bool(entry_value & 2),
                user_accessible=bool(entry_value & 4),
                no_execute=bool(entry_value >> 63),
                global_page=bool(entry_value & 256),
            )
            if key in tlb_entries:
                tlb_move(key)
            elif len(tlb_entries) >= tlb_capacity:
                tlb_entries.popitem(last=False)
                tlb_evictions += 1
            tlb_entries[key] = entry
            return (
                table_pfn * PAGE_BYTES + (virtual_address & page_mask),
                walk_latency,
            )

    else:
        walk_miss = None

    cycles = core.cycles
    prev_end = cycles  # hierarchy.cycle the controller must see (= end of
    # the previous record): written lazily, only before slow paths that
    # can reach the controller, instead of once per record as the scalar
    # loop does — the visible value at every controller access and at
    # loop exit is identical.
    instr_acc = 0
    done = 0
    try:
        if timed:
            for gap, virtual_address, is_write in zip(
                instr_list, addr_list, write_list
            ):
                # Front-end charge: gap instructions + the mem op itself.
                instr_acc += gap + 1
                cycles += gap

                # --- translate (inline TLB hit; scalar walker else) ---
                key = (asid, virtual_address >> 12)
                entry = tlb_get(key)
                if entry is not None:
                    tlb_hits += 1
                    tlb_move(key)
                    physical = entry.pfn * PAGE_BYTES + (
                        virtual_address & page_mask
                    )
                else:
                    # The controller (DRAM timing, guard accounting) must
                    # see the end of the previous record, as the scalar
                    # loop's per-record ``hierarchy.cycle`` write ensures.
                    hierarchy.cycle = prev_end
                    if walk_miss is not None:
                        physical, walk_latency = walk_miss(
                            virtual_address, key
                        )
                        if walk_latency:
                            # core._translate: walk memory latency stalls
                            # the in-order pipe (zero only on the
                            # fault-retry TLB-hit path, where the scalar
                            # loop charges nothing either).
                            cycles += walk_latency
                            walk_stall += walk_latency
                    else:
                        # core._translate re-probes (counting the miss),
                        # walks, and adds the walk stall to core.cycles.
                        core.cycles = cycles
                        physical = translate(virtual_address, True)
                        cycles = core.cycles

                line_address = physical & line_mask
                la = line_address >> 6  # Cache._offset_bits is log2(64)
                tag1 = la >> l1_bits
                lines = l1_sets.get(la & l1_mask)
                line = None if lines is None else lines.get(tag1)
                if is_write:
                    # --- write (inline write-back, write-allocate) ---
                    writes += 1  # hierarchy "writes" stat
                    payload = payload_cache.get(line_address)
                    if payload is None:
                        payload = store_payload(line_address)
                    if line is not None:
                        # Cache.write_hit, in place; L1 latency, no stall.
                        line.data = payload
                        line.dirty = True
                        lines.move_to_end(tag1)
                    else:
                        # Write-allocate (CacheHierarchy.write miss
                        # path): fetch the line — counting the internal
                        # read and its L1 re-probe exactly as the scalar
                        # ladder does — then dirty it into L1.
                        hierarchy.cycle = prev_end
                        reads += 1
                        l1_misses += 1
                        tag2 = la >> l2_bits
                        lines2 = l2_sets.get(la & l2_mask)
                        line2 = None if lines2 is None else lines2.get(tag2)
                        if line2 is not None:
                            l2_hits += 1
                            lines2.move_to_end(tag2)
                            victim = l1_fill(
                                line_address, line2.data, is_pte=False
                            )
                            if victim is not None and victim.dirty:
                                handle_victim(victim, 0)
                            read_latency = lat12
                        else:
                            l2_misses += 1
                            result = read_below_l2(line_address, False, lat12)
                            read_latency = result.latency_cycles
                        victim = l1_fill(line_address, payload, dirty=True)
                        if victim is not None and victim.dirty:
                            handle_victim(victim, 0)
                        stall = lat1 + read_latency - l1_hit_latency
                        if stall > 0:
                            cycles += stall
                else:
                    # --- read (inline L1/L2 ladder; shared slow path) ---
                    reads += 1
                    if line is not None:
                        l1_hits += 1
                        lines.move_to_end(tag1)
                        # L1 hits are pipelined -> no stall
                    else:
                        hierarchy.cycle = prev_end
                        l1_misses += 1
                        tag2 = la >> l2_bits
                        lines2 = l2_sets.get(la & l2_mask)
                        line2 = None if lines2 is None else lines2.get(tag2)
                        if line2 is not None:
                            l2_hits += 1
                            lines2.move_to_end(tag2)
                            victim = l1_fill(
                                line_address, line2.data, is_pte=False
                            )
                            if victim is not None and victim.dirty:
                                handle_victim(victim, 0)
                            cycles += l2_stall
                        else:
                            l2_misses += 1
                            result = read_below_l2(line_address, False, lat12)
                            stall = result.latency_cycles - l1_hit_latency
                            if stall > 0:
                                cycles += stall
                prev_end = cycles
                done += 1
        else:
            # Untimed warmup: same access semantics, no cycle accounting
            # and no ``hierarchy.cycle`` updates (scalar warmup leaves
            # whatever value the previous phase set — usually 0).
            for virtual_address, is_write in zip(addr_list, write_list):
                key = (asid, virtual_address >> 12)
                entry = tlb_get(key)
                if entry is not None:
                    tlb_hits += 1
                    tlb_move(key)
                    physical = entry.pfn * PAGE_BYTES + (
                        virtual_address & page_mask
                    )
                elif walk_miss is not None:
                    # Untimed: same walk side effects, no cycle accounting
                    # and no ``hierarchy.cycle`` update (the scalar warmup
                    # leaves it stale too).
                    physical = walk_miss(virtual_address, key)[0]
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
                        payload = store_payload(line_address)
                    if line is not None:
                        line.data = payload
                        line.dirty = True
                        lines.move_to_end(tag1)
                    else:
                        reads += 1
                        l1_misses += 1
                        tag2 = la >> l2_bits
                        lines2 = l2_sets.get(la & l2_mask)
                        line2 = None if lines2 is None else lines2.get(tag2)
                        if line2 is not None:
                            l2_hits += 1
                            lines2.move_to_end(tag2)
                            victim = l1_fill(
                                line_address, line2.data, is_pte=False
                            )
                            if victim is not None and victim.dirty:
                                handle_victim(victim, 0)
                        else:
                            l2_misses += 1
                            read_below_l2(line_address, False, lat12)
                        victim = l1_fill(line_address, payload, dirty=True)
                        if victim is not None and victim.dirty:
                            handle_victim(victim, 0)
                else:
                    reads += 1
                    if line is not None:
                        l1_hits += 1
                        lines.move_to_end(tag1)
                    else:
                        l1_misses += 1
                        tag2 = la >> l2_bits
                        lines2 = l2_sets.get(la & l2_mask)
                        line2 = None if lines2 is None else lines2.get(tag2)
                        if line2 is not None:
                            l2_hits += 1
                            lines2.move_to_end(tag2)
                            victim = l1_fill(
                                line_address, line2.data, is_pte=False
                            )
                            if victim is not None and victim.dirty:
                                handle_victim(victim, 0)
                        else:
                            l2_misses += 1
                            read_below_l2(line_address, False, lat12)
                done += 1
    except BaseException:
        # Leave the exact state a scalar loop would have left: counters
        # flushed (below), front-end charge of the failing record already
        # applied, trace positioned after the failing (fully drawn) record.
        replayer.rewind_to(done + 1)
        raise
    finally:
        if timed:
            core.instructions += instr_acc
            core.cycles = cycles
            hierarchy.cycle = prev_end
        counters = walker_tlb._counters
        if tlb_hits:
            counters["hits"] = counters.get("hits", 0) + tlb_hits
        if tlb_misses:
            counters["misses"] = counters.get("misses", 0) + tlb_misses
        if tlb_evictions:
            counters["evictions"] = counters.get("evictions", 0) + tlb_evictions
        if mmu_hits or mmu_misses or mmu_evictions:
            counters = mmu_cache.stats.raw()
            if mmu_hits:
                counters["hits"] = counters.get("hits", 0) + mmu_hits
            if mmu_misses:
                counters["misses"] = counters.get("misses", 0) + mmu_misses
            if mmu_evictions:
                counters["evictions"] = (
                    counters.get("evictions", 0) + mmu_evictions
                )
        if walks or page_faults or integrity_failures:
            counters = walker.stats.raw()
            if walks:
                counters["walks"] = counters.get("walks", 0) + walks
            if page_faults:
                counters["page_faults"] = (
                    counters.get("page_faults", 0) + page_faults
                )
            if integrity_failures:
                counters["integrity_failures"] = (
                    counters.get("integrity_failures", 0) + integrity_failures
                )
        if walk_stall:
            counters = core.stats.raw()
            counters["walk_stall_cycles"] = (
                counters.get("walk_stall_cycles", 0) + walk_stall
            )
        counters = l1._counters
        if l1_hits:
            counters["hits"] = counters.get("hits", 0) + l1_hits
        if l1_misses:
            counters["misses"] = counters.get("misses", 0) + l1_misses
        counters = l2._counters
        if l2_hits:
            counters["hits"] = counters.get("hits", 0) + l2_hits
        if l2_misses:
            counters["misses"] = counters.get("misses", 0) + l2_misses
        counters = hierarchy._counters
        if reads:
            counters["reads"] = counters.get("reads", 0) + reads
        if writes:
            counters["writes"] = counters.get("writes", 0) + writes
