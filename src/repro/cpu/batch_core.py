"""Fused batch execution loop for :class:`~repro.cpu.core.InOrderCore`.

The scalar path costs ~45 Python calls per access (``next_record`` →
``_execute`` → ``_translate`` → ``hierarchy.read``/``write`` → per-level
``Cache.lookup``). This module collapses the common case — TLB hit, L1
hit — into one flat loop over a pre-generated batch of trace records
(:class:`~repro.cpu.trace_vector.VectorTraceReplayer`), inlining the TLB
probe, the L1 probe and the L1 write-hit update as plain dict
operations. Everything else leaves the loop for the *unmodified* scalar
implementation: a TLB miss takes ``InOrderCore._translate`` (and so
``PageWalker.translate``, demand-paging faults and integrity failures
included), and an L1 miss takes ``CacheHierarchy.read_below_l1``, the
one L1-miss path the scalar ``CacheHierarchy.read`` uses too. Because
every slow path is the scalar implementation itself and every inline
fast path replicates the scalar side effects exactly (counters, LRU
``move_to_end`` order, cycle accounting, ``hierarchy.cycle`` visibility
to the memory controller), a batched run is bit-identical to a scalar
run: same ``CoreResult``, same stat counters, same DRAM traffic, same
PT-Guard outcomes — the equivalence is asserted by
``tests/test_batch_equivalence.py`` and the scalar points of
``ci/equivalence_matrix.py``.

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

from repro.common.config import CACHELINE_BYTES, PAGE_BYTES
from repro.common.errors import InvariantViolation
from repro.common.stats import StatGroup

from repro.cpu import core as core_mod
from repro.cpu.trace_vector import VectorTraceReplayer
from repro.faults.invariants import validation_enabled

#: Module-wide statistics for the sampled replay oracle, following the
#: ``faults/invariants`` StatGroup discipline (shared across runs;
#: ``batches_checked`` / ``records_checked`` / ``violations``).
ORACLE_STATS = StatGroup("batch_replay_oracle")

#: Cross-check every Nth batch under ``--validate`` — a sampled
#: fraction, same cost philosophy as the MAC differential oracle's
#: ``sample_period``.
ORACLE_PERIOD = 16


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
    # L1 probe — any change there must be mirrored here; the equivalence
    # tests exist to catch a drift).
    tlb_get = walker_tlb._entries.get
    tlb_move = walker_tlb._entries.move_to_end
    l1 = hierarchy.l1
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    l1_bits = l1._set_bits
    l1_fill = l1.fill
    handle_victim = hierarchy._handle_victim
    read_below_l1 = hierarchy.read_below_l1
    payload_cache = core_mod._PAYLOAD_CACHE
    lat1 = hierarchy._lat1

    line_mask = ~(CACHELINE_BYTES - 1)
    page_mask = PAGE_BYTES - 1

    # Deferred counter accumulators (flushed in ``finally``).
    tlb_hits = 0
    l1_hits = 0
    l1_misses = 0
    reads = 0
    writes = 0

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
                    # core._translate re-probes (counting the miss),
                    # walks, and adds the walk stall to core.cycles.
                    hierarchy.cycle = prev_end
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
                        # path does — then dirty it into L1.
                        hierarchy.cycle = prev_end
                        reads += 1
                        l1_misses += 1
                        read_latency = read_below_l1(
                            line_address, False
                        ).latency_cycles
                        victim = l1_fill(line_address, payload, dirty=True)
                        if victim is not None and victim.dirty:
                            handle_victim(victim, 0)
                        stall = lat1 + read_latency - l1_hit_latency
                        if stall > 0:
                            cycles += stall
                else:
                    # --- read (inline L1 probe; shared L1-miss path) ---
                    reads += 1
                    if line is not None:
                        l1_hits += 1
                        lines.move_to_end(tag1)
                        # L1 hits are pipelined -> no stall
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
                        read_below_l1(line_address, False)
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
                        read_below_l1(line_address, False)
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
