"""Memory controller: the seam where PT-Guard lives (paper Sec IV-F, Fig 5).

The controller serves cacheline requests from the cache hierarchy and the
page-table walker. Requests carry the ``isPTE`` bit the paper adds to the
request bus; responses carry the ``PTECheckFailed`` bit. On every write
the guard's bit-pattern match runs before data reaches DRAM; on every
read the guard inspects the line coming out of DRAM before it is
forwarded, adding MAC-unit latency on the critical path where required.

Without a guard (``ptguard=None``) the controller is the unprotected
baseline of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from repro.common.config import CACHELINE_BYTES
from repro.common.errors import CollisionBufferOverflow
from repro.common.stats import StatGroup
from repro.core.guard import PTGuard, ReadOutcome

if TYPE_CHECKING:  # avoid a circular package import at runtime
    from repro.dram.device import DRAMDevice


@dataclass(frozen=True)
class MemoryRequest:
    """One cacheline transaction presented to the controller."""

    address: int  # line-aligned physical address
    is_write: bool
    is_pte: bool = False  # the isPTE request-bus bit (set on TLB-miss walks)
    data: Optional[bytes] = None  # required for writes
    cycle: int = 0
    # Coherence origin: the cache issuing a write-back, excluded from the
    # invalidation broadcast so its own (possibly newer) upper-level
    # copies survive.
    origin: Optional[object] = None

    def __post_init__(self) -> None:
        if self.address % CACHELINE_BYTES:
            raise ValueError(f"request address {self.address:#x} not line-aligned")
        if self.is_write and (self.data is None or len(self.data) != CACHELINE_BYTES):
            raise ValueError("write requests need a full 64-byte data payload")


class MemoryResponse(NamedTuple):
    """The controller's reply (a NamedTuple: built once per access, hot path)."""

    data: Optional[bytes]  # line forwarded to caches (None for writes)
    latency_cycles: int  # DRAM + MAC-unit latency on the critical path
    pte_check_failed: bool = False  # the PTECheckFailed response-bus bit
    corrected: bool = False  # PT-Guard transparently corrected the PTE line
    rekey_required: bool = False  # CTB overflowed; OS should trigger re-keying
    overflow_address: Optional[int] = None  # the colliding line (Sec VII-B:
    # reported to the OS so it can sanitise the address / kill the writer)
    guard_outcome: Optional[ReadOutcome] = None


class MemoryController:
    """FR-FCFS-less single-queue controller with an optional PT-Guard stage."""

    def __init__(self, dram: "DRAMDevice", ptguard: Optional[PTGuard] = None):
        self.dram = dram
        self.ptguard = ptguard
        self.stats = StatGroup("mem_controller")
        # Coherence listeners: caches that must drop their copy of a line
        # whenever some other agent writes it through this controller.
        self._coherence_listeners: list = []
        # Optional fault hook fired just before DRAM serves a read —
        # the window where a disturbance lands after the last scrub but
        # before the guard inspects the line (repro.faults campaigns).
        self._read_fault_hook = None
        # The guard's ReadOutcome of the latest guarded read (read_access
        # reports it alongside the plain values read returns).
        self.last_read_outcome: Optional[ReadOutcome] = None
        # Guarded reads that waited for the MAC unit, indexed by is_pte:
        # [data reads, page-walk reads]. A MAC-checked outcome is exactly
        # one that adds mac_latency_cycles to the read's latency. Slots 2
        # and 3 hold the same pair for the reads Optimized PT-Guard would
        # have checked (PTGuard.optimized_mac_checked), counted only while
        # count_optimized is set: a PT-Guard run then prices both designs.
        self.mac_checked_reads = [0, 0, 0, 0]
        self.count_optimized = False

    def install_read_fault_hook(self, hook) -> None:
        """Install ``hook(address, is_pte)`` called at the top of every
        read, before DRAM is consulted. Pass ``None`` to remove."""
        self._read_fault_hook = hook

    def attach_coherent_cache(self, cache) -> None:
        """Register an object with ``discard(address)`` and
        ``discard_lines(addresses)`` methods, notified on every foreign
        DRAM write (models hardware invalidation)."""
        self._coherence_listeners.append(cache)

    def access(self, request: MemoryRequest) -> MemoryResponse:
        """Serve one request; returns data (reads) and total latency."""
        if request.is_write:
            return self.write_access(
                request.address, request.data, request.cycle, request.origin
            )
        return self.read_access(request.address, request.is_pte, request.cycle)

    # -- write path -----------------------------------------------------------

    def write_access(
        self,
        address: int,
        data: Optional[bytes],
        cycle: int = 0,
        origin: Optional[object] = None,
    ) -> MemoryResponse:
        """Request-free write path (same semantics as a write ``access``)."""
        if address % CACHELINE_BYTES:
            raise ValueError(f"request address {address:#x} not line-aligned")
        if data is None or len(data) != CACHELINE_BYTES:
            raise ValueError("write requests need a full 64-byte data payload")
        self.stats.increment("writes")
        latency = self.dram.access(address, is_write=True, cycle=cycle)
        rekey_required = False
        overflow_address = None
        if self.ptguard is not None:
            try:
                outcome = self.ptguard.process_write(address, data)
                data = outcome.stored_line
            except CollisionBufferOverflow:
                # Sec VII-B: store the raw line and raise the condition to
                # the OS with the colliding address, so it can sanitise the
                # line (write a benign value), kill the offending process,
                # and trigger the re-key sweep.
                self.stats.increment("ctb_overflows")
                rekey_required = True
                overflow_address = address
        self.dram.write_line(address, data)
        # Only foreign stores (kernel port, DMA-style agents) invalidate
        # cached copies; a cache write-back (origin set) must not discard
        # other caches' possibly-newer copies of the line.
        if origin is None:
            for cache in self._coherence_listeners:
                cache.discard(address)
        return MemoryResponse(
            data=None,
            latency_cycles=latency,
            rekey_required=rekey_required,
            overflow_address=overflow_address,
        )

    # -- read path ---------------------------------------------------------------

    def read(self, address: int, is_pte: bool = False, cycle: int = 0):
        """Serve one line read; returns ``(data, latency, pte_check_failed)``.

        The one read path: the cache hierarchy's LLC misses call it
        directly, and :meth:`read_access` wraps it. With a guard, the
        guard's :class:`ReadOutcome` for the line is kept in
        ``last_read_outcome`` until the next guarded read.
        """
        if address % CACHELINE_BYTES:
            raise ValueError(f"request address {address:#x} not line-aligned")
        self.stats.increment("pte_reads" if is_pte else "reads")
        hook = self._read_fault_hook
        if hook is not None:
            hook(address, is_pte)
        dram = self.dram
        latency = dram.access(address, False, cycle)
        stored = dram.read_line(address)
        guard = self.ptguard
        if guard is None:
            return stored, latency, False

        outcome = self.last_read_outcome = guard.process_read(address, stored, is_pte)
        if outcome.mac_checked:
            self.mac_checked_reads[is_pte] += 1
        if self.count_optimized and guard.optimized_mac_checked(outcome.line, is_pte):
            self.mac_checked_reads[2 + is_pte] += 1
        if outcome.corrected_stored_line is not None:
            # Transparent repair: scrub the corrected line back into DRAM.
            dram.write_line(address, outcome.corrected_stored_line)
            self.stats.increment("correction_writebacks")
        if outcome.pte_check_failed:
            self.stats.increment("pte_check_failures")
        return outcome.line, latency + outcome.latency_cycles, outcome.pte_check_failed

    def read_access(
        self, address: int, is_pte: bool = False, cycle: int = 0
    ) -> MemoryResponse:
        """:meth:`read` as a :class:`MemoryResponse` carrying the guard outcome."""
        data, latency, failed = self.read(address, is_pte, cycle)
        if self.ptguard is None:
            return MemoryResponse(data=data, latency_cycles=latency)
        outcome = self.last_read_outcome
        return MemoryResponse(
            data=data,
            latency_cycles=latency,
            pte_check_failed=failed,
            corrected=outcome.corrected,
            guard_outcome=outcome,
        )

    # -- page zeroing ----------------------------------------------------------------

    def zero_lines(self, addresses: Sequence[int]) -> None:
        """Write a zero line to each of ``addresses`` in one ordered burst.

        Equivalent to a ``write_line`` of zeros per address, in order: the
        same guard transforms (``process_write`` once per line), DRAM
        traffic, counters and coherence discards, but one DRAM burst and
        no per-line response. A zero line always matches the bit pattern,
        so no write can overflow the CTB.
        """
        for address in addresses:
            if address % CACHELINE_BYTES:
                raise ValueError(f"request address {address:#x} not line-aligned")
        if addresses:
            self.stats.increment("writes", len(addresses))
        zero_line = bytes(CACHELINE_BYTES)
        guard = self.ptguard
        if guard is None:
            lines = [zero_line] * len(addresses)
        else:
            process_write = guard.process_write
            lines = [process_write(address, zero_line).stored_line for address in addresses]
        self.dram.sweep(addresses, lines)
        listeners = self._coherence_listeners
        for address in addresses:
            for cache in listeners:
                cache.discard(address)

    # -- re-key sweep (Sec VII-B) -------------------------------------------------

    def rekey_sweep(self, addresses: Sequence[int], rotate: Callable[[], None]) -> int:
        """Re-key ``addresses`` in one ordered burst; returns its cycles.

        Equivalent to a guarded ``read_line`` of every address, then
        ``rotate()`` (the guard's key-epoch switch), then a ``write_line``
        of every logical line, in the same order -- the same DRAM traffic,
        guard transforms, MAC computations and counters, but one DRAM
        burst per direction and no per-line response. The read fault
        hook, if installed, sees every address before the read burst.
        Coherence discards go only to lines some cache holds.
        """
        guard = self.ptguard
        stats = self.stats
        if addresses:
            stats.increment("reads", len(addresses))
        hook = self._read_fault_hook
        if hook is not None:
            for address in addresses:
                hook(address, False)
        cycles, stored = self.dram.sweep(addresses)
        process_read = guard.process_read
        logical = []
        for address, line in zip(addresses, stored):
            outcome = process_read(address, line, False)
            cycles += outcome.latency_cycles
            logical.append(outcome.line)
        rotate()
        if addresses:
            stats.increment("writes", len(addresses))
        process_write = guard.process_write
        for index, address in enumerate(addresses):
            try:
                logical[index] = process_write(address, logical[index]).stored_line
            except CollisionBufferOverflow:
                # Stored raw, as on the write path; the sweep itself is
                # the OS's answer to the overflow.
                stats.increment("ctb_overflows")
        cycles += self.dram.sweep(addresses, logical)[0]
        swept = set(addresses)
        for cache in self._coherence_listeners:
            cache.discard_lines(swept)
        return cycles

    # -- row retirement (repro.recovery) ---------------------------------------

    def retire_row_of(self, address: int):
        """Retire the DRAM row containing ``address`` to a spare row.

        The controller is the seam the OS talks to (a real deployment
        would drive post-package repair through controller MMIO): it
        resolves the victim row, delegates the migration + remap to the
        device, and broadcasts invalidations for the row's lines so no
        cache serves a stale copy across the switch. Returns the spare
        row key, or None when the spare budget is exhausted.
        """
        row_key = self.dram.mapper.row_key_of(address)
        spare = self.dram.retire_row(row_key)
        if spare is None:
            self.stats.increment("row_retirements_exhausted")
            return None
        for line_address in self.dram.mapper.row_addresses(row_key):
            for cache in self._coherence_listeners:
                cache.discard(line_address)
        self.stats.increment("row_retirements")
        return spare

    # -- convenience functional helpers (used by the OS substrate) -----------------

    def read_line(self, address: int, is_pte: bool = False) -> MemoryResponse:
        return self.read_access(address, is_pte)

    def write_line(self, address: int, data: bytes) -> MemoryResponse:
        return self.write_access(address, data)
