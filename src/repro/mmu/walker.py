"""Hardware page-table walker with TLB and MMU-cache front-ends.

On a TLB miss the walker performs the 4-level walk. Upper-level entries
are usually served by the MMU cache; entries that miss everything are
read from the memory system with the ``isPTE`` request bit set — these
are the accesses PT-Guard MAC-checks. A ``PTECheckFailed`` response
aborts the walk and surfaces as :class:`PTEIntegrityException`, the
exception the OS receives (Sec IV-F); the faulty line is never installed
in the TLB.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Protocol

from repro.common.config import CACHELINE_BYTES, PAGE_BYTES
from repro.common.errors import IntegrityError, PageFaultError
from repro.common.stats import StatGroup
from repro.mmu.page_table import LEVELS, PTE_SIZE, level_index, vpn_of
from repro.mmu.pte import X86PageTableEntry
from repro.mmu.mmu_cache import MMUCache
from repro.mmu.tlb import TLB, TLBEntry


class WalkPort(Protocol):
    """Memory-system interface the walker reads PTE lines through."""

    def read(self, address: int, is_pte: bool = False) -> "PortResult":
        ...


class PortResult(NamedTuple):
    data: bytes
    latency_cycles: int
    pte_check_failed: bool = False
    hit_level: str = "DRAM"


class ControllerPort:
    """Uncached adapter: every walker read goes straight to the controller.

    Used by the functional/attack path, where cache shielding is managed
    explicitly by the experiment (flush before hammering, etc.).
    """

    def __init__(self, controller):
        self.controller = controller

    def read(self, address: int, is_pte: bool = False) -> PortResult:
        data, latency, failed = self.controller.read(
            address & ~(CACHELINE_BYTES - 1), is_pte
        )
        return PortResult(data, latency, failed)


class PTEIntegrityException(IntegrityError):
    """Raised when a page-table walk hits a MAC-check failure."""

    def __init__(self, virtual_address: int, level: int, entry_address: int):
        self.virtual_address = virtual_address
        self.level = level
        super().__init__(
            entry_address,
            f"PTECheckFailed at level {level} walking VA {virtual_address:#x} "
            f"(PTE line {entry_address & ~0x3F:#x})",
        )


class WalkResult(NamedTuple):
    """A completed translation."""

    pfn: int
    entry: TLBEntry
    latency_cycles: int
    tlb_hit: bool
    levels_walked: int  # memory reads the walk needed (0 on TLB hit)


class PageWalker:
    """TLB + MMU-cache + 4-level walker for one hardware thread."""

    def __init__(
        self,
        port: WalkPort,
        tlb: Optional[TLB] = None,
        mmu_cache: Optional[MMUCache] = None,
        tlb_hit_latency: int = 1,
    ):
        self.port = port
        self.tlb = tlb if tlb is not None else TLB()
        self.mmu_cache = mmu_cache if mmu_cache is not None else MMUCache()
        self.tlb_hit_latency = tlb_hit_latency
        self.stats = StatGroup("walker")

    def translate(
        self, asid: int, root_pfn: int, virtual_address: int, tlb_checked: bool = False
    ) -> WalkResult:
        """Translate ``virtual_address``; may raise PageFaultError or
        PTEIntegrityException.

        ``tlb_checked=True`` skips the TLB probe — for callers (the core's
        hot path) that already probed it themselves and missed, so the
        TLB's hit/miss counters see exactly one probe per attempt.
        """
        vpn = vpn_of(virtual_address)
        if not tlb_checked:
            cached = self.tlb.lookup(asid, vpn)
            if cached is not None:
                return WalkResult(
                    pfn=cached.pfn,
                    entry=cached,
                    latency_cycles=self.tlb_hit_latency,
                    tlb_hit=True,
                    levels_walked=0,
                )
        self.stats.increment("walks")
        latency = self.tlb_hit_latency
        table_pfn = root_pfn
        levels_walked = 0
        for level in range(LEVELS):
            entry_address = (
                table_pfn * PAGE_BYTES + level_index(virtual_address, level) * PTE_SIZE
            )
            entry_value: Optional[int] = None
            if level < LEVELS - 1:
                entry_value = self.mmu_cache.lookup(entry_address)
            if entry_value is None:
                levels_walked += 1
                result = self.port.read(entry_address & ~(CACHELINE_BYTES - 1), is_pte=True)
                latency += result.latency_cycles
                if result.pte_check_failed:
                    self.stats.increment("integrity_failures")
                    raise PTEIntegrityException(virtual_address, level, entry_address)
                offset = entry_address & (CACHELINE_BYTES - 1)
                entry_value = int.from_bytes(
                    result.data[offset : offset + PTE_SIZE], "little"
                )
            decoded = X86PageTableEntry(entry_value)
            if not decoded.present:
                # Not-present entries are never cached (as in real
                # page-walk caches) — the OS will install a mapping and
                # the retry must observe it.
                self.stats.increment("page_faults")
                raise PageFaultError(virtual_address, level)
            if level < LEVELS - 1:
                self.mmu_cache.insert(entry_address, entry_value)
            table_pfn = decoded.pfn

        leaf = X86PageTableEntry(entry_value)
        tlb_entry = TLBEntry(
            pfn=leaf.pfn,
            writable=leaf.writable,
            user_accessible=leaf.user_accessible,
            no_execute=leaf.no_execute,
            global_page=leaf.global_page,
        )
        self.tlb.insert(asid, vpn, tlb_entry)
        return WalkResult(
            pfn=leaf.pfn,
            entry=tlb_entry,
            latency_cycles=latency,
            tlb_hit=False,
            levels_walked=levels_walked,
        )

    def invalidate(self, asid: int, virtual_address: int) -> None:
        """invlpg + page-walk-cache shootdown for one page."""
        self.tlb.invalidate_page(asid, vpn_of(virtual_address))
        self.mmu_cache.flush()

    def flush_all(self) -> None:
        self.tlb.flush()
        self.mmu_cache.flush()


# -- runtime validation (repro.faults.invariants) ------------------------------
#
# Shadow walks re-derive translations straight from backing memory —
# never through the controller/port, whose reads would perturb DRAM
# open-row state, guard statistics and cache contents mid-measurement.

def _pte_metadata_mask() -> int:
    from repro.core import pattern

    mac = ((1 << pattern.MAC_BITS_PER_PTE) - 1) << pattern.MAC_FIELD_LOW
    ident = ((1 << pattern.ID_BITS_PER_PTE) - 1) << pattern.ID_FIELD_LOW
    return ~(mac | ident) & ((1 << 64) - 1)


_STRIP_MASK = None


def _stripped_pte(raw: int) -> int:
    global _STRIP_MASK
    if _STRIP_MASK is None:
        _STRIP_MASK = _pte_metadata_mask()
    return raw & _STRIP_MASK


def shadow_tlb_entry(kernel, asid: int, vpn: int):
    """Side-effect-free re-walk of the live page tables for one VPN.

    Returns ``(TLBEntry_or_None, touched_line_addresses)`` — the lines
    read let the caller skip translations shadowed by known DRAM tampering
    (cache/TLB shielding is legitimate, not a simulator bug).
    """
    touched = set()
    process = kernel.processes.get(asid)
    if process is None:
        return None, touched
    memory = kernel.controller.dram.memory
    virtual_address = vpn * PAGE_BYTES
    table_pfn = process.page_table.root_pfn
    decoded = None
    for level in range(LEVELS):
        entry_address = (
            table_pfn * PAGE_BYTES + level_index(virtual_address, level) * PTE_SIZE
        )
        touched.add(entry_address & ~(CACHELINE_BYTES - 1))
        raw = int.from_bytes(memory.read(entry_address, PTE_SIZE), "little")
        decoded = X86PageTableEntry(_stripped_pte(raw))
        if not decoded.present:
            return None, touched
        table_pfn = decoded.pfn
    return (
        TLBEntry(
            pfn=decoded.pfn,
            writable=decoded.writable,
            user_accessible=decoded.user_accessible,
            no_execute=decoded.no_execute,
            global_page=decoded.global_page,
        ),
        touched,
    )


def register_invariants(checker, walker: PageWalker, kernel, tampered_fn=None) -> None:
    """Register the MMU (page-walk) cache consistency check.

    Every cached upper-level entry must equal the live in-memory PTE at
    its physical address — either raw or with the embedded MAC/identifier
    metadata stripped (the walker caches post-strip values). Entries on
    lines in ``tampered_fn()`` are skipped (legitimate shielding).
    """
    memory = kernel.controller.dram.memory

    def check():
        tampered = tampered_fn() if tampered_fn is not None else frozenset()
        violations = []
        for entry_address, value in walker.mmu_cache.entries():
            line_address = entry_address & ~(CACHELINE_BYTES - 1)
            if line_address in tampered:
                continue
            raw = int.from_bytes(memory.read(entry_address, PTE_SIZE), "little")
            if value != raw and value != _stripped_pte(raw):
                violations.append(
                    f"MMU cache holds {value:#x} for PTE at {entry_address:#x} "
                    f"but memory holds {raw:#x} "
                    f"(stripped {_stripped_pte(raw):#x})"
                )
        return violations

    checker.register("mmu_cache_consistency", check)
