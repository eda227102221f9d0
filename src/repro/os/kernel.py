"""The OS substrate: a miniature kernel over the simulated machine.

The kernel owns the physical-page allocator and builds *real* page tables
in simulated DRAM, writing every PTE through the memory controller — so
PT-Guard's write-side pattern match sees genuine page-table traffic
without any software cooperation, exactly the paper's deployment model.

Responsibilities:

* physical memory management (buddy allocator; a reserved kernel region);
* process lifecycle (create/destroy, ASIDs, page-table roots);
* demand paging (page-fault handling on first touch);
* the ``PhysicalPort`` used by page tables — line-granularity
  read-modify-write through the controller, mirroring how real PTE stores
  travel through the cache hierarchy to DRAM;
* handling PT-Guard's integrity exception (kill process / report), and
  the CTB-overflow re-key sweep (Sec VII-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.config import CACHELINE_BYTES, PAGE_BYTES, SystemConfig
from repro.common.errors import AllocationError, PageFaultError
from repro.common.stats import StatGroup
from repro.mem.controller import MemoryController
from repro.mmu.page_table import LEVELS, PageTable
from repro.mmu.pte import X86PageTableEntry, make_x86_pte
from repro.mmu.walker import ControllerPort, PageWalker, PTEIntegrityException
from repro.os.allocator import BuddyAllocator
from repro.os.process import VMA, Process
from repro.recovery.shadow import ShadowEntry, ShadowMap

KERNEL_RESERVED_PAGES = 256  # first 1 MB: "kernel image + boot structures"


class ControllerPhysicalPort:
    """Line-granularity physical access through the memory controller.

    Models the path OS stores take: a read-modify-write of the containing
    cacheline. Reads of protected lines come back MAC-stripped; writes of
    PTE lines match the bit pattern and get a fresh MAC embedded.
    """

    def __init__(self, controller: MemoryController):
        self.controller = controller

    def read_u64(self, address: int) -> int:
        line_address = address & ~(CACHELINE_BYTES - 1)
        response = self.controller.read_line(line_address)
        offset = address - line_address
        return int.from_bytes(response.data[offset : offset + 8], "little")

    def write_u64(self, address: int, value: int) -> None:
        line_address = address & ~(CACHELINE_BYTES - 1)
        response = self.controller.read_line(line_address)
        line = bytearray(response.data)
        offset = address - line_address
        line[offset : offset + 8] = (value & (1 << 64) - 1).to_bytes(8, "little")
        self.controller.write_line(line_address, bytes(line))

    def read_bytes(self, address: int, length: int) -> bytes:
        out = bytearray()
        cursor = address
        while len(out) < length:
            line_address = cursor & ~(CACHELINE_BYTES - 1)
            response = self.controller.read_line(line_address)
            offset = cursor - line_address
            take = min(CACHELINE_BYTES - offset, length - len(out))
            out += response.data[offset : offset + take]
            cursor += take
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        cursor = address
        view = memoryview(data)
        while view:
            line_address = cursor & ~(CACHELINE_BYTES - 1)
            offset = cursor - line_address
            take = min(CACHELINE_BYTES - offset, len(view))
            if take == CACHELINE_BYTES:
                self.controller.write_line(line_address, bytes(view[:take]))
            else:
                response = self.controller.read_line(line_address)
                line = bytearray(response.data)
                line[offset : offset + take] = view[:take]
                self.controller.write_line(line_address, bytes(line))
            cursor += take
            view = view[take:]


class _ShadowWriter:
    """Per-process page-table store hook feeding the shadow map.

    A module-level callable (not a closure) so booted systems stay
    picklable for the boot-snapshot disk tier.
    """

    __slots__ = ("shadow", "pid")

    def __init__(self, shadow: ShadowMap, pid: int):
        self.shadow = shadow
        self.pid = pid

    def __call__(
        self, entry_address: int, value: int, level: int, virtual_address: int
    ) -> None:
        if value == 0:
            self.shadow.forget(entry_address)
            return
        leaf = level == LEVELS - 1
        self.shadow.record(
            ShadowEntry(
                pid=self.pid,
                level=level,
                entry_address=entry_address,
                value=value,
                virtual_address=virtual_address if leaf else None,
                pfn=X86PageTableEntry(value).pfn if leaf else None,
            )
        )


@dataclass
class IntegrityIncident:
    """Record of one PTECheckFailed exception delivered to the kernel."""

    pid: int
    virtual_address: int
    entry_address: int
    action: str  # "killed" | "corrected" | "reported"


class Kernel:
    """Miniature OS over one memory controller."""

    def __init__(self, controller: MemoryController, config: Optional[SystemConfig] = None):
        self.controller = controller
        self.config = config if config is not None else SystemConfig()
        self.port = ControllerPhysicalPort(controller)
        total_pages = self.controller.dram.config.size_bytes // PAGE_BYTES
        # Spare rows reserved for retirement sit at the top of the address
        # space; the allocator must never hand those pages out.
        spare_pages = self.controller.dram.reserved_spare_pages
        self.allocator = BuddyAllocator(
            base_pfn=KERNEL_RESERVED_PAGES,
            num_pages=total_pages - KERNEL_RESERVED_PAGES - spare_pages,
        )
        # Shadow reverse map: every PTE store any process's page table
        # makes is mirrored here (repro.recovery reconstruction source).
        self.shadow = ShadowMap()
        self.processes: Dict[int, Process] = {}
        self.incidents: List[IntegrityIncident] = []
        self.walker = PageWalker(ControllerPort(controller))
        self.stats = StatGroup("kernel")
        self.last_rekey_cycles = 0
        self._next_pid = 1

    # -- frame management -------------------------------------------------------

    def allocate_table_page(self) -> int:
        """Allocate and *zero through the controller* one page-table page.

        Zeroing through the controller is essential: every PTE line of the
        new table crosses the guard's write path, matches the bit pattern
        (all zeros) and receives its MAC — so a later hardware walk of a
        not-yet-populated line passes its integrity check.
        """
        pfn = self.allocator.alloc_page()
        self.zero_page(pfn)
        self.stats.increment("table_pages")
        return pfn

    def zero_page(self, pfn: int) -> None:
        """Zero the page's lines in one controller write burst, in address
        order; each line crosses the guard's write path as a store would."""
        base = pfn * PAGE_BYTES
        self.controller.zero_lines(range(base, base + PAGE_BYTES, CACHELINE_BYTES))

    # -- process lifecycle ----------------------------------------------------------

    def create_process(self, name: str = "proc") -> Process:
        root_pfn = self.allocate_table_page()
        pid = self._next_pid
        self._next_pid += 1
        page_table = PageTable(
            self.port,
            root_pfn,
            allocate_table_page=self.allocate_table_page,
            on_entry_written=self._shadow_writer(pid),
        )
        process = Process(pid=pid, name=name, page_table=page_table)
        self.processes[pid] = process
        self.stats.increment("processes_created")
        return process

    def _shadow_writer(self, pid: int) -> "_ShadowWriter":
        """Per-process page-table store hook feeding the shadow map."""
        return _ShadowWriter(self.shadow, pid)

    def destroy_process(self, process: Process) -> None:
        """Free every frame and table page the process owns."""
        for pfn in process.frames.values():
            self.allocator.free_pages(pfn)
        for table_pfn in process.page_table.table_pfns:
            self.allocator.free_pages(table_pfn)
        self.shadow.forget_pid(process.pid)
        self.processes.pop(process.pid, None)
        self.walker.tlb.invalidate_asid(process.asid)
        # The walk cache keys entries by physical address; the freed table
        # frames may be re-used by another process, so shoot it down.
        self.walker.mmu_cache.flush()
        self.stats.increment("processes_destroyed")

    # -- mmap + demand paging ----------------------------------------------------------

    def mmap(
        self,
        process: Process,
        num_pages: int,
        name: str = "anon",
        writable: bool = True,
        executable: bool = False,
        at: Optional[int] = None,
        populate: bool = False,
    ) -> VMA:
        """Create a VMA; optionally fault every page in immediately."""
        if at is not None:
            vma = process.add_vma(
                VMA(start=at, num_pages=num_pages, writable=writable,
                    executable=executable, name=name)
            )
        else:
            vma = process.reserve_mmap_region(
                num_pages, name=name, writable=writable, executable=executable
            )
        if populate:
            for page in range(num_pages):
                self.handle_page_fault(process, vma.start + page * PAGE_BYTES)
        return vma

    def handle_page_fault(self, process: Process, virtual_address: int) -> int:
        """Demand-paging fault: allocate a frame and map it. Returns the PFN."""
        vma = process.find_vma(virtual_address)
        if vma is None:
            raise PageFaultError(virtual_address, level=-1, message="SIGSEGV: no VMA")
        vpn = virtual_address >> 12
        if vpn in process.frames:
            return process.frames[vpn]
        pfn = self.allocator.alloc_page()
        process.frames[vpn] = pfn
        process.page_table.map(
            virtual_address & ~(PAGE_BYTES - 1),
            pfn,
            writable=vma.writable,
            user=True,
            no_execute=not vma.executable,
        )
        self.stats.increment("page_faults")
        return pfn

    # -- user access path (functional) ---------------------------------------------------

    def access_virtual(
        self, process: Process, virtual_address: int, write: bool = False
    ) -> int:
        """Translate a user access, faulting pages in on demand.

        Returns the physical address. PT-Guard integrity failures during
        the walk surface as :class:`PTEIntegrityException` *after* being
        recorded as an incident (the OS's exception handler runs first).
        """
        faults = 0
        while True:
            try:
                result = self.walker.translate(
                    process.asid, process.page_table.root_pfn, virtual_address
                )
                return result.pfn * PAGE_BYTES + (virtual_address & (PAGE_BYTES - 1))
            except PageFaultError:
                faults += 1
                if faults == 2:
                    # The page was supposedly resident yet the walk still
                    # faults (e.g. a flipped present bit): re-establish the
                    # mapping explicitly, as an OS would on a spurious fault.
                    vpn = virtual_address >> 12
                    pfn = process.frames.get(vpn)
                    if pfn is not None:
                        process.page_table.map(
                            virtual_address & ~(PAGE_BYTES - 1), pfn,
                            writable=True, user=True,
                        )
                        continue
                if faults > 2:
                    # Unresolvable: surface it rather than loop (the OS
                    # would deliver SIGBUS).
                    raise
                self.handle_page_fault(process, virtual_address)
            except PTEIntegrityException as exc:
                self.incidents.append(
                    IntegrityIncident(
                        pid=process.pid,
                        virtual_address=virtual_address,
                        entry_address=exc.line_address,
                        action="killed",
                    )
                )
                self.stats.increment("integrity_kills")
                raise

    def read_virtual(self, process: Process, virtual_address: int, length: int) -> bytes:
        """Read user memory through translation (may fault pages in)."""
        out = bytearray()
        cursor = virtual_address
        while len(out) < length:
            physical = self.access_virtual(process, cursor)
            take = min(PAGE_BYTES - (cursor & (PAGE_BYTES - 1)), length - len(out))
            out += self.port.read_bytes(physical, take)
            cursor += take
        return bytes(out)

    def write_virtual(self, process: Process, virtual_address: int, data: bytes) -> None:
        """Write user memory through translation (may fault pages in)."""
        cursor = virtual_address
        view = memoryview(data)
        while view:
            physical = self.access_virtual(process, cursor, write=True)
            take = min(PAGE_BYTES - (cursor & (PAGE_BYTES - 1)), len(view))
            self.port.write_bytes(physical, bytes(view[:take]))
            cursor += take
            view = view[take:]

    # -- PTE-line reconstruction (repro.recovery) -----------------------------------------

    def reconstruct_pte_line(self, line_address: int) -> tuple[bool, int]:
        """Rebuild a corrupted page-table cacheline from the shadow map.

        Each of the 8 PTE slots is rebuilt from its :class:`ShadowEntry`;
        slots with no shadow become not-present (zero). Leaf slots are
        cross-checked against the owning process's ``frames`` map (the
        authoritative allocation record): a disagreeing PFN is repaired
        from ``frames`` keeping the shadow's permission bits, a mapping
        that no longer exists (or whose owner died) is dropped. The
        rebuilt line is written through the controller — the guard embeds
        a fresh MAC — then re-verified through the real isPTE read path.

        Returns ``(ok, cycles)``: whether the line now passes its
        integrity check, and the controller cycles the repair consumed.
        """
        base = line_address & ~(CACHELINE_BYTES - 1)
        line = bytearray(CACHELINE_BYTES)
        covered = False
        for slot in range(CACHELINE_BYTES // 8):
            entry_address = base + slot * 8
            entry = self.shadow.lookup(entry_address)
            if entry is None:
                continue
            owner = self.processes.get(entry.pid)
            if owner is None:
                # Shadow outlived its process: stale, rebuild as hole.
                self.shadow.forget(entry_address)
                self.stats.increment("stale_shadow_drops")
                continue
            value = entry.value
            if entry.is_leaf:
                authoritative = owner.frames.get(entry.vpn)
                if authoritative is None:
                    # The mapping is gone (unmapped frame): drop the slot.
                    self.shadow.forget(entry_address)
                    self.stats.increment("stale_shadow_drops")
                    continue
                decoded = X86PageTableEntry(value)
                if decoded.pfn != authoritative:
                    # Stale shadow value: repair from the frames map,
                    # keeping the recorded permission bits.
                    value = make_x86_pte(
                        authoritative,
                        writable=decoded.writable,
                        user=decoded.user_accessible,
                        no_execute=decoded.no_execute,
                        protection_key=decoded.protection_key,
                    )
                    entry.value = value
                    entry.pfn = authoritative
                    self.stats.increment("stale_shadow_repairs")
            line[slot * 8 : slot * 8 + 8] = value.to_bytes(8, "little")
            covered = True
        if not covered:
            self.stats.increment("reconstruction_misses")
            return False, 0
        write_response = self.controller.write_line(base, bytes(line))
        verify_response = self.controller.read_line(base, is_pte=True)
        cycles = write_response.latency_cycles + verify_response.latency_cycles
        if verify_response.pte_check_failed:
            self.stats.increment("reconstruction_failures")
            return False, cycles
        # Translations derived from the corrupt line must not survive.
        self.walker.tlb.flush()
        self.walker.mmu_cache.flush()
        self.stats.increment("pte_lines_reconstructed")
        return True, cycles

    # -- PT-Guard maintenance hooks -------------------------------------------------------

    def handle_ctb_overflow(self, overflow_address: int) -> None:
        """The Sec VII-B overflow response: sanitise the colliding line by
        writing a benign value (zeros) to it, so it no longer collides,
        then re-key the whole memory. In a real deployment the OS would
        also kill the process that crafted the colliding value."""
        self.controller.write_line(overflow_address, bytes(CACHELINE_BYTES))
        self.stats.increment("ctb_overflow_responses")
        self.rekey_memory()

    def rekey_memory(self) -> int:
        """Full-memory re-key after CTB pressure (Sec VII-B).

        Reads every resident line under the old key (stripping MACs where
        present), rotates the guard's key epoch, and rewrites the lines so
        fresh MACs are embedded -- one controller sweep in the backing
        store's line order. Returns the number of lines rewritten.
        """
        guard = self.controller.ptguard
        if guard is None:
            self.last_rekey_cycles = 0
            return 0
        addresses = list(self.controller.dram.memory.touched_lines())
        cycles = self.controller.rekey_sweep(addresses, guard.rekey)
        self.stats.increment("rekeys")
        # Controller cycles the sweep cost (read-old-key + write-new-key);
        # recovery accounting reads this right after triggering a rekey.
        self.last_rekey_cycles = cycles
        return len(addresses)
