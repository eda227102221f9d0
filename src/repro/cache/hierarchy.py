"""Three-level cache hierarchy in front of the memory controller.

Models the paper's Table III memory system: L1 (split I/D in spirit; the
simulator routes data and walker traffic through L1D), a private L2 and a
last-level L3. Non-inclusive: a miss at level N probes level N+1; fills
propagate back up; dirty victims are written back to the next level down
and ultimately through the memory controller — where PT-Guard's write
pattern-match runs.

The ``is_pte`` tag travels with requests (the isPTE request-bus bit of
Figure 5) so DRAM reads triggered by page-table walks are MAC-checked.
The hierarchy surfaces ``pte_check_failed`` from the controller — caches
refuse to install a line that failed its integrity check (Sec IV-F:
"the caches do not install the line").
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.common.config import CACHELINE_BYTES, SystemConfig
from repro.common.stats import StatGroup
from repro.cache.cache import Cache, EvictedLine
from repro.mem.controller import MemoryController, MemoryRequest, MemoryResponse


class AccessResult(NamedTuple):
    """Outcome of one hierarchy access."""

    data: bytes
    latency_cycles: int
    hit_level: str  # "L1", "L2", "L3" or "DRAM"
    pte_check_failed: bool = False


class SharedLLCAdapter:
    """A shared last-level cache presented through the controller API.

    Multi-core systems give each core a private L1/L2
    :class:`CacheHierarchy` whose "controller" is this adapter: reads
    probe the shared LLC first and only misses reach the real memory
    controller (and PT-Guard); write-backs land in the LLC and spill to
    DRAM on eviction.
    """

    def __init__(self, llc: Cache, controller: MemoryController, hit_latency: int):
        self.llc = llc
        self.controller = controller
        self.hit_latency = hit_latency
        self.stats = StatGroup("shared_llc")
        self.ptguard = controller.ptguard
        self.dram = controller.dram
        # Writes always complete at the LLC hit latency; reuse one response.
        self._write_response = MemoryResponse(data=None, latency_cycles=hit_latency)

    def discard(self, address: int) -> None:
        """Coherence invalidation for the shared LLC (no write-back)."""
        self.llc.invalidate(address)

    def discard_lines(self, addresses) -> None:
        """:meth:`discard` every line of the set ``addresses``."""
        self.llc.discard_lines(addresses)

    def access(self, request: MemoryRequest):
        if request.is_write:
            return self.write_access(
                request.address, request.data, request.cycle, request.origin
            )
        return self.read_access(request.address, request.is_pte, request.cycle)

    def write_access(
        self,
        address: int,
        data: Optional[bytes],
        cycle: int = 0,
        origin: Optional[object] = None,
    ) -> MemoryResponse:
        self.stats.increment("writes")
        victim = self.llc.fill(address, data, dirty=True)
        if victim is not None and victim.dirty:
            self.controller.write_access(victim.address, victim.data, cycle, self)
        return self._write_response

    def read_access(
        self, address: int, is_pte: bool = False, cycle: int = 0
    ) -> MemoryResponse:
        self.stats.increment("pte_reads" if is_pte else "reads")
        line = self.llc.lookup(address)
        if line is not None:
            return MemoryResponse(data=line.data, latency_cycles=self.hit_latency)
        response = self.controller.read_access(address, is_pte, cycle)
        if response.data is not None and not response.pte_check_failed:
            victim = self.llc.fill(address, response.data, is_pte=is_pte)
            if victim is not None and victim.dirty:
                self.controller.write_access(victim.address, victim.data, cycle, self)
        return MemoryResponse(
            data=response.data,
            latency_cycles=self.hit_latency + response.latency_cycles,
            pte_check_failed=response.pte_check_failed,
            corrected=response.corrected,
            rekey_required=response.rekey_required,
            guard_outcome=response.guard_outcome,
        )


class CacheHierarchy:
    """L1D + L2 (+ L3) over a :class:`MemoryController`-compatible backend.

    By default builds the full three-level Table III hierarchy. Pass
    ``private_levels_only=True`` to build just L1/L2 (each core's private
    slice) over a :class:`SharedLLCAdapter`.
    """

    def __init__(
        self,
        config: SystemConfig,
        controller,
        private_levels_only: bool = False,
    ):
        self.config = config
        self.controller = controller
        self.l1 = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        if private_levels_only:
            self.l3 = None
            self._levels = [self.l1, self.l2]
            self._latencies = [config.l1d.hit_latency, config.l2.hit_latency]
            self._names = ["L1", "L2"]
        else:
            self.l3 = Cache(config.l3)
            self._levels = [self.l1, self.l2, self.l3]
            self._latencies = [
                config.l1d.hit_latency,
                config.l2.hit_latency,
                config.l3.hit_latency,
            ]
            self._names = ["L1", "L2", "L3"]
        self.stats = StatGroup("hierarchy")
        self._counters = self.stats.raw()  # inlined hot-path updates
        self._lat1 = self._latencies[0]
        self._lat12 = self._lat1 + self._latencies[1]
        self._lat3 = self._latencies[2] if self.l3 is not None else 0
        self.cycle = 0  # advanced by the owning core model

    # -- main access path -----------------------------------------------------

    def read(self, address: int, is_pte: bool = False) -> AccessResult:
        """Read one line; returns data, latency and where it hit.

        The level probes are unrolled (L1 → L2 → L3 → DRAM): this is the
        single hottest function of a simulation, and the generic loop costs
        an indexing + frame per level per access.
        """
        address = address & ~(CACHELINE_BYTES - 1)
        counters = self._counters
        try:
            counters["reads"] += 1
        except KeyError:
            counters["reads"] = 1
        line = self.l1.lookup(address)
        if line is not None:
            return AccessResult(line.data, self._lat1, "L1")
        return self.read_below_l1(address, is_pte)

    def read_below_l1(self, address: int, is_pte: bool) -> AccessResult:
        """Continue a read that missed L1: probe L2, then L3 and DRAM.

        The one L1-miss path of both core loops: :meth:`read` calls it
        after its L1 probe, and the batched execution core
        (:mod:`repro.cpu.batch_core`) after its inline L1 probe, so the
        two loops are outcome-identical by construction. An L2 hit refills
        L1 and pushes a dirty L1 victim down. ``address`` must already be
        line-aligned; the returned latency includes the L1 probe.
        """
        latency = self._lat12
        line = self.l2.lookup(address)
        if line is not None:
            data = line.data
            victim = self.l1.fill(address, data, is_pte=is_pte)
            if victim is not None and victim.dirty:
                self._handle_victim(victim, level=0)
            return AccessResult(data, latency, "L2")
        return self.read_below_l2(address, is_pte, latency)

    def read_below_l2(self, address: int, is_pte: bool, latency: int) -> AccessResult:
        """Continue a read that missed L1 and L2: probe L3, then DRAM.

        ``latency`` is the cycle cost already accumulated by the upper
        levels' probes; ``address`` must already be line-aligned.
        """
        counters = self._counters
        l3 = self.l3
        if l3 is not None:
            latency += self._lat3
            line = l3.lookup(address)
            if line is not None:
                data = line.data
                self._fill_upper(2, address, data, is_pte)
                return AccessResult(data, latency, "L3")
        # LLC miss: go to DRAM through the controller (and PT-Guard).
        try:
            counters["llc_misses"] += 1
        except KeyError:
            counters["llc_misses"] = 1
        response = self.controller.read_access(address, is_pte, self.cycle)
        latency += response.latency_cycles
        data = response.data if response.data is not None else bytes(CACHELINE_BYTES)
        if response.pte_check_failed:
            # Sec IV-F: the line is not installed; the failure propagates.
            return AccessResult(
                data=data,
                latency_cycles=latency,
                hit_level="DRAM",
                pte_check_failed=True,
            )
        self._fill_all(address, data, is_pte)
        return AccessResult(data, latency, "DRAM")

    def write(self, address: int, data: bytes) -> AccessResult:
        """Write one full line (write-back, write-allocate)."""
        address = self._align(address)
        if len(data) != CACHELINE_BYTES:
            raise ValueError("hierarchy writes are full-line")
        self.stats.increment("writes")
        latency = self._latencies[0]
        if self.l1.write_hit(address, data):
            return AccessResult(data=data, latency_cycles=latency, hit_level="L1")
        # Write-allocate: fetch the line (ignoring its old data), then dirty it.
        result = self.read(address)
        victim = self.l1.fill(address, data, dirty=True)
        self._handle_victim(victim, level=0)
        return AccessResult(
            data=data,
            latency_cycles=latency + result.latency_cycles,
            hit_level=result.hit_level,
        )

    def write_partial(self, address: int, offset: int, payload: bytes) -> AccessResult:
        """Read-modify-write a fragment of a line (OS stores, PTE updates)."""
        address = self._align(address)
        if offset + len(payload) > CACHELINE_BYTES:
            raise ValueError("partial write crosses the line boundary")
        result = self.read(address)
        line = bytearray(result.data)
        line[offset : offset + len(payload)] = payload
        write_result = self.write(address, bytes(line))
        return AccessResult(
            data=bytes(line),
            latency_cycles=result.latency_cycles + write_result.latency_cycles,
            hit_level=result.hit_level,
        )

    # -- fills, evictions, write-backs ----------------------------------------

    def _fill_upper(self, hit_index: int, address: int, data: bytes, is_pte: bool) -> None:
        """Propagate a line into the levels above the one that hit."""
        for index in range(hit_index - 1, -1, -1):
            victim = self._levels[index].fill(address, data, is_pte=is_pte)
            self._handle_victim(victim, level=index)

    def _fill_all(self, address: int, data: bytes, is_pte: bool) -> None:
        for index in range(len(self._levels) - 1, -1, -1):
            victim = self._levels[index].fill(address, data, is_pte=is_pte)
            self._handle_victim(victim, level=index)

    def _handle_victim(self, victim: Optional[EvictedLine], level: int) -> None:
        """Push a dirty victim one level down (or to DRAM from the LLC)."""
        if victim is None or not victim.dirty:
            return
        if level + 1 < len(self._levels):
            lower_victim = self._levels[level + 1].fill(
                victim.address, victim.data, dirty=True
            )
            self._handle_victim(lower_victim, level=level + 1)
        else:
            self.stats.increment("writebacks")
            self.controller.write_access(victim.address, victim.data, self.cycle, self)

    # -- maintenance ---------------------------------------------------------------

    def flush(self) -> None:
        """Write back and drop every line (used between experiment phases)."""
        for index, cache in enumerate(self._levels):
            for victim in cache.flush_all():
                if index + 1 < len(self._levels):
                    lower_victim = self._levels[index + 1].fill(
                        victim.address, victim.data, dirty=True
                    )
                    self._handle_victim(lower_victim, level=index + 1)
                else:
                    self.controller.write_access(
                        victim.address, victim.data, self.cycle, self
                    )

    def invalidate(self, address: int) -> None:
        """clflush-style: write back then drop one line from all levels."""
        address = self._align(address)
        for index, cache in enumerate(self._levels):
            victim = cache.invalidate(address)
            if victim is not None:
                if index + 1 < len(self._levels):
                    lower_victim = self._levels[index + 1].fill(
                        victim.address, victim.data, dirty=True
                    )
                    self._handle_victim(lower_victim, level=index + 1)
                else:
                    self.controller.write_access(
                        victim.address, victim.data, self.cycle, self
                    )

    def discard(self, address: int) -> None:
        """Coherence invalidation: drop a line without write-back.

        Called when another agent (the kernel's store path, another core's
        write-back) updates DRAM behind this hierarchy's back — modelling
        what hardware coherence would have done with the stale copy.
        """
        address = self._align(address)
        for cache in self._levels:
            cache.invalidate(address)

    def discard_lines(self, addresses) -> None:
        """:meth:`discard` every line of the set ``addresses`` (aligned)."""
        for cache in self._levels:
            cache.discard_lines(addresses)

    @staticmethod
    def _align(address: int) -> int:
        return address & ~(CACHELINE_BYTES - 1)

    # -- metrics -----------------------------------------------------------------

    @property
    def llc_misses(self) -> int:
        return self.stats.get("llc_misses")


def register_invariants(
    checker, hierarchy: CacheHierarchy, memory, tampered_fn=None
) -> None:
    """Register cache-consistency checks over a private hierarchy.

    Two invariants of the write-back protocol:

    * **clean-above-dirty**: wherever adjacent levels both hold a line and
      the upper copy is clean, the copies must be byte-identical (a clean
      upper copy can only have been filled from below and never diverges
      until dirtied).
    * **clean-vs-memory**: a line clean at every level that holds it, with
      no dirty copy anywhere, must match backing memory — either the raw
      stored bytes or their metadata-stripped form (PTE lines are
      installed post-strip). Lines named by ``tampered_fn()`` are skipped:
      caches *legitimately* shield pre-flip data after a Rowhammer/injected
      fault until eviction, and the attack experiments rely on it.

    Reads go straight to ``memory`` (never through the controller) so the
    check is side-effect-free.
    """
    from repro.core import pattern

    def check():
        tampered = tampered_fn() if tampered_fn is not None else frozenset()
        violations = []
        copies = {}  # address -> list of (level_name, CacheLine)
        for name, cache in zip(hierarchy._names, hierarchy._levels):
            for set_index, lines in cache._sets.items():
                for tag, line in lines.items():
                    address = cache._compose(set_index, tag)
                    copies.setdefault(address, []).append((name, line))
        for address, held in copies.items():
            for (upper_name, upper), (lower_name, lower) in zip(held, held[1:]):
                if not upper.dirty and upper.data != lower.data:
                    violations.append(
                        f"line {address:#x}: clean {upper_name} copy differs "
                        f"from {lower_name} copy"
                    )
            if address in tampered or any(line.dirty for _, line in held):
                continue
            stored = memory.read_line(address)
            candidates = (stored, pattern.strip_mac(stored), pattern.strip_metadata(stored))
            top = held[0][1].data
            if top not in candidates:
                violations.append(
                    f"line {address:#x}: clean cached copy matches neither "
                    f"backing memory nor its metadata-stripped form"
                )
        return violations

    checker.register("cache_consistency", check)
