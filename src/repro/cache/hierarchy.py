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

Below L1 there is one read path, :meth:`CacheHierarchy.read_below_l1`,
and one fill-and-victim cascade, :meth:`CacheHierarchy._fill`, which
every install and every dirty-victim push goes through.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional

from repro.common.config import CACHELINE_BYTES, SystemConfig
from repro.common.stats import StatGroup
from repro.cache.cache import Cache, CacheLine
from repro.mem.controller import MemoryController, MemoryResponse


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
    (:meth:`read`) probe the shared LLC first and only misses reach the
    real memory controller (and PT-Guard); write-backs land in the LLC and
    spill to DRAM on eviction.
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

    def read(self, address: int, is_pte: bool = False, cycle: int = 0):
        """:meth:`MemoryController.read` through the shared LLC; returns
        ``(data, latency, pte_check_failed)``."""
        self.stats.increment("pte_reads" if is_pte else "reads")
        line = self.llc.lookup(address)
        if line is not None:
            return line.data, self.hit_latency, False
        data, latency, failed = self.controller.read(address, is_pte, cycle)
        if not failed:
            victim = self.llc.fill(address, data, is_pte=is_pte)
            if victim is not None and victim.dirty:
                self.controller.write_access(victim.address, victim.data, cycle, self)
        return data, self.hit_latency + latency, failed


class CacheHierarchy:
    """L1D + L2 (+ L3) over a :class:`MemoryController`-compatible backend.

    By default builds the full three-level Table III hierarchy. Pass
    ``private_levels_only=True`` to build just L1/L2 (each core's private
    slice) over a :class:`SharedLLCAdapter`. Either backend serves the
    hierarchy's LLC misses through ``read(address, is_pte, cycle)`` and its
    write-backs through ``write_access``.
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
        # Per-level handles for the probes of read_below_l1, the installs
        # of _fill and the drops of discard, which inline Cache.lookup,
        # Cache.fill and Cache.invalidate: a change there must be mirrored
        # here (tests/test_miss_path.py compares the hierarchy against the
        # per-level Cache methods).
        self._handles = [
            (c._sets, c._set_mask, c._set_bits, c._offset_bits, c._assoc, c._counters)
            for c in self._levels
        ]
        # The levels below L1 in probe order: (the level above, handles,
        # latency of the probes down to this level, name).
        self._probes = [
            (level - 1, self._handles[level], sum(self._latencies[: level + 1]), name)
            for level, name in enumerate(self._names)
            if level
        ]
        self.cycle = 0  # advanced by the owning core model

    # -- main access path -----------------------------------------------------

    def read(self, address: int, is_pte: bool = False) -> AccessResult:
        """Read one line; returns data, latency and where it hit.

        Probes L1, then continues in :meth:`read_below_l1`. Page walks,
        OS stores, write-allocate fetches and the multicore model read
        through here; ``InOrderCore.run`` inlines this L1 probe and calls
        :meth:`read_below_l1` directly.
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
        """Continue a read that missed L1: probe L2 and L3, then DRAM.

        The one L1-miss path: :meth:`read` calls it after its L1 probe,
        and ``InOrderCore.run`` after its inline L1 probe (for reads and
        write-allocate fetches alike), so the core loop and every other
        reader of the hierarchy agree by construction. A hit installs the
        line in the levels above the one that hit. An LLC miss reads the
        line through the controller's ``read`` (and PT-Guard) and installs
        it in every level, bottom-up, unless it failed its integrity check
        (Sec IV-F). Installs go through :meth:`_fill`. ``address`` must
        already be line-aligned; the returned latency includes the L1 probe.
        """
        for upper, (sets, mask, set_bits, offset_bits, _, counters), latency, name in (
            self._probes
        ):
            # Cache.lookup, inlined.
            tag = address >> offset_bits
            lines = sets.get(tag & mask)
            if lines is not None:
                tag >>= set_bits
                line = lines.get(tag)
                if line is not None:
                    try:
                        counters["hits"] += 1
                    except KeyError:
                        counters["hits"] = 1
                    lines.move_to_end(tag)
                    data = line.data
                    self._fill(address, data, False, is_pte, upper)
                    return AccessResult(data, latency, name)
            try:
                counters["misses"] += 1
            except KeyError:
                counters["misses"] = 1
        # LLC miss: go to DRAM through the controller (and PT-Guard).
        counters = self._counters
        try:
            counters["llc_misses"] += 1
        except KeyError:
            counters["llc_misses"] = 1
        data, dram_latency, failed = self.controller.read(address, is_pte, self.cycle)
        latency += dram_latency
        if failed:
            # Sec IV-F: the line is not installed; the failure propagates.
            return AccessResult(data, latency, "DRAM", True)
        self._fill(address, data, False, is_pte, len(self._handles) - 1)
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
        self._fill(address, data, True, False, 0)
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

    def read_below_l2(self, address: int, is_pte: bool, latency: int) -> AccessResult:
        """Retired: :meth:`read_below_l1` is the one path below L1.

        Nothing calls this. ``perfbench/tracer.py`` patches the name for
        its ``cache.read_below_l2`` span (which now reads 0 calls) and
        fails on entry when a traced name is missing; delete both in the
        next change to ``perfbench/``.
        """
        raise NotImplementedError("reads below L1 go through read_below_l1")

    # -- fills, evictions, write-backs ----------------------------------------

    def _fill(
        self,
        address: int,
        data: bytes,
        dirty: bool,
        is_pte: bool,
        bottom: int,
        top: int = 0,
    ) -> None:
        """Install a line at levels ``bottom`` up to ``top``, bottom-up.

        The one fill-and-victim cascade. Each install is ``Cache.fill``
        inlined (LRU order, victim-line recycling, counters). A dirty
        victim moves into the level below as a dirty non-PTE fill, and so
        on down; the last level's dirty victim is written back through the
        controller. An install's cascade completes before the level above
        it is filled.
        """
        handles = self._handles
        last = len(handles) - 1
        for level in range(bottom, top - 1, -1):
            at = level
            line_address = address
            line_data = data
            line_dirty = dirty
            line_pte = is_pte
            while True:
                sets, mask, set_bits, offset_bits, assoc, counters = handles[at]
                tag = line_address >> offset_bits
                set_index = tag & mask
                tag >>= set_bits
                lines = sets.get(set_index)
                if lines is None:
                    lines = sets[set_index] = OrderedDict()
                line = lines.get(tag)
                if line is not None:
                    line.data = line_data
                    if line_dirty:
                        line.dirty = True
                    line.is_pte = line_pte
                    lines.move_to_end(tag)
                    break
                if len(lines) < assoc:
                    lines[tag] = CacheLine(line_data, line_dirty, line_pte)
                    try:
                        counters["fills"] += 1
                    except KeyError:
                        counters["fills"] = 1
                    break
                victim_tag, line = lines.popitem(last=False)
                try:
                    counters["evictions"] += 1
                except KeyError:
                    counters["evictions"] = 1
                victim_dirty = line.dirty
                if victim_dirty:
                    try:
                        counters["dirty_evictions"] += 1
                    except KeyError:
                        counters["dirty_evictions"] = 1
                    victim_data = line.data
                # Recycle the evicted line object for the incoming line.
                line.data = line_data
                line.dirty = line_dirty
                line.is_pte = line_pte
                lines[tag] = line
                try:
                    counters["fills"] += 1
                except KeyError:
                    counters["fills"] = 1
                if not victim_dirty:
                    break
                line_address = ((victim_tag << set_bits) | set_index) << offset_bits
                if at == last:
                    self.stats.increment("writebacks")
                    self.controller.write_access(
                        line_address, victim_data, self.cycle, self
                    )
                    break
                at += 1
                line_data = victim_data
                line_dirty = True
                line_pte = False

    def _push_down(self, level: int, address: int, data: bytes) -> None:
        """Hand a dirty line dropped from ``level - 1`` to ``level``, or
        write it through the controller when ``level`` is past the last."""
        if level < len(self._levels):
            self._fill(address, data, True, False, level, level)
        else:
            self.controller.write_access(address, data, self.cycle, self)

    # -- maintenance ---------------------------------------------------------------

    def flush(self) -> None:
        """Write back and drop every line (used between experiment phases)."""
        for index, cache in enumerate(self._levels):
            for victim in cache.flush_all():
                self._push_down(index + 1, victim.address, victim.data)

    def invalidate(self, address: int) -> None:
        """clflush-style: write back then drop one line from all levels."""
        address = self._align(address)
        for index, cache in enumerate(self._levels):
            victim = cache.invalidate(address)
            if victim is not None:
                self._push_down(index + 1, victim.address, victim.data)

    def discard(self, address: int) -> None:
        """Coherence invalidation: drop a line without write-back.

        Called when another agent (the kernel's store path, another core's
        write-back) updates DRAM behind this hierarchy's back — modelling
        what hardware coherence would have done with the stale copy.
        """
        address &= ~(CACHELINE_BYTES - 1)
        for sets, mask, set_bits, offset_bits, _, _ in self._handles:
            tag = address >> offset_bits
            lines = sets.get(tag & mask)
            if lines is not None:
                lines.pop(tag >> set_bits, None)

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
