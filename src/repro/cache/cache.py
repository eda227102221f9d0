"""Set-associative write-back cache with LRU replacement.

Caches carry data (64-byte lines), so the hierarchy is a faithful
functional filter in front of the memory controller: PT-Guard only ever
sees true DRAM traffic (misses and dirty evictions), exactly as in the
paper's Figure 5, and lines cached before a Rowhammer flip keep shielding
their consumers until evicted — a property the attack experiments rely on.

Every simulated access funnels through :meth:`Cache.lookup` /
:meth:`Cache.fill`, so the hot path avoids per-call allocation: resident
lines are mutable ``__slots__`` objects updated in place on re-fill and
write hits, and the set-index/tag split is inlined rather than building a
tuple per probe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from repro.common.bitops import log2_exact
from repro.common.config import CacheConfig
from repro.common.stats import StatGroup


class CacheLine:
    """One resident line: its data and dirty state (mutated in place)."""

    __slots__ = ("data", "dirty")

    def __init__(self, data: bytes, dirty: bool = False):
        self.data = data
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"CacheLine(dirty={self.dirty})"


class EvictedLine(NamedTuple):
    """A victim pushed out by a fill; dirty victims must be written back."""

    address: int
    data: bytes
    dirty: bool


class Cache:
    """One cache level. Addresses are line-aligned physical addresses."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._offset_bits = log2_exact(config.line_bytes)
        self._set_bits = log2_exact(config.num_sets)
        self._set_mask = config.num_sets - 1
        self._assoc = config.associativity
        # Per-set OrderedDict used as an LRU: oldest entry first.
        self._sets: Dict[int, OrderedDict[int, CacheLine]] = {}
        self.stats = StatGroup(config.name)
        self._counters = self.stats.raw()  # inlined hot-path updates

    def _index(self, address: int) -> Tuple[int, int]:
        line_address = address >> self._offset_bits
        return line_address & self._set_mask, line_address >> self._set_bits

    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLine]:
        """Probe for ``address``; moves the line to MRU when ``touch``."""
        line_address = address >> self._offset_bits
        lines = self._sets.get(line_address & self._set_mask)
        counters = self._counters
        if lines is not None:
            tag = line_address >> self._set_bits
            line = lines.get(tag)
            if line is not None:
                try:
                    counters["hits"] += 1
                except KeyError:
                    counters["hits"] = 1
                if touch:
                    lines.move_to_end(tag)
                return line
        try:
            counters["misses"] += 1
        except KeyError:
            counters["misses"] = 1
        return None

    def fill(
        self, address: int, data: bytes, dirty: bool = False
    ) -> Optional[EvictedLine]:
        """Install a line, evicting the LRU victim of its set if needed."""
        line_address = address >> self._offset_bits
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_bits
        lines = self._sets.get(set_index)
        if lines is None:
            lines = self._sets[set_index] = OrderedDict()
        victim: Optional[EvictedLine] = None
        existing = lines.get(tag)
        if existing is not None:
            existing.data = data
            existing.dirty = dirty or existing.dirty
            lines.move_to_end(tag)
            return None
        counters = self._counters
        if len(lines) >= self._assoc:
            victim_tag, victim_line = lines.popitem(last=False)
            # Inlined _compose (one call per eviction adds up).
            victim_address = (
                (victim_tag << self._set_bits) | set_index
            ) << self._offset_bits
            try:
                counters["evictions"] += 1
            except KeyError:
                counters["evictions"] = 1
            if victim_line.dirty:
                try:
                    counters["dirty_evictions"] += 1
                except KeyError:
                    counters["dirty_evictions"] = 1
            victim = EvictedLine(
                address=victim_address, data=victim_line.data, dirty=victim_line.dirty
            )
            # Recycle the evicted line object for the incoming line.
            victim_line.data = data
            victim_line.dirty = dirty
            lines[tag] = victim_line
        else:
            lines[tag] = CacheLine(data, dirty)
        try:
            counters["fills"] += 1
        except KeyError:
            counters["fills"] = 1
        return victim

    def write_hit(self, address: int, data: bytes) -> bool:
        """Update a resident line in place; returns False on miss."""
        line_address = address >> self._offset_bits
        lines = self._sets.get(line_address & self._set_mask)
        if lines is None:
            return False
        tag = line_address >> self._set_bits
        line = lines.get(tag)
        if line is None:
            return False
        line.data = data
        line.dirty = True
        lines.move_to_end(tag)
        return True

    def invalidate(self, address: int) -> Optional[EvictedLine]:
        """Drop a line (returns it if it was dirty, for write-back)."""
        set_index, tag = self._index(address)
        lines = self._sets.get(set_index)
        if lines is None or tag not in lines:
            return None
        line = lines.pop(tag)
        if line.dirty:
            return EvictedLine(address=address, data=line.data, dirty=True)
        return None

    def discard_lines(self, addresses) -> None:
        """Drop, without write-back, every resident line whose address is
        in the set ``addresses``; walks the resident lines, not the set."""
        set_bits = self._set_bits
        offset_bits = self._offset_bits
        for set_index, lines in self._sets.items():
            doomed = [
                tag
                for tag in lines
                if ((tag << set_bits) | set_index) << offset_bits in addresses
            ]
            for tag in doomed:
                del lines[tag]

    def flush_all(self) -> list[EvictedLine]:
        """Empty the cache, returning every dirty line for write-back."""
        dirty: list[EvictedLine] = []
        for set_index, lines in self._sets.items():
            for tag, line in lines.items():
                if line.dirty:
                    dirty.append(
                        EvictedLine(
                            address=self._compose(set_index, tag),
                            data=line.data,
                            dirty=True,
                        )
                    )
        self._sets.clear()
        return dirty

    def _compose(self, set_index: int, tag: int) -> int:
        return ((tag << self._set_bits) | set_index) << self._offset_bits

    @property
    def resident_lines(self) -> int:
        return sum(len(lines) for lines in self._sets.values())

    def contains(self, address: int) -> bool:
        """Stat-free probe (for tests and invariant checks)."""
        set_index, tag = self._index(address)
        lines = self._sets.get(set_index)
        return lines is not None and tag in lines
