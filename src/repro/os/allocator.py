"""Buddy page-frame allocator.

The kernel substrate allocates physical frames from here. A binary-buddy
scheme reproduces the allocation behaviour behind the paper's Figure 8
insight: order-0 allocations carved out of a freshly split block hand out
*consecutive* PFNs, which is why sequentially faulted process memory shows
~24 % contiguous-PFN PTEs; as memory fragments, contiguity drops — the
spread visible across the paper's 623 processes.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.common.errors import AllocationError

MAX_ORDER = 10  # largest block: 2^10 pages = 4 MB


class BuddyAllocator:
    """Binary buddy allocator over a contiguous PFN range."""

    def __init__(self, base_pfn: int, num_pages: int):
        if num_pages <= 0:
            raise AllocationError("allocator needs at least one page")
        self.base_pfn = base_pfn
        self.num_pages = num_pages
        # Free lists per order hold block *base PFNs* (relative to base_pfn).
        self._free: Dict[int, List[int]] = {order: [] for order in range(MAX_ORDER + 1)}
        self._allocated: Dict[int, int] = {}  # block base -> order
        self._free_blocks: Set[int] = set()  # membership mirror of _free
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Cover [0, num_pages) with maximal naturally aligned blocks."""
        cursor = 0
        remaining = self.num_pages
        while remaining:
            order = MAX_ORDER
            while order > 0 and (
                (1 << order) > remaining or cursor % (1 << order) != 0
            ):
                order -= 1
            self._free[order].append(cursor)
            self._free_blocks.add(cursor)
            cursor += 1 << order
            remaining -= 1 << order

    # -- allocation -------------------------------------------------------------

    def alloc_pages(self, order: int = 0) -> int:
        """Allocate a 2^order-page block; returns its absolute base PFN."""
        if not 0 <= order <= MAX_ORDER:
            raise AllocationError(f"order {order} out of range [0, {MAX_ORDER}]")
        source = order
        while source <= MAX_ORDER and not self._free[source]:
            source += 1
        if source > MAX_ORDER:
            raise AllocationError(f"out of memory for order-{order} allocation")
        block = self._free[source].pop()
        self._free_blocks.discard(block)
        # Split down to the requested order, freeing the upper buddies.
        while source > order:
            source -= 1
            buddy = block + (1 << source)
            self._free[source].append(buddy)
            self._free_blocks.add(buddy)
        self._allocated[block] = order
        return self.base_pfn + block

    def alloc_page(self) -> int:
        """Allocate a single page frame."""
        return self.alloc_pages(0)

    # -- release -------------------------------------------------------------------

    def free_pages(self, pfn: int) -> None:
        """Free a previously allocated block (identified by its base PFN)."""
        block = pfn - self.base_pfn
        if block not in self._allocated:
            raise AllocationError(f"double free or bad PFN {pfn:#x}")
        order = self._allocated.pop(block)
        # Coalesce with the buddy while it is free and order permits.
        while order < MAX_ORDER:
            buddy = block ^ (1 << order)
            if buddy not in self._free_blocks:
                break
            sibling_order_list = self._free[order]
            if buddy not in sibling_order_list:
                break  # buddy free but at a different order: cannot merge
            sibling_order_list.remove(buddy)
            self._free_blocks.discard(buddy)
            block = min(block, buddy)
            order += 1
        self._free[order].append(block)
        self._free_blocks.add(block)

    # -- introspection ---------------------------------------------------------------

    @property
    def free_pages_count(self) -> int:
        return sum(len(blocks) << order for order, blocks in self._free.items())

    @property
    def allocated_pages_count(self) -> int:
        return sum(1 << order for order in self._allocated.values())

    def fragmentation(self) -> float:
        """1 - (largest free block / total free): 0 = unfragmented."""
        free_total = self.free_pages_count
        if free_total == 0:
            return 0.0
        largest = 0
        for order in range(MAX_ORDER, -1, -1):
            if self._free[order]:
                largest = 1 << order
                break
        return 1.0 - largest / free_total
