"""Synthetic memory-trace generation from workload profiles.

A trace is a deterministic (seeded) stream of
:class:`TraceRecord(instructions, virtual_address, is_write)` items: the
core executes ``instructions`` non-memory instructions, then one memory
access. Two access regions model the locality structure:

* a *hot* region sized to fit in L2 — high-reuse working set served by
  the upper cache levels;
* a *cold* region sized from the profile's footprint — streamed
  sequentially or visited at random (``random_fraction``), producing the
  LLC misses (and the TLB misses / page-table walks that come with a
  footprint far beyond the TLB's 256 KB reach).

``next_record`` runs once per simulated access, so the generator prebinds
its RNG methods and precomputes region geometry. The draw *sequence* is
part of the reproducibility contract — each record consumes entropy in a
fixed order (write?, cold?, address draw(s), gap jitter), and the
optimisations here keep that order and the per-draw entropy identical, so
seeded runs replay the exact streams of earlier revisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.common.config import CACHELINE_BYTES, KIB, MIB, PAGE_BYTES
from repro.cpu.workloads import WorkloadProfile

HOT_REGION_BYTES = 160 * KIB  # fits L2 (256 KB) with room for PTE lines


class TraceRecord(NamedTuple):
    """One step: run ``instructions`` cycles of ALU work, then access memory."""

    instructions: int
    virtual_address: int
    is_write: bool


@dataclass(frozen=True)
class TraceRegions:
    """The VA layout a trace expects the process to have mapped."""

    hot_base: int
    hot_bytes: int
    cold_base: int
    cold_bytes: int


class TraceGenerator:
    """Deterministic trace stream for one workload profile."""

    def __init__(
        self,
        profile: WorkloadProfile,
        hot_base: int,
        cold_base: int,
        seed: int = 1,
    ):
        self.profile = profile
        self.regions = TraceRegions(
            hot_base=hot_base,
            hot_bytes=HOT_REGION_BYTES,
            cold_base=cold_base,
            cold_bytes=profile.footprint_mib * MIB,
        )
        self._rng = random.Random((seed, profile.name).__str__())
        self._cold_cursor = 0
        # Average non-memory instructions between two memory operations.
        self._gap = max(1, round(1000 / profile.mem_ops_per_kilo))
        # Hot-path bindings: next_record runs once per simulated access.
        self._random = self._rng.random
        self._getrandbits = self._rng.getrandbits
        self._hot_lines = self.regions.hot_bytes // CACHELINE_BYTES
        self._cold_lines = self.regions.cold_bytes // CACHELINE_BYTES
        # Rejection-sampling widths for the inlined _randbelow loops below
        # (bit_length of n, exactly what _randbelow_with_getrandbits uses).
        self._hot_k = self._hot_lines.bit_length()
        self._cold_k = self._cold_lines.bit_length()
        self._write_fraction = profile.write_fraction
        self._cold_fraction = profile.cold_fraction
        self._random_fraction = profile.random_fraction

    def __iter__(self) -> Iterator[TraceRecord]:
        while True:
            yield self.next_record()

    def next_record(self) -> TraceRecord:
        # The _randbelow(n) rejection loops are inlined as getrandbits
        # loops over n.bit_length() bits — byte-for-byte the algorithm of
        # random._randbelow_with_getrandbits, so the entropy stream (and
        # therefore every seeded trace) is unchanged.
        rng_random = self._random
        getrandbits = self._getrandbits
        is_write = rng_random() < self._write_fraction
        if rng_random() < self._cold_fraction:
            if rng_random() < self._random_fraction:
                lines = self._cold_lines
                index = getrandbits(self._cold_k)
                while index >= lines:
                    index = getrandbits(self._cold_k)
            else:
                index = self._cold_cursor
                self._cold_cursor = (index + 1) % self._cold_lines
            address = self.regions.cold_base + index * CACHELINE_BYTES
        else:
            lines = self._hot_lines
            index = getrandbits(self._hot_k)
            while index >= lines:
                index = getrandbits(self._hot_k)
            address = self.regions.hot_base + index * CACHELINE_BYTES
        gap = self._gap
        if gap > 1:
            # Jitter the gap a little so bank conflicts vary
            # (randrange(-1, 2) == _randbelow(3) - 1, same entropy draw).
            jitter = getrandbits(2)
            while jitter >= 3:
                jitter = getrandbits(2)
            instructions = gap + jitter - 1
            if instructions < 1:
                instructions = 1
        else:
            instructions = 1
        return TraceRecord(instructions, address, is_write)


def region_pages(regions: TraceRegions) -> Iterator[int]:
    """Every page base VA a trace may touch (for prefaulting)."""
    for offset in range(0, regions.hot_bytes, PAGE_BYTES):
        yield regions.hot_base + offset
    for offset in range(0, regions.cold_bytes, PAGE_BYTES):
        yield regions.cold_base + offset
