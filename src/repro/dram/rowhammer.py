"""Rowhammer fault model (paper Sections II-A, II-B, VI).

Models the disturbance physics the paper's threat model assumes:

* Every activation of row ``R`` deposits disturbance into its neighbours:
  a full unit into the distance-1 rows ``R +- 1`` and a much smaller dose
  into the distance-2 rows ``R +- 2`` (scaled by
  ``RowhammerProfile.half_double_factor`` — units are defined there). A
  row whose *absorbed* disturbance crosses the Rowhammer threshold (RTH)
  flips its vulnerable cells. A refresh of a row restores its charge
  (absorbed disturbance resets to zero).
* A *mitigation refresh* (the victim refresh TRR-like defenses issue)
  restores the refreshed row but re-activates its wordline, disturbing
  *its* neighbours — the Half-Double effect [30] by which refreshes of
  distance-1 rows hammer the distance-2 victim.
* Thresholds are configurable: 139K (DDR3 2014 [29]), 10K (DDR4 2020
  [27]), 4.8K (LPDDR4 2020 [27]).
* Cells have a fixed random polarity: *true cells* flip 1 -> 0, *anti
  cells* flip 0 -> 1 (the property monotonic-pointer defenses [58] rely
  on). Only a ``flip_probability`` fraction of cells is flippable at all,
  matching the worst-case per-bit probabilities of [27] (1% LPDDR4,
  0.1-0.2% DDR4).

The model is deterministic given a seed: cell vulnerability and polarity
are pure functions of (seed, cell location).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

RowKey = Tuple[int, int, int, int]

BITS_PER_LINE = 512


@dataclass(frozen=True)
class RowhammerProfile:
    """Vulnerability parameters of a DRAM technology."""

    name: str
    threshold: int  # absorbed disturbance (activations) needed to flip
    flip_probability: float  # fraction of cells that are flippable
    # Units — a *disturbance divisor* (canonical definition, referenced by
    # the module docstring): one activation deposits 1.0 disturbance units
    # into each distance-1 neighbour and ``1 / half_double_factor`` units
    # into each distance-2 neighbour. Direct distance-2 coupling is ~3
    # orders of magnitude weaker than distance-1 [30]; Half-Double flips
    # are driven by the *mitigation refreshes* of distance-1 rows, not by
    # direct coupling. With the default of 2000, any realistic activation
    # budget divided by this factor stays below every real profile's RTH,
    # so hammering distance-2 rows alone (no defense issuing victim
    # refreshes) cannot flip.
    half_double_factor: float = 2000.0

    @classmethod
    def ddr3_2014(cls) -> "RowhammerProfile":
        return cls(name="DDR3-2014", threshold=139_000, flip_probability=0.001)

    @classmethod
    def ddr4_2020(cls) -> "RowhammerProfile":
        return cls(name="DDR4-2020", threshold=10_000, flip_probability=0.002)

    @classmethod
    def lpddr4_2020(cls) -> "RowhammerProfile":
        return cls(name="LPDDR4-2020", threshold=4_800, flip_probability=0.01)

    @classmethod
    def scaled(cls, threshold: int = 600, flip_probability: float = 0.01) -> "RowhammerProfile":
        """A threshold-scaled module for fast experiments.

        All defense/attack interactions are ratio-driven (tracker threshold
        vs RTH, activation budget vs RTH), so scaling RTH down by ~8x and
        defenses' design thresholds with it preserves every outcome while
        cutting simulated activations by the same factor.
        """
        return cls(
            name=f"scaled-RTH{threshold}",
            threshold=threshold,
            flip_probability=flip_probability,
        )

    @classmethod
    def invulnerable(cls) -> "RowhammerProfile":
        """A module that never flips (for control experiments)."""
        return cls(name="invulnerable", threshold=2**62, flip_probability=0.0)

    def activation_budget(self, refresh_window_ms: float = 64.0, trc_ns: float = 46.7) -> int:
        """Maximum single-bank activations an attacker fits in one refresh
        window (the physical bound on any hammering campaign)."""
        return int(refresh_window_ms * 1e6 / trc_ns)


@dataclass
class BitFlip:
    """One injected fault: which row/line/bit flipped and in what direction."""

    row_key: RowKey
    line_address: int
    bit_offset: int  # bit index within the 64-byte line
    direction: str  # "1->0" (true cell) or "0->1" (anti cell)
    distance: int  # dominant coupling distance when the flip occurred


class RowhammerModel:
    """Tracks absorbed disturbance per row and decides when bits flip.

    ``neighbor_fn(row_key, distance)`` must return the physically adjacent
    rows at the given distance (see
    :meth:`repro.dram.geometry.AddressMapper.neighbor_rows`).
    """

    def __init__(
        self,
        profile: RowhammerProfile,
        lines_per_row: int,
        neighbor_fn: Callable[[RowKey, int], List[RowKey]],
        seed: int = 2023,
    ):
        self.profile = profile
        self.lines_per_row = lines_per_row
        self._neighbor_fn = neighbor_fn
        self._seed = seed
        self._disturbance: Dict[RowKey, float] = {}
        # Which distance dominates the disturbance absorbed by each row,
        # recorded for reporting (Half-Double forensics).
        self._distance2_share: Dict[RowKey, float] = {}
        self._flipped_cells: Set[Tuple[RowKey, int, int]] = set()
        # Lazy per-line cell map: {bit -> is_true_cell} for vulnerable cells.
        self._line_cells: Dict[Tuple[RowKey, int], Dict[int, bool]] = {}
        # Victims whose flips were already materialised this charge cycle;
        # re-scanning them on every further activation is pointless until a
        # refresh restores their charge (polarity-blocked cells can only
        # become flippable again after the stored value changes, which in
        # this model implies a write and a later re-hammering).
        self._processed: Set[RowKey] = set()

    # -- cell physics -----------------------------------------------------

    def _cells_of_line(self, row_key: RowKey, line_index: int) -> Dict[int, bool]:
        """The vulnerable cells of one line: {bit_offset: is_true_cell}.

        Derived deterministically from the seed on first use (one RNG per
        line, not per cell, which keeps large sweeps fast).
        """
        key = (row_key, line_index)
        cells = self._line_cells.get(key)
        if cells is None:
            rng = random.Random(hash((self._seed, row_key, line_index)))
            p = self.profile.flip_probability
            cells = {
                bit: rng.random() < 0.5
                for bit in range(BITS_PER_LINE)
                if rng.random() < p
            }
            self._line_cells[key] = cells
        return cells

    def cell_is_vulnerable(self, row_key: RowKey, line_index: int, bit: int) -> bool:
        """Whether this cell can ever flip (fixed per seed)."""
        return bit in self._cells_of_line(row_key, line_index)

    # -- disturbance bookkeeping -------------------------------------------

    def _deposit(self, row_key: RowKey) -> None:
        """Deposit the disturbance one activation of ``row_key`` causes."""
        for victim in self._neighbor_fn(row_key, 1):
            self._disturbance[victim] = self._disturbance.get(victim, 0.0) + 1.0
        coupling = 1.0 / self.profile.half_double_factor
        for victim in self._neighbor_fn(row_key, 2):
            self._disturbance[victim] = self._disturbance.get(victim, 0.0) + coupling
            share = self._distance2_share.get(victim, 0.0)
            self._distance2_share[victim] = share + coupling

    def record_activation(self, row_key: RowKey) -> None:
        """An ACT command opened ``row_key``; its neighbours absorb charge loss."""
        self._deposit(row_key)

    def record_refresh(self, row_key: RowKey) -> None:
        """A plain (auto) refresh restores the row's charge."""
        self._disturbance.pop(row_key, None)
        self._distance2_share.pop(row_key, None)
        self._processed.discard(row_key)

    def record_mitigation_refresh(self, row_key: RowKey) -> None:
        """A TRR-style victim refresh: restores ``row_key`` but re-activates
        its wordline, hammering *its* neighbours (Half-Double [30])."""
        self.record_refresh(row_key)
        self._deposit(row_key)

    def refresh_window_elapsed(self) -> None:
        """Periodic (64 ms) auto-refresh of the whole device."""
        self._disturbance.clear()
        self._distance2_share.clear()
        self._flipped_cells.clear()
        self._processed.clear()

    def disturbance(self, row_key: RowKey) -> float:
        return self._disturbance.get(row_key, 0.0)

    def over_threshold(self, row_key: RowKey) -> bool:
        return self.disturbance(row_key) >= self.profile.threshold

    def dominant_distance(self, row_key: RowKey) -> int:
        """1 if classic adjacency dominates the absorbed disturbance, else 2."""
        total = self._disturbance.get(row_key, 0.0)
        if total <= 0:
            return 1
        return 2 if self._distance2_share.get(row_key, 0.0) > total / 2 else 1

    def hammered_rows(self) -> List[RowKey]:
        """Rows currently over the flip threshold."""
        return [row for row, d in self._disturbance.items() if d >= self.profile.threshold]

    # -- flip computation ---------------------------------------------------

    def compute_flips(
        self,
        victim: RowKey,
        line_address_fn: Callable[[RowKey, int], int],
        read_bit: Callable[[int, int], int],
    ) -> List[BitFlip]:
        """Determine which bits of ``victim`` flip under current disturbance.

        ``read_bit(line_address, bit)`` must return the currently stored
        bit so polarity is honoured (true cells only flip stored 1s).
        Already-flipped cells never flip twice within a window.
        """
        if not self.over_threshold(victim) or victim in self._processed:
            return []
        self._processed.add(victim)
        distance = self.dominant_distance(victim)
        flips: List[BitFlip] = []
        for line_index in range(self.lines_per_row):
            cells = self._cells_of_line(victim, line_index)
            if not cells:
                continue
            line_address = line_address_fn(victim, line_index)
            for bit, true_cell in cells.items():
                cell_id = (victim, line_index, bit)
                if cell_id in self._flipped_cells:
                    continue
                stored = read_bit(line_address, bit)
                if true_cell and stored == 1:
                    direction = "1->0"
                elif not true_cell and stored == 0:
                    direction = "0->1"
                else:
                    continue  # polarity does not allow a flip
                self._flipped_cells.add(cell_id)
                flips.append(
                    BitFlip(
                        row_key=victim,
                        line_address=line_address,
                        bit_offset=bit,
                        direction=direction,
                        distance=distance,
                    )
                )
        return flips

    def reset_flip_history(self) -> None:
        self._flipped_cells.clear()


def inject_uniform_flips(
    line: bytes, flip_probability: float, rng: random.Random
) -> Tuple[bytes, List[int]]:
    """Flip each bit of a line independently with ``flip_probability``.

    This is the fault-injection methodology of Section VI-F ("we flip each
    bit with a uniform probability of p_flip"). Returns the faulty line and
    the sorted list of flipped bit offsets.
    """
    value = int.from_bytes(line, "little")
    total_bits = len(line) * 8
    flipped = [bit for bit in range(total_bits) if rng.random() < flip_probability]
    for bit in flipped:
        value ^= 1 << bit
    return value.to_bytes(len(line), "little"), flipped
