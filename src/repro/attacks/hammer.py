"""Rowhammer attack patterns (paper Sections I, II).

Implements the access patterns the paper's narrative is built around:

* **single-sided** — hammer one aggressor row (classic, 2014 [29]);
* **double-sided** — sandwich the victim between two aggressors;
* **many-sided** — the TRRespass/Blacksmith [15,22] family: N aggressors
  cycled to overflow a TRR sampler's tracking capacity;
* **Half-Double** — hammer distance-2 aggressors heavily so that the
  *mitigation refreshes* a TRR-like defense issues on the distance-1 rows
  become the hammer that flips the victim [30].

All patterns drive the real :class:`~repro.dram.device.DRAMDevice`:
each "hammer" is an ACT (row-buffer conflict forced by alternating rows),
so defenses sampling activations observe exactly what they would in
hardware, and flips materialise in physical memory via the fault model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.dram.device import DRAMDevice
from repro.dram.rowhammer import BitFlip, RowKey


@dataclass
class HammerReport:
    """What an attack run achieved."""

    pattern: str
    activations: int
    flips: List[BitFlip] = field(default_factory=list)

    @property
    def flipped_rows(self) -> set:
        return {flip.row_key for flip in self.flips}


class HammerAttack:
    """Issues attack access patterns against a DRAM device."""

    def __init__(self, device: DRAMDevice):
        self.device = device

    # -- helpers -------------------------------------------------------------

    def _row_key(self, row: int, bank: RowKey | None = None) -> RowKey:
        channel, rank, bank_index = (0, 0, 0) if bank is None else bank[:3]
        return (channel, rank, bank_index, row)

    def _activate_row(self, row_key: RowKey, cycle: int) -> None:
        """Open ``row_key`` via a real device access (forces an ACT by
        alternating with a conflict row handled by the caller)."""
        address = self.device.mapper.row_base_address(row_key)
        self.device.access(address, is_write=False, cycle=cycle)

    def _hammer_set(
        self, rows: Sequence[RowKey], iterations: int, start_cycle: int = 0
    ) -> int:
        """Alternate over ``rows`` so every access is a row conflict (each
        one an ACT). Returns total activations issued."""
        cycle = start_cycle
        activations = 0
        if len(rows) == 1:
            # Single-sided hammering needs a dummy conflict row far away in
            # the same bank to close the aggressor between ACTs.
            channel, rank, bank, row = rows[0]
            dummy_row = row + 512 if row + 512 < self.device.config.rows_per_bank else row - 512
            rows = [rows[0], (channel, rank, bank, dummy_row)]
        for iteration in range(iterations):
            for row_key in rows:
                self._activate_row(row_key, cycle)
                cycle += 50  # ~tRC in CPU cycles; exact value immaterial
                activations += 1
        return activations

    def _report(self, pattern: str, activations: int, baseline_flips: int) -> HammerReport:
        flips = self.device.bit_flips[baseline_flips:]
        return HammerReport(pattern=pattern, activations=activations, flips=flips)

    def _flips_before(self) -> int:
        return len(self.device.bit_flips)

    # -- patterns ----------------------------------------------------------------

    def single_sided(self, victim_row: int, iterations: int, bank: RowKey | None = None) -> HammerReport:
        """Classic single aggressor adjacent to the victim."""
        before = self._flips_before()
        aggressor = self._row_key(victim_row + 1, bank)
        activations = self._hammer_set([aggressor], iterations)
        return self._report("single-sided", activations, before)

    def double_sided(self, victim_row: int, iterations: int, bank: RowKey | None = None) -> HammerReport:
        """Aggressors on both sides of the victim: pressure adds up."""
        before = self._flips_before()
        rows = [self._row_key(victim_row - 1, bank), self._row_key(victim_row + 1, bank)]
        activations = self._hammer_set(rows, iterations)
        return self._report("double-sided", activations, before)

    def many_sided(
        self,
        victim_row: int,
        iterations: int,
        aggressors: int = 9,
        bank: RowKey | None = None,
    ) -> HammerReport:
        """TRRespass-style N-sided pattern around the victim.

        With more simultaneous aggressors than a TRR sampler can track,
        some aggressors escape mitigation every refresh interval.
        """
        before = self._flips_before()
        rows = []
        # Aggressors at odd offsets around the victim leave their enclosed
        # victims (including victim_row) under double-sided pressure.
        span = aggressors // 2
        for offset in range(-span, span + 1):
            row = victim_row + 2 * offset + 1
            if 0 <= row < self.device.config.rows_per_bank:
                rows.append(self._row_key(row, bank))
        activations = self._hammer_set(rows[:aggressors], iterations)
        return self._report(f"{aggressors}-sided", activations, before)

    def half_double(
        self, victim_row: int, iterations: int, bank: RowKey | None = None
    ) -> HammerReport:
        """Half-Double [30]: hammer distance-2 rows; victim refreshes on the
        distance-1 rows (issued by the mitigation) do the damage.

        Against a victim-refresh defense, the distance-2 aggressors trip
        the tracker, which keeps refreshing the distance-1 neighbours —
        and every such refresh re-activates the distance-1 wordline,
        hammering the victim in the middle.
        """
        before = self._flips_before()
        rows = [self._row_key(victim_row - 2, bank), self._row_key(victim_row + 2, bank)]
        activations = self._hammer_set(rows, iterations)
        return self._report("half-double", activations, before)
