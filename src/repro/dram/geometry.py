"""DRAM address mapping: physical address <-> (channel, rank, bank, row, column).

We use a row-interleaved mapping typical of client memory controllers:

    | row | rank | bank | channel | column | line-offset |

Low-order bits select the byte within a cacheline, then the column within
a row, then channel/bank/rank (so consecutive lines spread across banks of
the open row region), and the high bits select the row. The exact mapping
is not security-relevant for PT-Guard (which lives above the mapping), but
the Rowhammer model needs *physical row adjacency*, which this module
defines authoritatively.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import log2_exact, mask
from repro.common.config import CACHELINE_BYTES, DRAMConfig


@dataclass(frozen=True, order=True)
class DRAMCoordinate:
    """Location of one cacheline-sized beat inside the DRAM system."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def row_key(self) -> tuple[int, int, int, int]:
        """Globally unique row identity (channel, rank, bank, row)."""
        return (self.channel, self.rank, self.bank, self.row)


class AddressMapper:
    """Bidirectional physical-address <-> DRAM-coordinate mapping."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        self._offset_bits = log2_exact(CACHELINE_BYTES)
        self._column_bits = log2_exact(config.row_bytes // CACHELINE_BYTES)
        self._channel_bits = log2_exact(config.channels)
        self._bank_bits = log2_exact(config.banks)
        self._rank_bits = log2_exact(config.ranks)
        self._row_bits = log2_exact(config.rows_per_bank)
        self.address_bits = (
            self._offset_bits
            + self._column_bits
            + self._channel_bits
            + self._bank_bits
            + self._rank_bits
            + self._row_bits
        )
        if (1 << self.address_bits) != config.size_bytes:
            raise ValueError(
                f"inconsistent DRAM geometry: 2^{self.address_bits} != "
                f"{config.size_bytes}"
            )
        # Precomputed field masks/shift for row_key_of (one call per DRAM
        # access — avoid rebuilding masks each time).
        self._rk_shift = self._offset_bits + self._column_bits
        self._channel_mask = mask(self._channel_bits)
        self._bank_mask = mask(self._bank_bits)
        self._rank_mask = mask(self._rank_bits)
        self._row_mask = mask(self._row_bits)

    def row_key_of(self, physical_address: int) -> tuple[int, int, int, int]:
        """Fast path: (channel, rank, bank, row) without object creation."""
        value = physical_address >> self._rk_shift
        channel = value & self._channel_mask
        value >>= self._channel_bits
        bank = value & self._bank_mask
        value >>= self._bank_bits
        rank = value & self._rank_mask
        value >>= self._rank_bits
        row = value & self._row_mask
        return (channel, rank, bank, row)

    def decompose(self, physical_address: int) -> DRAMCoordinate:
        """Map a physical byte address to its DRAM coordinate."""
        if not 0 <= physical_address < self.config.size_bytes:
            raise ValueError(
                f"address {physical_address:#x} outside DRAM of size "
                f"{self.config.size_bytes:#x}"
            )
        value = physical_address >> self._offset_bits
        column = value & mask(self._column_bits)
        value >>= self._column_bits
        channel = value & mask(self._channel_bits)
        value >>= self._channel_bits
        bank = value & mask(self._bank_bits)
        value >>= self._bank_bits
        rank = value & mask(self._rank_bits)
        value >>= self._rank_bits
        row = value & mask(self._row_bits)
        return DRAMCoordinate(channel=channel, rank=rank, bank=bank, row=row, column=column)

    def compose(self, coordinate: DRAMCoordinate, offset: int = 0) -> int:
        """Map a DRAM coordinate (plus intra-line offset) back to an address."""
        value = coordinate.row
        value = (value << self._rank_bits) | coordinate.rank
        value = (value << self._bank_bits) | coordinate.bank
        value = (value << self._channel_bits) | coordinate.channel
        value = (value << self._column_bits) | coordinate.column
        return (value << self._offset_bits) | offset

    def row_base_address(self, row_key: tuple[int, int, int, int], column: int = 0) -> int:
        """Physical address of one cacheline of a row (fast path)."""
        channel, rank, bank, row = row_key
        value = row
        value = (value << self._rank_bits) | rank
        value = (value << self._bank_bits) | bank
        value = (value << self._channel_bits) | channel
        value = (value << self._column_bits) | column
        return value << self._offset_bits

    def row_addresses(self, row_key: tuple[int, int, int, int]) -> list[int]:
        """Return the physical line addresses of every cacheline in a row."""
        return [
            self.row_base_address(row_key, column)
            for column in range(1 << self._column_bits)
        ]

    def translate_row(self, address: int, target_row_key: tuple[int, int, int, int]) -> int:
        """Move ``address`` to the same column/offset of another row.

        The row-remap (retirement) path: a retired row's accesses land at
        the corresponding beat of its spare row.
        """
        column = (address >> self._offset_bits) & mask(self._column_bits)
        offset = address & mask(self._offset_bits)
        return self.row_base_address(target_row_key, column) | offset

    def neighbor_rows(
        self, row_key: tuple[int, int, int, int], distance: int
    ) -> list[tuple[int, int, int, int]]:
        """Rows at exactly ``distance`` from ``row_key`` in the same bank.

        Physical adjacency is modelled as numeric row adjacency (no
        in-DRAM remapping), which is the standard assumption in the
        Rowhammer literature when internal maps are linear.
        """
        channel, rank, bank, row = row_key
        neighbors = []
        for delta in (-distance, distance):
            neighbor = row + delta
            if 0 <= neighbor < self.config.rows_per_bank:
                neighbors.append((channel, rank, bank, neighbor))
        return neighbors

    @property
    def lines_per_row(self) -> int:
        return 1 << self._column_bits
