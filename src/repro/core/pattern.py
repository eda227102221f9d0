"""PTE-cacheline bit layout and pattern matching (paper Table IV, Sec IV-B, V-A).

A 64-byte cacheline holds eight 8-byte PTEs. With a maximum physical
address of ``M`` bits (M = 40 for the paper's 1 TB client-system bound),
each x86_64 PTE decomposes as:

====== ======================= ==========================
bits   content                 MAC-protected?
====== ======================= ==========================
8:0    flags                   yes, except bit 5 (accessed)
11:9   OS-programmable         yes
M-1:12 PFN                     yes
39:M   ignored (zeros)         no
51:40  MAC (1/8th portion)     no (carries the MAC)
58:52  ignored (zeros)         no (carries the identifier)
63:59  protection keys / NX    yes
====== ======================= ==========================

The *bit-pattern match* checks that bits 51:40 of all eight PTEs are zero
(96 bits); the *extended* pattern additionally checks bits 58:52 (56 more
bits, 152 total). Matching lines are *protected*: the 96-bit MAC is pooled
into bits 51:40 (12 bits per PTE) and, in Optimized PT-Guard, the 56-bit
identifier into bits 58:52 (7 bits per PTE).

All functions are pure, which makes round-trip properties easy to test.
They come in two domains: the ``bytes`` functions take a 64-byte line,
and the hot paths (guard, correction) take the line as one 512-bit
little-endian integer — parsed once per line — and use the integer
forms (:func:`mac_of`, :func:`with_mac`, :func:`identifier_of`,
:func:`with_identifier`, :func:`protected_line_mask`). The bytes
functions wrap those.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.bitops import bits, insert_bits, mask
from repro.common.config import CACHELINE_BYTES, PTE_BYTES, PTES_PER_LINE

MAC_FIELD_HIGH, MAC_FIELD_LOW = 51, 40
MAC_BITS_PER_PTE = MAC_FIELD_HIGH - MAC_FIELD_LOW + 1  # 12
ID_FIELD_HIGH, ID_FIELD_LOW = 58, 52
ID_BITS_PER_PTE = ID_FIELD_HIGH - ID_FIELD_LOW + 1  # 7

MAC_BITS_PER_LINE = MAC_BITS_PER_PTE * PTES_PER_LINE  # 96
ID_BITS_PER_LINE = ID_BITS_PER_PTE * PTES_PER_LINE  # 56

ACCESSED_BIT = 5  # excluded from the MAC: hardware sets it asynchronously


def _spread(field_mask: int, stride: int = 64) -> int:
    """Replicate a ``stride``-bit-group mask across a 512-bit line."""
    value = 0
    for index in range(CACHELINE_BYTES * 8 // stride):
        value |= field_mask << (stride * index)
    return value


# Whole-line (512-bit) masks, precomputed once: the hot-path operations
# below are single big-integer ANDs/ORs instead of per-PTE loops.
_MAC_FIELD_PTE_MASK = mask(MAC_BITS_PER_PTE) << MAC_FIELD_LOW
_ID_FIELD_PTE_MASK = mask(ID_BITS_PER_PTE) << ID_FIELD_LOW
MAC_FIELDS_LINE_MASK = _spread(_MAC_FIELD_PTE_MASK)
ID_FIELDS_LINE_MASK = _spread(_ID_FIELD_PTE_MASK)
METADATA_LINE_MASK = MAC_FIELDS_LINE_MASK | ID_FIELDS_LINE_MASK

_PROTECTED_LINE_MASKS: dict = {}


def _log_step_rounds(width: int) -> Tuple[Tuple[int, int, int], ...]:
    """Shift-and-mask rounds that pool one ``width``-bit field per PTE.

    Round ``k`` merges neighbouring groups of ``width << k`` bits sitting
    ``64 << k`` bits apart; it maps mask ``narrow`` (one group per
    ``64 << k`` bits) onto mask ``wide`` (one per ``128 << k``). Three
    rounds pool eight fields; running them backwards scatters.
    """
    masks = [_spread(mask(width << k), 64 << k) for k in range(4)]
    return tuple(((64 - width) << k, masks[k], masks[k + 1]) for k in range(3))


_MAC_ROUNDS = _log_step_rounds(MAC_BITS_PER_PTE)
_ID_ROUNDS = _log_step_rounds(ID_BITS_PER_PTE)


def _gather(lanes: int, rounds) -> int:
    lanes &= rounds[0][1]
    for shift, _narrow, wide in rounds:
        lanes = (lanes | lanes >> shift) & wide
    return lanes


def _scatter(packed: int, rounds) -> int:
    for shift, narrow, _wide in reversed(rounds):
        packed = (packed | packed << shift) & narrow
    return packed


def split_ptes(line: bytes) -> List[int]:
    """Split a 64-byte line into its eight PTEs (little-endian u64s)."""
    if len(line) != CACHELINE_BYTES:
        raise ValueError(f"line must be {CACHELINE_BYTES} bytes")
    return [
        int.from_bytes(line[i * PTE_BYTES : (i + 1) * PTE_BYTES], "little")
        for i in range(PTES_PER_LINE)
    ]


def join_ptes(ptes: List[int]) -> bytes:
    """Assemble eight PTE values back into a 64-byte line."""
    if len(ptes) != PTES_PER_LINE:
        raise ValueError(f"need {PTES_PER_LINE} PTEs")
    return b"".join((p & mask(64)).to_bytes(PTE_BYTES, "little") for p in ptes)


def protected_bits_mask(max_phys_bits: int) -> int:
    """The per-PTE mask of MAC-protected bits for a given ``M`` (Table IV)."""
    value = 0
    value = insert_bits(value, 8, 0, mask(9))  # flags
    value &= ~(1 << ACCESSED_BIT)  # except the accessed bit
    value = insert_bits(value, 11, 9, mask(3))  # OS-programmable
    value = insert_bits(value, max_phys_bits - 1, 12, mask(max_phys_bits - 12))  # PFN
    value = insert_bits(value, 63, 59, mask(5))  # protection keys + NX
    return value


def protected_bit_positions(max_phys_bits: int) -> List[int]:
    """Bit positions (within a PTE) covered by the MAC, ascending."""
    pmask = protected_bits_mask(max_phys_bits)
    return [i for i in range(64) if (pmask >> i) & 1]


def protected_line_mask(max_phys_bits: int) -> int:
    """:func:`protected_bits_mask` for all eight PTEs of a 512-bit line value."""
    if max_phys_bits not in _PROTECTED_LINE_MASKS:
        _PROTECTED_LINE_MASKS[max_phys_bits] = _spread(
            protected_bits_mask(max_phys_bits)
        )
    return _PROTECTED_LINE_MASKS[max_phys_bits]


def mask_unprotected(line: bytes, max_phys_bits: int) -> bytes:
    """Zero every bit the MAC does not cover — the MAC input (Sec IV-F)."""
    value = int.from_bytes(line, "little") & protected_line_mask(max_phys_bits)
    return value.to_bytes(CACHELINE_BYTES, "little")


def matches_pattern(line: bytes, extended: bool = False) -> bool:
    """The DRAM-write bit-pattern match.

    Returns True when bits 51:40 of all eight PTEs are zero (and, when
    ``extended``, bits 58:52 as well) — i.e. when the line is eligible for
    MAC (and identifier) embedding.
    """
    value = int.from_bytes(line, "little")
    fields = MAC_FIELDS_LINE_MASK | (ID_FIELDS_LINE_MASK if extended else 0)
    return value & fields == 0


def mac_of(value: int) -> int:
    """Pool bits 51:40 of the eight PTEs of a line value into the 96-bit MAC."""
    return _gather(value >> MAC_FIELD_LOW, _MAC_ROUNDS)


def with_mac(value: int, tag: int) -> int:
    """Scatter a 96-bit MAC into bits 51:40 of the eight PTEs of a line value."""
    if tag >> MAC_BITS_PER_LINE:
        raise ValueError(f"MAC does not fit in {MAC_BITS_PER_LINE} bits")
    return value & ~MAC_FIELDS_LINE_MASK | _scatter(tag, _MAC_ROUNDS) << MAC_FIELD_LOW


def identifier_of(value: int) -> int:
    """Pool bits 58:52 of the eight PTEs of a line value into the identifier."""
    return _gather(value >> ID_FIELD_LOW, _ID_ROUNDS)


def with_identifier(value: int, identifier: int) -> int:
    """Scatter the 56-bit identifier into bits 58:52 of a line value."""
    if identifier >> ID_BITS_PER_LINE:
        raise ValueError(f"identifier does not fit in {ID_BITS_PER_LINE} bits")
    return value & ~ID_FIELDS_LINE_MASK | _scatter(identifier, _ID_ROUNDS) << ID_FIELD_LOW


def extract_mac(line: bytes) -> int:
    """Pool bits 51:40 of the eight PTEs into the 96-bit stored MAC."""
    return mac_of(int.from_bytes(line, "little"))


def embed_mac(line: bytes, tag: int) -> bytes:
    """Scatter a 96-bit MAC into bits 51:40 of the eight PTEs."""
    value = with_mac(int.from_bytes(line, "little"), tag)
    return value.to_bytes(CACHELINE_BYTES, "little")


def strip_mac(line: bytes) -> bytes:
    """Zero the MAC field of every PTE (before forwarding to the caches)."""
    value = int.from_bytes(line, "little") & ~MAC_FIELDS_LINE_MASK
    return value.to_bytes(CACHELINE_BYTES, "little")


def extract_identifier(line: bytes) -> int:
    """Pool bits 58:52 of the eight PTEs into the 56-bit identifier."""
    return identifier_of(int.from_bytes(line, "little"))


def embed_identifier(line: bytes, identifier: int) -> bytes:
    """Scatter the 56-bit identifier into bits 58:52 of the eight PTEs."""
    value = with_identifier(int.from_bytes(line, "little"), identifier)
    return value.to_bytes(CACHELINE_BYTES, "little")


def strip_identifier(line: bytes) -> bytes:
    """Zero the identifier field of every PTE."""
    value = int.from_bytes(line, "little") & ~ID_FIELDS_LINE_MASK
    return value.to_bytes(CACHELINE_BYTES, "little")


def strip_metadata(line: bytes) -> bytes:
    """Zero both MAC and identifier fields (full metadata removal)."""
    value = int.from_bytes(line, "little") & ~METADATA_LINE_MASK
    return value.to_bytes(CACHELINE_BYTES, "little")


def is_zero_data(line: bytes) -> bool:
    """True when the line is all-zero outside the MAC/identifier fields.

    This is the MAC-zero fast-path predicate (Sec V-B): a zero cacheline
    that had metadata embedded still reads back as zero once the MAC and
    identifier fields are masked out.
    """
    return int.from_bytes(line, "little") & ~METADATA_LINE_MASK == 0


def pfn_of(pte: int, max_phys_bits: int) -> int:
    """Extract the PFN (bits M-1:12) from a PTE."""
    return bits(pte, max_phys_bits - 1, 12)


def with_pfn(pte: int, pfn: int, max_phys_bits: int) -> int:
    """Return ``pte`` with its PFN field replaced."""
    return insert_bits(pte, max_phys_bits - 1, 12, pfn & mask(max_phys_bits - 12))


def pfn_exceeds_bound(pte: int, max_phys_bits: int) -> bool:
    """The OS-visible bounds check of Section IV-E.

    When a faulty protected PTE reaches the OS via a data read, the MAC
    residing in bits 51:40 makes the architectural 40-bit PFN exceed the
    installed physical memory, which the (trusted) OS can detect.
    """
    architectural_pfn = bits(pte, 51, 12)
    return architectural_pfn >> (max_phys_bits - 12) != 0
