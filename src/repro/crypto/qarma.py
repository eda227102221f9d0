"""QARMA — a low-latency tweakable block cipher (Avanzi, ToSC 2017).

PT-Guard constructs its PTE MAC from QARMA-128 (paper Section IV-F). This
module implements the QARMA construction from scratch: a 4x4 cell state,
``r`` forward rounds, a central Even-Mansour-style pseudo-reflector, and
``r`` backward rounds, with the tweak injected every round through the
``h`` cell permutation and ``omega`` LFSR.

Fidelity note (also recorded in DESIGN.md): the official QARMA test
vectors are not available offline, so this implementation is validated by
*property* tests — exact invertibility, key/tweak/plaintext avalanche, and
bias statistics — rather than by reference vectors. The structure (cell
sizes, permutations, Midori-derived S-box, circulant MixColumns matrices,
pi-digit round constants, reflection construction) follows the published
design. Where PT-Guard needs an externally validated primitive, the MAC
layer can swap in SipHash-2-4 (see :mod:`repro.crypto.siphash`).

Two variants are provided:

* ``Qarma64``  — 64-bit block, 4-bit cells, 128-bit key (r = 7).
* ``Qarma128`` — 128-bit block, 8-bit cells, 256-bit key (r = 8, i.e. the
  18-round configuration PT-Guard cites: 2r + 2 = 18).

Two evaluation paths share the same mathematics:

* the **reference path** (:meth:`Qarma.encrypt_reference`) operates on
  explicit 16-cell lists, one primitive at a time — slow, but a direct
  transcription of the construction;
* the **table path** (the default :meth:`Qarma.encrypt`) folds each
  round's linear layer (tau-shuffle then MixColumns) together with the
  adjacent S-box layer into 16 per-cell lookup tables over packed
  integers (AES "T-table" style), so a round is 16 table lookups XORed
  together instead of hundreds of per-cell operations. The tables are
  key-independent, built once per cell size and shared by every
  instance; the per-round tweakeys are memoized per tweak value. The
  table path is bit-exact against the reference path (property-tested in
  ``tests/test_qarma_tables.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple


def _invert_permutation(perm: Sequence[int]) -> Tuple[int, ...]:
    """Invert a permutation by index assignment (O(n), not O(n^2) scans)."""
    inverse = [0] * len(perm)
    for index, value in enumerate(perm):
        inverse[value] = index
    return tuple(inverse)


# Midori Sb0, the sigma_1 S-box family member QARMA recommends.
_SBOX4 = (0xC, 0xA, 0xD, 0x3, 0xE, 0xB, 0xF, 0x7, 0x8, 0x9, 0x1, 0x5, 0x0, 0x2, 0x4, 0x6)
_SBOX4_INV = _invert_permutation(_SBOX4)

# Cell shuffle tau (Midori's permutation) and its inverse.
_TAU = (0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2)
_TAU_INV = _invert_permutation(_TAU)

# Tweak-cell update permutation h.
_H = (6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11)

# Cells whose tweak value passes through the omega LFSR each round.
_LFSR_CELLS = (0, 1, 3, 4, 8, 11, 13)

# Round constants: leading fractional hex digits of pi, 64 bits per round.
_PI_CONSTANTS = (
    0x243F6A8885A308D3,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
    0xBE5466CF34E90C6C,
    0xC0AC29B7C97C50DD,
    0x3F84D5B5B5470917,
    0x9216D5D98979FB1B,
    0xD1310BA698DFB5AC,
    0x2FFD72DBD01ADFB7,
    0xB8E1AFED6A267E96,
    0xBA7C9045F12C7F99,
    0x24A19947B3916CF7,
    0x0801F2E2858EFC16,
    0x636920D871574E69,
)
# The reflection constant alpha (a further pi-digit word).
_ALPHA = 0xC6EF3720A4093822

# MixColumns: involutory circ(0, p^1, p^2, p^1) for 4-bit cells,
# circ(0, p^1, p^2, p^5) for 8-bit cells (inverted numerically).
_MIX_ROTATIONS = {4: (0, 1, 2, 1), 8: (0, 1, 2, 5)}

# Bound on the per-instance tweakey-schedule memo (each entry is a handful
# of small tuples; the MAC use case only ever sees tweak 0).
_TWEAK_CACHE_MAX = 1024


def _mix_schedule(
    rotations: Sequence[int], cell_bits: int
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Precompute, per output row, the (source row, rotation) pairs of the
    circulant MixColumns matrix — instead of re-deriving ``(k - row) % 4``
    per cell per round. Rotations come out already reduced mod the cell
    size, and the zero diagonal entries are dropped."""
    schedule = []
    for row in range(4):
        entries = []
        for k in range(4):
            diagonal = (k - row) % 4
            if diagonal == 0:
                continue  # diagonal entry is the zero map in circ(0, ...)
            entries.append((k, rotations[diagonal] % cell_bits))
        schedule.append(tuple(entries))
    return tuple(schedule)


def _mix_cells(
    cells: Sequence[int],
    schedule: Tuple[Tuple[Tuple[int, int], ...], ...],
    cell_bits: int,
    mask: int,
) -> List[int]:
    """Multiply each state column by the circulant matrix (column-major
    state: column ``c`` holds cells ``c, c+4, c+8, c+12``)."""
    out = [0] * 16
    for col in range(4):
        column = (cells[col], cells[col + 4], cells[col + 8], cells[col + 12])
        for row in range(4):
            acc = 0
            for k, rot in schedule[row]:
                value = column[k]
                if rot:
                    value = ((value << rot) | (value >> (cell_bits - rot))) & mask
                acc ^= value
            out[col + 4 * row] = acc
    return out


def _shuffle_cells(cells: Sequence[int]) -> List[int]:
    return [cells[_TAU[i]] for i in range(16)]


def _shuffle_cells_inv(cells: Sequence[int]) -> List[int]:
    return [cells[_TAU_INV[i]] for i in range(16)]


# -- fused lookup tables (key-independent, shared across instances) ---------


class _TableSet:
    """Per-cell-size lookup tables for the packed-integer fast path.

    Every table is a list of 16 lists (one per cell position) mapping a
    cell value to its packed whole-state contribution; a full state
    transform is the XOR of 16 lookups.

    * ``tsl``      — S-box then (tau, MixColumns): one fused forward round
    * ``tsl_inv``  — inverse S-box then (inverse MixColumns, inverse tau)
    * ``linear``   — (tau, MixColumns) alone (used on tweakeys)
    * ``reflect``  — tau, MixColumns, inverse tau (the reflector's linear part)
    * ``reflect_inv`` — tau, inverse MixColumns, inverse tau
    * ``sbox_pos`` / ``sbox_inv_pos`` — the (inverse) S-box alone, in place
    """

    __slots__ = (
        "cell_bits",
        "mask",
        "tsl",
        "tsl_inv",
        "linear",
        "reflect",
        "reflect_inv",
        "sbox_pos",
        "sbox_inv_pos",
        "apply",
        "mix_inv_cells",
    )

    def __init__(self, cell_bits: int):
        self.cell_bits = cell_bits
        mask = (1 << cell_bits) - 1
        self.mask = mask
        size = 1 << cell_bits
        shifts = tuple(i * cell_bits for i in range(16))
        rotations = _MIX_ROTATIONS[cell_bits]
        forward_schedule = _mix_schedule(rotations, cell_bits)

        if cell_bits == 4:
            sbox: Sequence[int] = _SBOX4
            sbox_inv: Sequence[int] = _SBOX4_INV
        else:
            # 8-bit cells: S-box each nibble, then swap nibbles so the next
            # MixColumns round diffuses across nibble boundaries.
            sbox = tuple(
                (_SBOX4[v & 0xF] << 4) | _SBOX4[v >> 4] for v in range(256)
            )
            sbox_inv = tuple(
                (_SBOX4_INV[v & 0xF] << 4) | _SBOX4_INV[v >> 4] for v in range(256)
            )

        def mix_forward(cells: Sequence[int]) -> List[int]:
            return _mix_cells(cells, forward_schedule, cell_bits, mask)

        if cell_bits == 4:
            mix_inverse = mix_forward  # circ(0, 1, 2, 1) is an involution
        else:
            matrix = _invert_circulant(rotations, cell_bits)

            def mix_inverse(cells: Sequence[int]) -> List[int]:
                return _apply_gf2_matrix(matrix, cells, cell_bits)

        self.mix_inv_cells = mix_inverse

        def pack(cells: Sequence[int]) -> int:
            value = 0
            for i in range(16):
                value |= cells[i] << shifts[i]
            return value

        def linear_table(transform: Callable[[List[int]], List[int]]) -> List[List[int]]:
            """Tabulate a GF(2)-linear state transform per (position, value).

            Only the ``cell_bits`` single-bit basis inputs go through the
            (slow) reference transform; the rest of each 2^cell_bits-entry
            table is filled by XOR-combining basis images.
            """
            tables: List[List[int]] = []
            for position in range(16):
                basis = []
                for bit in range(cell_bits):
                    cells = [0] * 16
                    cells[position] = 1 << bit
                    basis.append(pack(transform(cells)))
                table = [0] * size
                for value in range(1, size):
                    low = value & -value
                    table[value] = table[value ^ low] ^ basis[low.bit_length() - 1]
                tables.append(table)
            return tables

        linear = linear_table(lambda c: mix_forward(_shuffle_cells(c)))
        linear_inv = linear_table(lambda c: _shuffle_cells_inv(mix_inverse(c)))
        self.linear = linear
        self.reflect = linear_table(
            lambda c: _shuffle_cells_inv(mix_forward(_shuffle_cells(c)))
        )
        self.reflect_inv = linear_table(
            lambda c: _shuffle_cells_inv(mix_inverse(_shuffle_cells(c)))
        )
        # Fold the S-box of the adjacent non-linear layer into the linear
        # tables: one fused lookup per cell covers a whole cipher round.
        self.tsl = [[linear[i][sbox[v]] for v in range(size)] for i in range(16)]
        self.tsl_inv = [
            [linear_inv[i][sbox_inv[v]] for v in range(size)] for i in range(16)
        ]
        self.sbox_pos = [[sbox[v] << shifts[i] for v in range(size)] for i in range(16)]
        self.sbox_inv_pos = [
            [sbox_inv[v] << shifts[i] for v in range(size)] for i in range(16)
        ]

        # Unrolled 16-lookup XOR fold, compiled once per cell size.
        parts = " ^ ".join(
            f"t[{i}][(x >> {shifts[i]}) & {mask}]" if i else f"t[0][x & {mask}]"
            for i in range(16)
        )
        self.apply = eval(f"lambda t, x: {parts}")  # noqa: S307 - static, trusted

    def __reduce__(self):
        # The compiled ``apply`` lambda and the mix closures cannot be
        # pickled; tables are pure functions of the cell size, so rebuild
        # through the memoized factory instead (boot-snapshot support).
        return (_tables_for, (self.cell_bits,))


_TABLE_SETS: Dict[int, _TableSet] = {}


def _tables_for(cell_bits: int) -> _TableSet:
    tables = _TABLE_SETS.get(cell_bits)
    if tables is None:
        tables = _TableSet(cell_bits)
        _TABLE_SETS[cell_bits] = tables
    return tables


class Qarma:
    """A QARMA-family tweakable block cipher instance.

    Parameters
    ----------
    key:
        ``2 * block_bits`` bits of key material as bytes
        (whitening key ``w0`` little-endian first, core key ``k0`` second).
    cell_bits:
        4 for QARMA-64, 8 for QARMA-128.
    rounds:
        Number of forward rounds ``r`` (total rounds = ``2r + 2``).
    use_tables:
        Select the packed-integer table path (default) or the cell-by-cell
        reference path for :meth:`encrypt`/:meth:`decrypt`. Both are
        bit-exact; the reference path exists for validation and as the
        executable specification.
    """

    def __init__(
        self, key: bytes, cell_bits: int = 8, rounds: int = 8, use_tables: bool = True
    ):
        if cell_bits not in (4, 8):
            raise ValueError("cell_bits must be 4 or 8")
        if not 1 <= rounds <= len(_PI_CONSTANTS):
            raise ValueError(f"rounds must lie in [1, {len(_PI_CONSTANTS)}]")
        self.cell_bits = cell_bits
        self.rounds = rounds
        self.block_bits = 16 * cell_bits
        self.block_bytes = self.block_bits // 8
        key_bytes = 2 * self.block_bytes
        if len(key) != key_bytes:
            raise ValueError(f"key must be {key_bytes} bytes, got {len(key)}")

        self._cell_mask = (1 << cell_bits) - 1
        w0 = int.from_bytes(key[: self.block_bytes], "little")
        k0 = int.from_bytes(key[self.block_bytes :], "little")
        self._w0 = self._to_cells(w0)
        self._k0 = self._to_cells(k0)
        # w1 = (w0 >>> 1) xor (w0 >> (b - 1)): the orthomorphism o(x).
        b = self.block_bits
        w1 = (((w0 >> 1) | (w0 << (b - 1))) ^ (w0 >> (b - 1))) & ((1 << b) - 1)
        self._w1 = self._to_cells(w1)
        self._alpha = self._constant_cells(_ALPHA)
        self._constants = [self._constant_cells(_PI_CONSTANTS[i]) for i in range(rounds)]
        self._mix_rot = _MIX_ROTATIONS[cell_bits]
        self._mix_sched = _mix_schedule(self._mix_rot, cell_bits)
        if cell_bits == 4:
            self._mix_rot_inv = self._mix_rot  # involution
        else:
            self._mix_rot_inv = _invert_circulant(self._mix_rot, cell_bits)

        # -- table-path (packed-integer) precomputation --------------------
        tables = _tables_for(cell_bits)
        self._tables = tables
        self._w0_int = w0
        self._w1_int = w1
        self._k0_int = k0
        self._alpha_int = self._from_cells(self._alpha)
        self._constants_int = [self._from_cells(c) for c in self._constants]
        # Reflector additive constants: tau^-1(k0) and tau^-1(M^-1(k0)).
        self._reflect_const = self._from_cells(_shuffle_cells_inv(self._k0))
        self._reflect_inv_const = self._from_cells(
            _shuffle_cells_inv(tables.mix_inv_cells(self._k0))
        )
        # L(alpha) with L = M . tau, for the decrypt-side tweakeys.
        self._linear_alpha = tables.apply(tables.linear, self._alpha_int)
        self._tweak_cache: Dict[int, tuple] = {}
        if use_tables:
            self.encrypt = self._encrypt_tables  # type: ignore[method-assign]
            self.decrypt = self._decrypt_tables  # type: ignore[method-assign]
        else:
            self.encrypt = self.encrypt_reference  # type: ignore[method-assign]
            self.decrypt = self.decrypt_reference  # type: ignore[method-assign]

    # -- cell <-> integer conversion -------------------------------------

    def _to_cells(self, value: int) -> List[int]:
        """Split an integer into 16 cells, cell 0 least significant."""
        return [(value >> (self.cell_bits * i)) & self._cell_mask for i in range(16)]

    def _from_cells(self, cells: Sequence[int]) -> int:
        value = 0
        for i, cell in enumerate(cells):
            value |= cell << (self.cell_bits * i)
        return value

    def _constant_cells(self, word64: int) -> List[int]:
        """Expand a 64-bit constant into 16 cells (repeated for 8-bit cells)."""
        if self.cell_bits == 4:
            return [(word64 >> (4 * i)) & 0xF for i in range(16)]
        doubled = word64 | (word64 << 64)
        return [(doubled >> (8 * i)) & 0xFF for i in range(16)]

    # -- primitive operations (each with an exact inverse) ----------------

    def _sub_cells(self, cells: List[int]) -> List[int]:
        if self.cell_bits == 4:
            return [_SBOX4[c] for c in cells]
        # 8-bit cells: S-box each nibble, then swap nibbles so the next
        # MixColumns round diffuses across nibble boundaries.
        return [(_SBOX4[c & 0xF] << 4) | _SBOX4[c >> 4] for c in cells]

    def _sub_cells_inv(self, cells: List[int]) -> List[int]:
        if self.cell_bits == 4:
            return [_SBOX4_INV[c] for c in cells]
        return [(_SBOX4_INV[c & 0xF] << 4) | _SBOX4_INV[c >> 4] for c in cells]

    def _shuffle(self, cells: List[int]) -> List[int]:
        return _shuffle_cells(cells)

    def _shuffle_inv(self, cells: List[int]) -> List[int]:
        return _shuffle_cells_inv(cells)

    def _mix_forward(self, cells: List[int]) -> List[int]:
        return _mix_cells(cells, self._mix_sched, self.cell_bits, self._cell_mask)

    def _mix_inverse(self, cells: List[int]) -> List[int]:
        if self.cell_bits == 4:
            return self._mix_forward(cells)
        return _apply_gf2_matrix(self._mix_rot_inv, cells, self.cell_bits)

    @staticmethod
    def _xor(a: Sequence[int], b: Sequence[int]) -> List[int]:
        return [x ^ y for x, y in zip(a, b)]

    def _lfsr(self, cell: int) -> int:
        """The omega LFSR on a tweak cell: maximal-period map per cell size."""
        n = self.cell_bits
        top = (cell >> (n - 1)) & 1
        second = (cell >> (n - 2)) & 1 if n == 4 else (cell >> 2) & 1
        return ((cell << 1) & self._cell_mask) | (top ^ second)

    def _tweak_schedule(self, tweak: int) -> List[List[int]]:
        """Materialise the per-round tweak states for the forward pass."""
        cells = self._to_cells(tweak & ((1 << self.block_bits) - 1))
        schedule = [list(cells)]
        for _ in range(self.rounds - 1):
            permuted = [cells[_H[i]] for i in range(16)]
            for idx in _LFSR_CELLS:
                permuted[idx] = self._lfsr(permuted[idx])
            cells = permuted
            schedule.append(list(cells))
        return schedule

    # -- rounds ------------------------------------------------------------

    def _forward_round(self, state: List[int], tweakey: List[int], short: bool) -> List[int]:
        state = self._xor(state, tweakey)
        if not short:
            state = self._shuffle(state)
            state = self._mix_forward(state)
        return self._sub_cells(state)

    def _backward_round(self, state: List[int], tweakey: List[int], short: bool) -> List[int]:
        state = self._sub_cells_inv(state)
        if not short:
            state = self._mix_inverse(state)
            state = self._shuffle_inv(state)
        return self._xor(state, tweakey)

    def _reflector(self, state: List[int]) -> List[int]:
        """The central pseudo-reflector: tau, M (keyed by k1), tau^-1."""
        state = self._shuffle(state)
        state = self._mix_forward(state)
        state = self._xor(state, self._k0)
        state = self._shuffle_inv(state)
        return state

    def _reflector_inv(self, state: List[int]) -> List[int]:
        state = self._shuffle(state)
        state = self._xor(state, self._k0)
        state = self._mix_inverse(state)
        state = self._shuffle_inv(state)
        return state

    # -- public API ----------------------------------------------------------

    def encrypt(self, plaintext: int, tweak: int = 0) -> int:
        """Encrypt one block (bound per instance to the table or reference
        path in ``__init__``; both compute the identical permutation)."""
        return self._encrypt_tables(plaintext, tweak)

    def decrypt(self, ciphertext: int, tweak: int = 0) -> int:
        """Invert :meth:`encrypt` exactly."""
        return self._decrypt_tables(ciphertext, tweak)

    # -- table path ----------------------------------------------------------

    def _tweak_entry(self, tweak: int) -> tuple:
        """Packed per-round tweakeys, memoized per tweak value.

        Returns ``(tk, ltk, tkb, ltkd, tweak_last)`` where ``tk[i]`` is the
        packed round tweakey ``k0 ^ t_i ^ c_i``, ``ltk[i] = L(tk[i])`` with
        ``L = M . tau`` (the form the fused forward tables consume),
        ``tkb[i] = tk[i] ^ alpha`` for the backward rounds, ``ltkd[i] =
        L(tk[i] ^ alpha)`` for the decrypt forward pass, and ``tweak_last``
        the packed final tweak state used in the central whitening.
        """
        entry = self._tweak_cache.get(tweak)
        if entry is not None:
            return entry
        tables = self._tables
        apply_tables = tables.apply
        linear = tables.linear
        k0 = self._k0_int
        alpha = self._alpha_int
        constants = self._constants_int
        schedule = [self._from_cells(c) for c in self._tweak_schedule(tweak)]
        tk = tuple(k0 ^ schedule[i] ^ constants[i] for i in range(self.rounds))
        ltk = (0,) + tuple(apply_tables(linear, tk[i]) for i in range(1, self.rounds))
        tkb = tuple(value ^ alpha for value in tk)
        ltkd = (0,) + tuple(value ^ self._linear_alpha for value in ltk[1:])
        entry = (tk, ltk, tkb, ltkd, schedule[-1])
        if len(self._tweak_cache) >= _TWEAK_CACHE_MAX:
            self._tweak_cache.clear()
        self._tweak_cache[tweak] = entry
        return entry

    def _encrypt_tables(self, plaintext: int, tweak: int = 0) -> int:
        self._check_block(plaintext)
        tables = self._tables
        apply_tables = tables.apply
        tsl = tables.tsl
        tk, ltk, tkb, _ltkd, tweak_last = self._tweak_entry(tweak)
        rounds = self.rounds

        # Forward rounds, S-box fused with the next round's linear layer.
        x = plaintext ^ self._w0_int ^ tk[0]
        for i in range(1, rounds):
            x = apply_tables(tsl, x) ^ ltk[i]
        x = apply_tables(tables.sbox_pos, x)
        # Central whitening, reflector, central whitening.
        x ^= self._w1_int ^ tweak_last
        x = apply_tables(tables.reflect, x) ^ self._reflect_const
        x ^= self._w0_int ^ tweak_last
        # Backward rounds (tweakeys carry alpha).
        tsl_inv = tables.tsl_inv
        for i in range(rounds - 1, 0, -1):
            x = apply_tables(tsl_inv, x) ^ tkb[i]
        x = apply_tables(tables.sbox_inv_pos, x) ^ tkb[0]
        return x ^ self._w1_int

    def _decrypt_tables(self, ciphertext: int, tweak: int = 0) -> int:
        self._check_block(ciphertext)
        tables = self._tables
        apply_tables = tables.apply
        tsl = tables.tsl
        tk, _ltk, tkb, ltkd, tweak_last = self._tweak_entry(tweak)
        rounds = self.rounds

        x = ciphertext ^ self._w1_int ^ tkb[0]
        for i in range(1, rounds):
            x = apply_tables(tsl, x) ^ ltkd[i]
        x = apply_tables(tables.sbox_pos, x)
        x ^= self._w0_int ^ tweak_last
        x = apply_tables(tables.reflect_inv, x) ^ self._reflect_inv_const
        x ^= self._w1_int ^ tweak_last
        tsl_inv = tables.tsl_inv
        for i in range(rounds - 1, 0, -1):
            x = apply_tables(tsl_inv, x) ^ tk[i]
        x = apply_tables(tables.sbox_inv_pos, x) ^ tk[0]
        return x ^ self._w0_int

    # -- reference path --------------------------------------------------------

    def encrypt_reference(self, plaintext: int, tweak: int = 0) -> int:
        """Encrypt one block via the cell-by-cell reference path."""
        self._check_block(plaintext)
        state = self._to_cells(plaintext)
        tweaks = self._tweak_schedule(tweak)

        state = self._xor(state, self._w0)
        for i in range(self.rounds):
            tweakey = self._xor(self._xor(self._k0, tweaks[i]), self._constants[i])
            state = self._forward_round(state, tweakey, short=(i == 0))
        # Forward whitening half-round before the reflector.
        state = self._xor(state, self._xor(self._w1, tweaks[-1]))
        state = self._reflector(state)
        state = self._xor(state, self._xor(self._w0, tweaks[-1]))
        for i in reversed(range(self.rounds)):
            tweakey = self._xor(
                self._xor(self._xor(self._k0, tweaks[i]), self._constants[i]),
                self._alpha,
            )
            state = self._backward_round(state, tweakey, short=(i == 0))
        state = self._xor(state, self._w1)
        return self._from_cells(state)

    def decrypt_reference(self, ciphertext: int, tweak: int = 0) -> int:
        """Invert :meth:`encrypt_reference` exactly (mechanical inverse)."""
        self._check_block(ciphertext)
        state = self._to_cells(ciphertext)
        tweaks = self._tweak_schedule(tweak)

        state = self._xor(state, self._w1)
        for i in range(self.rounds):
            tweakey = self._xor(
                self._xor(self._xor(self._k0, tweaks[i]), self._constants[i]),
                self._alpha,
            )
            # Inverse of a backward round is a forward round with same tweakey.
            state = self._forward_round_inv_of_backward(state, tweakey, short=(i == 0))
        state = self._xor(state, self._xor(self._w0, tweaks[-1]))
        state = self._reflector_inv(state)
        state = self._xor(state, self._xor(self._w1, tweaks[-1]))
        for i in reversed(range(self.rounds)):
            tweakey = self._xor(self._xor(self._k0, tweaks[i]), self._constants[i])
            state = self._backward_round_inv_of_forward(state, tweakey, short=(i == 0))
        state = self._xor(state, self._w0)
        return self._from_cells(state)

    def _forward_round_inv_of_backward(
        self, state: List[int], tweakey: List[int], short: bool
    ) -> List[int]:
        state = self._xor(state, tweakey)
        if not short:
            state = self._shuffle(state)
            state = self._mix_forward(state)
        return self._sub_cells(state)

    def _backward_round_inv_of_forward(
        self, state: List[int], tweakey: List[int], short: bool
    ) -> List[int]:
        state = self._sub_cells_inv(state)
        if not short:
            state = self._mix_inverse(state)
            state = self._shuffle_inv(state)
        return self._xor(state, tweakey)

    def encrypt_bytes(self, plaintext: bytes, tweak: bytes = b"") -> bytes:
        """Byte-oriented convenience wrapper around :meth:`encrypt`."""
        if len(plaintext) != self.block_bytes:
            raise ValueError(f"plaintext must be {self.block_bytes} bytes")
        tweak_int = int.from_bytes(tweak.ljust(self.block_bytes, b"\0"), "little")
        out = self.encrypt(int.from_bytes(plaintext, "little"), tweak_int)
        return out.to_bytes(self.block_bytes, "little")

    def _check_block(self, value: int) -> None:
        if value < 0 or value >> self.block_bits:
            raise ValueError(f"block must fit in {self.block_bits} bits")


def Qarma64(key: bytes, rounds: int = 7, use_tables: bool = True) -> Qarma:
    """QARMA-64: 64-bit block, 128-bit key."""
    return Qarma(key, cell_bits=4, rounds=rounds, use_tables=use_tables)


def Qarma128(key: bytes, rounds: int = 8, use_tables: bool = True) -> Qarma:
    """QARMA-128: 128-bit block, 256-bit key.

    The default ``rounds=8`` gives the 18-round (2r + 2) configuration
    PT-Guard uses, with a 3.4 ns / ~10-CPU-cycle hardware latency.
    """
    return Qarma(key, cell_bits=8, rounds=rounds, use_tables=use_tables)


# -- circulant-matrix inversion over GF(2) ---------------------------------


def _column_matrix(rotations: Sequence[int], cell_bits: int) -> List[List[int]]:
    """Build the GF(2) matrix of circ(rotations) acting on one 4-cell column."""
    dim = 4 * cell_bits
    matrix = [[0] * dim for _ in range(dim)]
    for row in range(4):
        for k in range(4):
            if (k - row) % 4 == 0:
                continue
            rot = rotations[(k - row) % 4] % cell_bits
            for b in range(cell_bits):
                # input bit b of cell k contributes to output bit (b+rot)%n
                src = k * cell_bits + b
                dst = row * cell_bits + ((b + rot) % cell_bits)
                matrix[dst][src] ^= 1
    return matrix


def _invert_gf2(matrix: List[List[int]]) -> List[List[int]]:
    """Invert a square GF(2) matrix by Gauss-Jordan; raises if singular."""
    dim = len(matrix)
    aug = [row[:] + [1 if i == j else 0 for j in range(dim)] for i, row in enumerate(matrix)]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(dim):
            if r != col and aug[r][col]:
                aug[r] = [a ^ b for a, b in zip(aug[r], aug[col])]
    return [row[dim:] for row in aug]


_INV_CACHE: dict = {}


def _invert_circulant(rotations: Sequence[int], cell_bits: int):
    """Return the inverse column transform for circ(rotations)."""
    key = (tuple(rotations), cell_bits)
    if key not in _INV_CACHE:
        _INV_CACHE[key] = _invert_gf2(_column_matrix(rotations, cell_bits))
    return _INV_CACHE[key]


def _apply_gf2_matrix(matrix: List[List[int]], cells: List[int], cell_bits: int) -> List[int]:
    """Apply a per-column GF(2) matrix to the 16-cell state."""
    out = [0] * 16
    dim = 4 * cell_bits
    for col in range(4):
        vec = 0
        for row in range(4):
            vec |= cells[col + 4 * row] << (row * cell_bits)
        result = 0
        for dst in range(dim):
            row_bits = matrix[dst]
            acc = 0
            for src in range(dim):
                if row_bits[src]:
                    acc ^= (vec >> src) & 1
            result |= acc << dst
        for row in range(4):
            out[col + 4 * row] = (result >> (row * cell_bits)) & ((1 << cell_bits) - 1)
    return out
