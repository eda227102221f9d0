"""MAC construction over a 64-byte PTE cacheline (paper Section IV-F).

The paper builds the MAC from QARMA-128: the cacheline (with unprotected
bits zeroed) is split into four 16-byte chunks ``C_i``; each chunk is
XOR-combined with the 16-byte line address ``A`` and enciphered,
``Q_i = Q(C_i ^ A)``; the four outputs are XORed into a 128-bit value and
the upper 32 bits are dropped, yielding a 96-bit MAC.

:class:`QarmaLineMAC` reproduces that construction exactly. Because our
QARMA implementation cannot be validated against official vectors offline,
:class:`SipHashLineMAC` offers a drop-in primitive with published test
vectors. Both satisfy the :class:`LineMAC` interface the PT-Guard engine
consumes.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Protocol

from repro.crypto.qarma import Qarma128
from repro.crypto.siphash import siphash24_wide

CACHELINE_BYTES = 64


class LineMAC(Protocol):
    """Interface of a keyed MAC over (line bytes, line address)."""

    mac_bits: int

    def compute(self, line: bytes, address: int) -> int:
        """Return the MAC tag of a 64-byte line bound to its address."""
        ...


class QarmaLineMAC:
    """The paper's QARMA-128 MAC: X = Q(C1^A) ^ ... ^ Q(C4^A), truncated.

    Parameters
    ----------
    key:
        32 bytes (256-bit QARMA-128 key, as the paper specifies).
    mac_bits:
        Tag width; 96 by default, 64 for the reduced design option
        discussed in Section VII-A.
    use_tables:
        Select the table-driven cipher fast path (default) or the
        cell-by-cell reference path — the differential oracle in
        :mod:`repro.faults.invariants` cross-checks one against the
        other on sampled calls.
    """

    def __init__(
        self,
        key: bytes,
        mac_bits: int = 96,
        rounds: int = 8,
        use_tables: bool = True,
    ):
        if len(key) != 32:
            raise ValueError("QARMA-128 key must be 32 bytes")
        if not 1 <= mac_bits <= 128:
            raise ValueError("mac_bits must lie in [1, 128]")
        self.mac_bits = mac_bits
        self.key_bytes = 32
        self._cipher = Qarma128(key, rounds=rounds, use_tables=use_tables)
        self._mask = (1 << mac_bits) - 1
        self._batch = None  # lazily built numpy QarmaBatch128

    def __deepcopy__(self, memo):
        # Keyed but stateless after construction (compute() mutates
        # nothing; _batch is a lazily-built cache of derived tables), so
        # boot-snapshot restores share the instance instead of cloning
        # the cipher tables.
        return self

    def __getstate__(self):
        # The batched cipher holds large numpy table views; it rebuilds
        # lazily on first compute_batch, so never serialize it.
        state = self.__dict__.copy()
        state["_batch"] = None
        return state

    def compute(self, line: bytes, address: int) -> int:
        if len(line) != CACHELINE_BYTES:
            raise ValueError(f"line must be {CACHELINE_BYTES} bytes")
        tag = 0
        for chunk_index in range(4):
            chunk = line[chunk_index * 16 : (chunk_index + 1) * 16]
            # A_i is the 16-byte address of chunk i: binding each chunk to
            # its own address keeps the four cipher inputs distinct (else
            # identical chunks would cancel under the closing XOR).
            chunk_address = (address + 16 * chunk_index) & ((1 << 128) - 1)
            block = int.from_bytes(chunk, "little") ^ chunk_address
            tag ^= self._cipher.encrypt(block)
        # Drop the upper (128 - mac_bits) bits, as Section IV-F prescribes.
        return tag & self._mask

    def compute_batch(self, lines, addresses):
        """Vectorized :meth:`compute` over parallel lists of lines/addresses.

        Bit-exact against the scalar path (the batched cipher shares the
        scalar instance's tables and tweakey schedule); falls back to a
        scalar loop when numpy is unavailable.
        """
        from repro.crypto import qarma_batch

        count = len(lines)
        if not count:
            return []
        if not qarma_batch.HAVE_NUMPY:
            return [self.compute(line, addr)
                    for line, addr in zip(lines, addresses)]
        import numpy as np

        if self._batch is None:
            self._batch = qarma_batch.QarmaBatch128(self._cipher)
        for line in lines:
            if len(line) != CACHELINE_BYTES:
                raise ValueError(f"line must be {CACHELINE_BYTES} bytes")
        # Each 64-byte line is four 16-byte chunks = four (lo, hi) u64
        # pairs; chunk i is XORed with its own 16-byte chunk address.
        words = np.frombuffer(b"".join(lines), dtype="<u8").reshape(count, 8)
        chunk_offsets = np.uint64(16) * np.arange(4, dtype=np.uint64)
        chunk_addr = np.asarray(addresses, dtype=np.uint64)[:, None] + chunk_offsets
        plain_lo = np.ascontiguousarray(words[:, 0::2] ^ chunk_addr).reshape(-1)
        plain_hi = np.ascontiguousarray(words[:, 1::2]).reshape(-1)
        out_lo, out_hi = self._batch.encrypt(plain_lo, plain_hi)
        tag_lo = np.bitwise_xor.reduce(out_lo.reshape(count, 4), axis=1).tolist()
        tag_hi = np.bitwise_xor.reduce(out_hi.reshape(count, 4), axis=1).tolist()
        mask = self._mask
        return [(tag_lo[i] | (tag_hi[i] << 64)) & mask for i in range(count)]


class SipHashLineMAC:
    """SipHash-2-4-based line MAC with identical interface and tag width.

    Substantially faster in pure Python than QARMA, and validated against
    the published SipHash reference vectors — the recommended default for
    large simulations. The line address is bound by prepending it to the
    message.
    """

    def __init__(self, key: bytes, mac_bits: int = 96):
        if len(key) != 16:
            raise ValueError("SipHash key must be 16 bytes")
        if not 1 <= mac_bits <= 128:
            raise ValueError("mac_bits must lie in [1, 128]")
        self.mac_bits = mac_bits
        self.key_bytes = 16
        self._key = key

    def __deepcopy__(self, memo):
        # Keyed but stateless after construction: share across
        # boot-snapshot restores instead of cloning.
        return self

    def compute(self, line: bytes, address: int) -> int:
        if len(line) != CACHELINE_BYTES:
            raise ValueError(f"line must be {CACHELINE_BYTES} bytes")
        message = address.to_bytes(8, "little") + line
        return siphash24_wide(self._key, message, self.mac_bits)


class Blake2LineMAC:
    """Keyed BLAKE2b line MAC — the fast default for large simulations.

    BLAKE2b runs in C via :mod:`hashlib`, ~3 orders of magnitude faster
    than our pure-Python QARMA. Tag distribution and tamper-detection
    properties are equivalent for simulation purposes; the paper's actual
    hardware primitive (QARMA-128) remains available via
    :class:`QarmaLineMAC` and is selected with ``algorithm="qarma"``.
    """

    def __init__(self, key: bytes, mac_bits: int = 96):
        if not 16 <= len(key) <= 64:
            raise ValueError("BLAKE2b key must be 16..64 bytes")
        if not 1 <= mac_bits <= 128:
            raise ValueError("mac_bits must lie in [1, 128]")
        self.mac_bits = mac_bits
        self.key_bytes = len(key)
        self._key = key
        self._digest_bytes = (mac_bits + 7) // 8
        self._mask = (1 << mac_bits) - 1
        self._keyed = None  # lazily built keyed blake2b, copied per tag

    def __deepcopy__(self, memo):
        # Keyed but stateless after construction (compute() only copies
        # _keyed), so boot-snapshot restores share the instance.
        return self

    def __getstate__(self):
        # hashlib objects do not pickle; _keyed rebuilds on first compute.
        state = self.__dict__.copy()
        state["_keyed"] = None
        return state

    def compute(self, line: bytes, address: int) -> int:
        if len(line) != CACHELINE_BYTES:
            raise ValueError(f"line must be {CACHELINE_BYTES} bytes")
        keyed = self._keyed
        if keyed is None:
            # Copying a keyed state skips the per-tag key block, which is
            # most of a fresh keyed blake2b's cost on a 72-byte message.
            keyed = self._keyed = hashlib.blake2b(
                key=self._key, digest_size=self._digest_bytes
            )
        state = keyed.copy()
        state.update(address.to_bytes(8, "little") + line)
        return int.from_bytes(state.digest(), "little") & self._mask


class PseudoLineMAC:
    """Non-cryptographic CRC-based tag for *timing* simulations only.

    Timing experiments (Figs 6/7) never tamper with data, so the MAC's
    cryptographic strength is irrelevant there — only *which* lines get a
    tag embedded and *which* reads trigger a MAC-unit delay matter, and
    both are pattern/identifier decisions independent of the tag value.
    This tag costs ~100 ns instead of ~100 us, keeping multi-million-access
    simulations tractable. Never use it for security experiments; the
    factory (:func:`make_line_mac`) labels it ``"pseudo"`` to keep the
    choice explicit.
    """

    def __init__(self, key: bytes, mac_bits: int = 96):
        if len(key) < 4:
            raise ValueError("key must be at least 4 bytes")
        if not 1 <= mac_bits <= 128:
            raise ValueError("mac_bits must lie in [1, 128]")
        self.mac_bits = mac_bits
        self.key_bytes = len(key)
        self._seed = int.from_bytes(key[:4], "little")
        self._mask = (1 << mac_bits) - 1

    def __deepcopy__(self, memo):
        # Keyed but stateless after construction: share across
        # boot-snapshot restores instead of cloning.
        return self

    def compute(self, line: bytes, address: int) -> int:
        if len(line) != CACHELINE_BYTES:
            raise ValueError(f"line must be {CACHELINE_BYTES} bytes")
        crc = zlib.crc32(line, (self._seed ^ address) & 0xFFFFFFFF)
        # Spread the 32-bit CRC over the tag width with odd multipliers.
        tag = crc
        tag |= ((crc * 0x9E3779B9) & 0xFFFFFFFF) << 32
        tag |= ((crc * 0x85EBCA6B) & 0xFFFFFFFF) << 64
        return tag & self._mask


def derive_key(secret: bytes, purpose: str, length: int) -> bytes:
    """Derive a fixed-length subkey from a master secret (re-keying support).

    Used by the PT-Guard engine when the OS triggers re-keying after CTB
    pressure (Section VII-B): each epoch derives a fresh MAC key.
    """
    material = b""
    counter = 0
    while len(material) < length:
        material += hashlib.sha256(
            secret + purpose.encode("utf-8") + counter.to_bytes(4, "little")
        ).digest()
        counter += 1
    return material[:length]


def make_line_mac(
    algorithm: str,
    secret: bytes,
    mac_bits: int = 96,
    epoch: int = 0,
    reference: bool = False,
) -> LineMAC:
    """Factory for line MACs.

    ``algorithm`` is ``"qarma"`` (the paper's construction), ``"siphash"``
    (pure-Python, vector-validated) or ``"blake2"`` (fast C-backed default
    for large simulations). ``epoch`` selects the re-keying generation.
    ``reference=True`` builds an independent oracle instance for the
    runtime validator: for qarma it selects the cell-by-cell reference
    cipher instead of the lookup tables; other algorithms get a freshly
    derived instance (an independent-recomputation determinism check).
    """
    purpose = f"ptguard-mac-epoch-{epoch}"
    if algorithm == "qarma":
        return QarmaLineMAC(
            derive_key(secret, purpose, 32),
            mac_bits=mac_bits,
            use_tables=not reference,
        )
    if algorithm == "siphash":
        return SipHashLineMAC(derive_key(secret, purpose, 16), mac_bits=mac_bits)
    if algorithm == "blake2":
        return Blake2LineMAC(derive_key(secret, purpose, 32), mac_bits=mac_bits)
    if algorithm == "pseudo":
        return PseudoLineMAC(derive_key(secret, purpose, 16), mac_bits=mac_bits)
    raise ValueError(f"unknown MAC algorithm {algorithm!r}")
