"""Differential tests for the integer-domain line codec and correction.

The guard and the correction search work on a line as one 512-bit
integer: the MAC/identifier fields are pooled and scattered by log-step
shift-and-mask rounds, and correction guesses are XORs on that integer.
Each fast path is checked here against a plain reference kept in this
file — a per-PTE loop for the codec, and a bytes-domain candidate
enumerator for correction (split, edit, join, verify) — under the same
derandomized hypothesis discipline as ``test_property_roundtrips.py``.
"""

import copy
import pickle
import random
from typing import Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pattern
from repro.core.correction import CorrectionEngine, CorrectionResult
from repro.core.engine import MACEngine
from repro.crypto.mac import Blake2LineMAC, make_line_mac
from repro.mmu.pte import make_x86_pte

DERANDOMIZED = settings(derandomize=True, max_examples=200, deadline=None)

lines = st.binary(min_size=64, max_size=64)
macs = st.integers(min_value=0, max_value=(1 << 96) - 1)
identifiers = st.integers(min_value=0, max_value=(1 << 56) - 1)

ADDRESS = 0x40000
SECRET = b"integer-codec-differential"


# -- reference codec: one PTE at a time ------------------------------------


def _ref_extract(line: bytes, low: int, width: int) -> int:
    value = int.from_bytes(line, "little")
    field = 0
    for index in range(8):
        chunk = (value >> (64 * index + low)) & ((1 << width) - 1)
        field |= chunk << (width * index)
    return field


def _ref_embed(line: bytes, low: int, width: int, field: int) -> bytes:
    chunk_mask = (1 << width) - 1
    value = int.from_bytes(line, "little")
    for index in range(8):
        value &= ~(chunk_mask << (64 * index + low))
        chunk = (field >> (width * index)) & chunk_mask
        value |= chunk << (64 * index + low)
    return value.to_bytes(64, "little")


class TestCodecMatchesPerPteLoop:
    @DERANDOMIZED
    @given(line=lines)
    def test_extract_mac(self, line):
        assert pattern.extract_mac(line) == _ref_extract(line, 40, 12)

    @DERANDOMIZED
    @given(line=lines, tag=macs)
    def test_embed_mac(self, line, tag):
        assert pattern.embed_mac(line, tag) == _ref_embed(line, 40, 12, tag)

    @DERANDOMIZED
    @given(line=lines)
    def test_extract_identifier(self, line):
        assert pattern.extract_identifier(line) == _ref_extract(line, 52, 7)

    @DERANDOMIZED
    @given(line=lines, identifier=identifiers)
    def test_embed_identifier(self, line, identifier):
        assert pattern.embed_identifier(line, identifier) == _ref_embed(
            line, 52, 7, identifier
        )

    def test_oversized_fields_rejected(self):
        with pytest.raises(ValueError):
            pattern.embed_mac(bytes(64), 1 << 96)
        with pytest.raises(ValueError):
            pattern.embed_identifier(bytes(64), 1 << 56)


# -- reference correction: bytes-domain candidates ---------------------------


def _ref_candidates(engine: CorrectionEngine, line: bytes) -> Iterator[Tuple[str, bytes]]:
    """The Sec VI-D guess order, built PTE list -> bytes for every guess.

    Steps 3-6 reuse the engine's per-PTE helpers (they operate on PTE
    lists in both domains); what differs is how a guess becomes a line.
    """
    max_phys_bits = engine.engine.max_phys_bits
    yield "soft_match", line
    ptes = pattern.split_ptes(line)
    for index in range(8):
        for bit_position in pattern.protected_bit_positions(max_phys_bits):
            flipped = list(ptes)
            flipped[index] ^= 1 << bit_position
            yield "flip_and_check", pattern.join_ptes(flipped)
    base = engine._reset_almost_zero(ptes)
    yield "reset_zero_ptes", pattern.join_ptes(base)
    flagged = engine._apply_flag_majority(base)
    yield "flag_majority", pattern.join_ptes(flagged)
    for candidate in engine._contiguity_guesses(base, max_phys_bits):
        yield "pfn_contiguity", pattern.join_ptes(candidate)
    for candidate in engine._contiguity_guesses(flagged, max_phys_bits, skip_majority=True):
        yield "flags_plus_contiguity", pattern.join_ptes(candidate)


def _ref_correct(engine: CorrectionEngine, stored_line: bytes, address: int) -> CorrectionResult:
    mac_engine = engine.engine
    if engine.identifier is not None:
        stored_line = pattern.embed_identifier(stored_line, engine.identifier)
    stored_mac = pattern.extract_mac(stored_line)
    guesses = 0
    for step, candidate in _ref_candidates(engine, stored_line):
        guesses += 1
        result = mac_engine.verify(candidate, address, stored_mac, soft=True)
        if result.ok:
            tag = mac_engine.compute(candidate, address)
            if mac_engine.mac_bits < pattern.MAC_BITS_PER_LINE:
                tag &= (1 << mac_engine.mac_bits) - 1
            return CorrectionResult(
                corrected_line=pattern.embed_mac(candidate, tag),
                guesses_used=guesses,
                winning_step=step,
                mac_distance=result.distance,
            )
    return CorrectionResult(None, guesses, None, -1)


def _engine_pair(mac_bits: int = 96, identifier=None, oracle_period=None):
    """Two identically keyed correction engines with independent MAC
    engines, so computation counts and oracle countdowns compare."""
    pair = []
    for _ in range(2):
        mac_engine = MACEngine(
            make_line_mac("blake2", SECRET, mac_bits), max_phys_bits=40, soft_match_k=4
        )
        if oracle_period is not None:
            mac_engine.attach_oracle(
                make_line_mac("blake2", SECRET, mac_bits, reference=True).compute,
                oracle_period,
            )
        pair.append(CorrectionEngine(mac_engine, identifier=identifier))
    return pair


def _assert_same_correction(faulty: bytes, **engine_options) -> CorrectionResult:
    fast, reference = _engine_pair(**engine_options)
    got = fast.correct(faulty, ADDRESS)
    want = _ref_correct(reference, faulty, ADDRESS)
    assert got == want
    assert fast.engine.computations == reference.engine.computations
    assert fast.engine._oracle_countdown == reference.engine._oracle_countdown
    assert fast.engine.stats.as_dict() == reference.engine.stats.as_dict()
    return got


def _stored_line(ptes: List[int], identifier=None, mac_bits: int = 96) -> bytes:
    mac_engine = MACEngine(make_line_mac("blake2", SECRET, mac_bits), max_phys_bits=40)
    line = pattern.join_ptes(ptes)
    if identifier is not None:
        line = pattern.embed_identifier(line, identifier)
    return pattern.embed_mac(line, mac_engine.compute(line, ADDRESS))


def _flip(line: bytes, *bit_offsets: int) -> bytes:
    value = int.from_bytes(line, "little")
    for offset in bit_offsets:
        value ^= 1 << offset
    return value.to_bytes(64, "little")


def _contiguous(base_pfn: int, zero_slots=()) -> List[int]:
    return [0 if i in zero_slots else make_x86_pte(base_pfn + i) for i in range(8)]


PROTECTED = pattern.protected_bit_positions(40)
MAC_OFFSETS = [64 * i + b for i in range(8) for b in range(40, 52)]


def _seeded_case(kind: str, seed: int) -> bytes:
    rng = random.Random(f"{kind}-{seed}")
    clean = _stored_line(_contiguous(rng.randrange(1, 1 << 20), {rng.randrange(8)}))
    if kind == "single_bit":
        pte = seed % 8  # every PTE slot in turn
        return _flip(clean, 64 * pte + rng.choice(PROTECTED))
    if kind == "double_bit":
        # Unrelated PTEs: neither a flag majority nor a contiguous run
        # can stand in for two flipped protected bits.
        protected = pattern.protected_bits_mask(40)
        clean = _stored_line([rng.getrandbits(64) & protected for _ in range(8)])
        a, b = rng.sample(range(8), 2)
        return _flip(
            clean, 64 * a + rng.choice(PROTECTED), 64 * b + rng.choice(PROTECTED)
        )
    if kind == "mac_only":
        return _flip(clean, *rng.sample(MAC_OFFSETS, rng.randint(1, 4)))
    if kind == "zero_reset":
        zero = rng.randrange(8)
        ptes = _contiguous(rng.randrange(1, 1 << 20), {zero})
        clean = _stored_line(ptes)
        bits = rng.sample([b for b in PROTECTED if b >= 12], rng.randint(2, 4))
        return _flip(clean, *(64 * zero + b for b in bits))
    if kind == "contiguity":
        # Two flips in one PFN's low bits: beyond flip-and-check, inside
        # what the contiguous-run rebuild restores.
        ptes = _contiguous(rng.randrange(1, 1 << 20) * 256)
        clean = _stored_line(ptes)
        victim = rng.randrange(8)
        low, high = rng.sample(range(12, 20), 2)
        return _flip(clean, 64 * victim + low, 64 * victim + high)
    raise ValueError(kind)


KINDS = ("single_bit", "double_bit", "mac_only", "zero_reset", "contiguity")


class TestCorrectionMatchesBytesReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_fault_classes(self, kind):
        steps = {
            _assert_same_correction(_seeded_case(kind, seed)).winning_step
            for seed in range(16)
        }
        expected = {
            "single_bit": "flip_and_check",
            "mac_only": "soft_match",
            "zero_reset": "reset_zero_ptes",
            "contiguity": "pfn_contiguity",
            "double_bit": None,
        }[kind]
        # The class actually exercises the step it is named after.
        assert expected in steps

    def test_identifier_and_narrow_mac(self):
        identifier = 0x5A5A5A5A5A5A5A
        clean = _stored_line(_contiguous(0x1234), identifier=identifier, mac_bits=64)
        for offset in (3, 64 * 5 + 13, 64 * 2 + 55, 64 * 7 + 44):
            _assert_same_correction(
                _flip(clean, offset), mac_bits=64, identifier=identifier
            )

    def test_oracle_countdown_is_unchanged(self):
        for seed in range(4):
            _assert_same_correction(
                _seeded_case("double_bit", seed), oracle_period=7
            )

    @DERANDOMIZED
    @given(
        base_pfn=st.integers(min_value=0, max_value=(1 << 28) - 8),
        present=st.lists(st.booleans(), min_size=8, max_size=8),
        flips=st.lists(
            st.integers(min_value=0, max_value=511), max_size=3, unique=True
        ),
    )
    def test_arbitrary_faults(self, base_pfn, present, flips):
        ptes = [make_x86_pte(base_pfn + i) if p else 0 for i, p in enumerate(present)]
        _assert_same_correction(_flip(_stored_line(ptes), *flips))


# -- keyed blake2 prototype survives pickle and deepcopy ----------------------


class TestBlake2Prototype:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(line=lines, address=st.integers(min_value=0, max_value=(1 << 40) - 1))
    def test_tags_equal_after_pickle_and_deepcopy(self, line, address):
        mac = Blake2LineMAC(bytes(range(32)))
        unused = pickle.loads(pickle.dumps(mac))  # before the prototype exists
        tag = mac.compute(line, address)  # builds the keyed prototype
        assert pickle.loads(pickle.dumps(mac)).compute(line, address) == tag
        assert copy.deepcopy(mac).compute(line, address) == tag
        assert unused.compute(line, address) == tag
        assert Blake2LineMAC(bytes(range(32))).compute(line, address) == tag

    def test_pickle_drops_the_hash_state(self):
        mac = Blake2LineMAC(bytes(range(32)))
        mac.compute(bytes(64), 0)
        assert mac._keyed is not None
        assert pickle.loads(pickle.dumps(mac))._keyed is None
