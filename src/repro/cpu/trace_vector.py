"""Vectorized, bit-exact replay of :class:`TraceGenerator` streams.

Kept only for the perfbench tracer's ``cpu.next_batch`` span: no simulator
module imports it, and it goes together with that span.

``TraceGenerator.next_record`` consumes entropy from a CPython
``random.Random`` in a fixed draw order (the reproducibility contract
documented in :mod:`repro.cpu.trace`). This module replays that exact
word stream in bulk:

* ``numpy.random.RandomState`` implements the same MT19937 core as
  CPython's ``random.Random``. Transplanting the 625-word internal state
  via ``set_state``/``getstate`` makes ``randint(0, 2**32, dtype=uint32)``
  emit **bit-for-bit** the ``getrandbits(32)`` word stream — hundreds of
  times faster than drawing scalar words.
* ``random()`` is two words: ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``,
  exact in float64. ``getrandbits(k <= 32)`` is one word ``>> (32 - k)``.
* Each record's draws are parsed *speculatively at every word offset* of
  a buffer (vectorized), then the true record boundaries are walked as a
  linked list: record ``k`` starts where record ``k-1``'s parse ended.
  Rejection-sampling loops become "next index with an in-range value"
  scans (a reversed ``minimum.accumulate``).

A parse that would read past the buffer is *trapped* (its next-pointer is
the buffer length ``W``): the walk stops, the RandomState rewinds to the
exact number of words actually consumed, and the next buffer re-parses
the boundary record from scratch. The scalar generator can always be
resynchronised — ``rewind_to`` restores it to any record boundary of the
last batch (used when a simulated exception aborts a batch mid-way), and
a completed batch leaves it positioned exactly where scalar replay of the
same records would have.

Property tests (``tests/test_batch_equivalence.py``) assert stream
equality against the scalar generator across every workload profile.
"""

from __future__ import annotations

import random

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

from repro.common.config import CACHELINE_BYTES
from repro.cpu.trace import TraceGenerator

HAVE_NUMPY = _np is not None

#: 1 / 2**53, the normalisation constant of CPython's random().
_INV_2_53 = 1.0 / 9007199254740992.0

#: Safety factor over the *expected* words per record (see
#: ``_expected_words_per_record``). The parse runs one vector op chain
#: over the whole buffer, so oversizing it costs linearly; undersizing
#: just means a second (smaller) buffer finishes the batch.
_BUFFER_SLACK = 1.2


def _next_true_index(ok, arange, sentinel):
    """``out[i]`` = smallest ``t >= i`` with ``ok[t]`` (``len(ok)`` if none)."""
    idx = _np.where(ok, arange[: len(ok)], sentinel)
    return _np.minimum.accumulate(idx[::-1])[::-1]

# Positions, draw values and instruction counts all fit comfortably in
# int32 (buffers are ~100k words, draw values < 2**26); the narrower
# dtype halves the parse's memory traffic. Only the final address
# computation widens to int64 (region bases are ~2**46).


def _expected_words_per_record(gen: TraceGenerator) -> float:
    """Mean MT19937 words one ``next_record`` consumes for this profile."""
    hot_rejections = (1 << gen._hot_k) / gen._hot_lines
    cold_rejections = (1 << gen._cold_k) / gen._cold_lines
    cold = gen._cold_fraction
    expected = 4.0  # write? + cold? (two random() calls, two words each)
    expected += (1.0 - cold) * hot_rejections
    expected += cold * (2.0 + gen._random_fraction * cold_rejections)
    if gen._gap > 1:
        expected += 4.0 / 3.0  # getrandbits(2) rejection below 3
    return expected


class VectorTraceReplayer:
    """Batch-produces the records of a wrapped :class:`TraceGenerator`.

    The wrapped generator remains the source of truth: its RNG state and
    cold-region cursor are resynchronised after every batch (and on
    :meth:`rewind_to`), so scalar and vectorized consumption can be
    interleaved freely — e.g. warmup via ``next_record`` followed by a
    batched timed window.
    """

    def __init__(self, generator: TraceGenerator):
        if not HAVE_NUMPY:
            raise RuntimeError("VectorTraceReplayer requires numpy")
        self.generator = generator
        version, internal, _gauss = generator._rng.getstate()
        if version != 3:
            raise RuntimeError("unsupported random.Random state version")
        self._rs = _np.random.RandomState()
        self._rs.set_state(
            ("MT19937", _np.array(internal[:624], dtype=_np.uint32), internal[624])
        )
        # Rewind metadata for the most recent batch: per parsed buffer, a
        # (first record index, words consumed before it, cursor before it,
        # word starts, seq-step mask) tuple. Kept as references to the
        # walk's own outputs — materialised only if rewind_to is called.
        self._batch_base_state = None
        self._batch_size = 0
        self._segments: list = []
        self._words_per_record = _expected_words_per_record(generator)
        self._arange = _np.arange(0, dtype=_np.int32)  # grown on demand

    def _arange_for(self, size: int):
        if len(self._arange) < size:
            self._arange = _np.arange(size, dtype=_np.int32)
        return self._arange

    # -- batch production --------------------------------------------------

    def next_batch(self, n: int):
        """Produce the next ``n`` records as parallel lists.

        Returns ``(instructions, addresses, is_writes)`` — plain Python
        lists of length ``n`` — and advances the wrapped generator's RNG
        and cursor exactly as ``n`` ``next_record()`` calls would have.
        """
        gen = self.generator
        self._batch_base_state = self._rs.get_state()
        self._batch_size = n
        self._segments = []

        out_instr: list = []
        out_addr: list = []
        out_write: list = []
        cursor = gen._cold_cursor
        words_before = 0
        multiplier = self._words_per_record * _BUFFER_SLACK
        while len(out_instr) < n:
            need = n - len(out_instr)
            width = int(need * multiplier) + 96
            consumed, emitted, cursor = self._parse_buffer(
                width, need, cursor, words_before,
                out_instr, out_addr, out_write,
            )
            if emitted == 0:
                # Pathological rejection run longer than the whole buffer:
                # nothing consumed (state was rewound to the start), so
                # retry with a wider buffer.
                multiplier *= 2
                continue
            words_before += consumed
        # Leave the scalar generator exactly where scalar replay would be.
        self._sync_generator()
        gen._cold_cursor = cursor
        return out_instr, out_addr, out_write

    def _parse_buffer(self, width, need, cursor0, words_before,
                      out_instr, out_addr, out_write):
        """Parse one word buffer; emit up to ``need`` complete records."""
        gen = self.generator
        np = _np
        state_before = self._rs.get_state()
        w = self._rs.randint(0, 2 ** 32, size=width, dtype=np.uint32)
        W = width

        # random() at word i (consumes words i, i+1), exact in float64.
        r = (
            np.float64(67108864.0) * (w[:-1] >> np.uint32(5)).astype(np.float64)
            + (w[1:] >> np.uint32(6))
        ) * _INV_2_53
        write_at = r < gen._write_fraction
        cold_at = r < gen._cold_fraction
        rand_at = r < gen._random_fraction

        # getrandbits(k) at word i, and "next acceptable rejection sample
        # at or after i" scans. The scan results are padded with sentinel
        # entries (value W, meaning "not found inside this buffer") and
        # the value arrays with one dummy slot, so every gather below
        # indexes in-bounds without clamping.
        arange = self._arange_for(W + 8)
        sentinel = np.int32(W)
        pos_pad = np.full(8, sentinel, dtype=np.int32)
        value_pad = np.zeros(1, dtype=np.int32)
        hotval = (w >> np.uint32(32 - gen._hot_k)).astype(np.int32)
        coldval = (w >> np.uint32(32 - gen._cold_k)).astype(np.int32)
        next_hot = np.concatenate(
            (_next_true_index(hotval < gen._hot_lines, arange, sentinel), pos_pad)
        )
        next_cold = np.concatenate(
            (_next_true_index(coldval < gen._cold_lines, arange, sentinel), pos_pad)
        )
        hotval_ext = np.concatenate((hotval, value_pad))
        coldval_ext = np.concatenate((coldval, value_pad))
        gap = gen._gap
        if gap > 1:
            jitval = (w >> np.uint32(30)).astype(np.int32)
            next_jit = np.concatenate(
                (_next_true_index(jitval < 3, arange, sentinel), pos_pad)
            )
            jitval_ext = np.concatenate((jitval, value_pad))

        # Speculative parse at every offset s: which draws would a record
        # starting at word s make, and where would the next record start?
        s = arange[:W]
        coldb = np.zeros(W, dtype=bool)
        coldb[: W - 3] = cold_at[2 : W - 1]
        randb = np.zeros(W, dtype=bool)
        randb[: W - 5] = rand_at[4 : W - 1]

        hot_pos = next_hot[4 : W + 4]
        cold_pos = next_cold[6 : W + 6]
        hot_idx = hotval_ext[hot_pos]  # hot_pos <= W: pad slot when unfound
        cold_idx = coldval_ext[cold_pos]

        kind = np.where(~coldb, 0, np.where(randb, 1, 2)).astype(np.int8)
        idx_val = np.where(coldb, cold_idx, hot_idx)
        after = np.where(
            ~coldb, hot_pos + 1, np.where(randb, cold_pos + 1, s + 6)
        )
        invalid = (s > W - 4) | (coldb & (s > W - 6))
        invalid |= ~coldb & (hot_pos >= sentinel)
        invalid |= coldb & randb & (cold_pos >= sentinel)
        if gap > 1:
            jit_pos = next_jit[after]  # after <= W + 1 < len(next_jit)
            invalid |= jit_pos >= sentinel
            instr = np.maximum(1, gap + jitval_ext[jit_pos] - 1)
            nxt = jit_pos + 1
        else:
            instr = np.ones(W, dtype=np.int32)
            nxt = after
        # Trap both invalid parses and exact-boundary completions (nxt ==
        # W): the latter are valid but indistinguishable from the trap, so
        # they are conservatively re-parsed in the next buffer.
        nxt_trap = np.where(invalid, sentinel, nxt)

        # Walk the true record chain (scalar: each step depends on the
        # previous one; everything per-record below stays vectorized).
        nxt_list = nxt_trap.tolist()
        starts = []
        append = starts.append
        pos = 0
        remaining = need
        while remaining:
            nx = nxt_list[pos]
            if nx >= W:
                break
            append(pos)
            remaining -= 1
            pos = nx
        count = len(starts)
        if count:
            sel = np.array(starts, dtype=np.int32)
            kind_sel = kind[sel]
            seq_mask = kind_sel == 2
            seq_steps = np.cumsum(seq_mask)
            cold_lines = gen._cold_lines
            index_sel = np.where(
                seq_mask,
                (cursor0 + seq_steps - 1) % cold_lines,
                idx_val[sel],
            )
            base = np.where(
                kind_sel == 0,
                np.int64(gen.regions.hot_base),
                np.int64(gen.regions.cold_base),
            )
            addresses = (
                base + index_sel.astype(np.int64) * CACHELINE_BYTES
            ).tolist()
            out_instr.extend(instr[sel].tolist())
            out_addr.extend(addresses)
            out_write.extend(write_at[sel].tolist())
            self._segments.append(
                (len(out_instr) - count, words_before, cursor0, starts, seq_mask)
            )
            cursor0 = (cursor0 + int(seq_steps[-1])) % cold_lines
        consumed = pos
        # Rewind the word source to exactly ``consumed`` drawn words.
        self._rs.set_state(state_before)
        if consumed:
            self._rs.randint(0, 2 ** 32, size=consumed, dtype=np.uint32)
        return consumed, count, cursor0

    # -- scalar resynchronisation -----------------------------------------

    def _sync_generator(self) -> None:
        state = self._rs.get_state()
        self.generator._rng.setstate(
            (3, tuple(int(x) for x in state[1]) + (int(state[2]),), None)
        )

    def rewind_to(self, index: int) -> None:
        """Reposition the wrapped generator at record ``index`` of the
        last batch — as if only records ``0..index-1`` had been drawn.

        Used when batch execution aborts mid-way (a simulated fault
        escalates to an exception): the un-executed tail of the batch must
        be re-drawable by whoever handles the fault.
        """
        if self._batch_base_state is None:
            raise RuntimeError("no batch to rewind")
        if not 0 <= index <= self._batch_size:
            raise IndexError(f"record index {index} outside the last batch")
        if index == self._batch_size:
            return  # a completed batch already left the generator there
        for first, words_before, cursor_before, starts, seq_mask in self._segments:
            if first <= index < first + len(starts):
                local = index - first
                words = words_before + starts[local]
                self._rs.set_state(self._batch_base_state)
                if words:
                    self._rs.randint(0, 2 ** 32, size=words, dtype=_np.uint32)
                self._sync_generator()
                self.generator._cold_cursor = (
                    cursor_before + int(seq_mask[:local].sum())
                ) % self.generator._cold_lines
                return
        raise IndexError(f"record index {index} not found in batch segments")
