"""The shared record log: encode/decode, replay, damage, both writers.

Two layers:

* Unit tests pin the failure discipline of :mod:`repro.common.recordlog`
  — torn tails dropped, corrupt records quarantined *and skipped*, disk
  faults degrading instead of raising, compaction atomicity. The writer
  tests run once per log that is built on it: the service's
  :class:`StateLog` and the fabric's :class:`SweepJournal`.
* Derandomized hypothesis properties (same idiom as
  ``test_property_roundtrips.py``) prove the two invariants recovery is
  built on: encode→decode is the identity for any JSON-able record, and
  replay of an arbitrarily truncated log is always a *monotone prefix*
  of the appended records — truncation can lose the tail, never
  reorder, corrupt or invent state.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.recordlog import (
    ReplayResult,
    decode_record,
    encode_record,
    replay_bytes,
)
from repro.harness.parallel import SweepJournal
from repro.service.wal import StateLog

DERANDOMIZED = settings(derandomize=True, max_examples=200, deadline=None)

# JSON-able record bodies of the shape the service actually logs:
# string keys, scalar/list/dict values. Keys exclude "v" (the schema
# tag the envelope adds and strips).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=20),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.dictionaries(st.text(max_size=8), scalars, max_size=4),
)
records = st.dictionaries(
    st.text(min_size=1, max_size=12).filter(lambda k: k != "v"),
    values,
    max_size=6,
)


class TestEncodeDecode:
    def test_roundtrip(self):
        record = {"type": "accept", "ticket": "s-0001", "jobs": [{"x": 1}]}
        assert decode_record(encode_record(record).strip()) == record

    def test_lines_are_newline_terminated_json(self):
        line = encode_record({"type": "dispatch", "ticket": "s-0002"})
        assert line.endswith("\n")
        envelope = json.loads(line)
        assert set(envelope) == {"rec", "sha"}

    def test_log_written_before_the_shared_record_log_still_replays(self):
        # Two lines exactly as the service WAL wrote them before the
        # sweep journal and the WAL shared one record log: the byte
        # format is a compatibility contract for state dirs on disk.
        legacy = (
            b'{"rec":{"tenant":"alice","ticket":"s-0001","type":"accept","v":1},'
            b'"sha":"7148d7204093e670"}\n'
            b'{"rec":{"ok":true,"ticket":"s-0001","type":"finish","v":1},'
            b'"sha":"9dfd8ec7f14c62f6"}\n'
        )
        records = [
            {"tenant": "alice", "ticket": "s-0001", "type": "accept"},
            {"ok": True, "ticket": "s-0001", "type": "finish"},
        ]
        result = replay_bytes(legacy)
        assert result.records == records and result.clean
        assert "".join(encode_record(r) for r in records).encode() == legacy

    @pytest.mark.parametrize(
        "bad",
        [
            "not json at all",
            "{}",
            '{"rec": {"v": 1, "type": "x"}, "sha": "0000000000000000"}',
            '{"rec": "not a dict", "sha": "abc"}',
            '{"rec": {"v": 999, "type": "x"}, "sha": "deadbeef"}',
            "[1, 2, 3]",
        ],
    )
    def test_damaged_or_foreign_lines_decode_to_none(self, bad):
        assert decode_record(bad) is None

    def test_single_flipped_character_is_detected(self):
        line = encode_record({"type": "finish", "ticket": "s-0003"}).strip()
        flipped = line.replace("finish", "finisH")
        assert decode_record(flipped) is None


class TestReplay:
    def _log(self, *recs):
        return "".join(encode_record(r) for r in recs).encode("utf-8")

    def test_clean_log_replays_in_order(self):
        recs = [{"type": "accept", "n": i} for i in range(5)]
        result = replay_bytes(self._log(*recs))
        assert result.records == recs
        assert result.clean

    def test_torn_tail_is_dropped_not_fatal(self):
        data = self._log({"n": 1}, {"n": 2}) + b'{"rec": {"v": 1, "n'
        result = replay_bytes(data)
        assert result.records == [{"n": 1}, {"n": 2}]
        assert result.torn and not result.quarantined

    def test_corrupt_middle_record_is_quarantined_and_skipped(self):
        lines = [
            encode_record({"n": 1}),
            encode_record({"n": 2}).replace('"n":2', '"n":3'),
            encode_record({"n": 4}),
        ]
        result = replay_bytes("".join(lines).encode("utf-8"))
        # Replay continues PAST the damage: record 4 survives.
        assert result.records == [{"n": 1}, {"n": 4}]
        assert len(result.quarantined) == 1 and not result.torn

    def test_blank_lines_are_ignored(self):
        data = b"\n" + self._log({"n": 1}) + b"\n\n" + self._log({"n": 2})
        assert replay_bytes(data).records == [{"n": 1}, {"n": 2}]

    def test_missing_file_is_a_clean_empty_replay(self, tmp_path):
        log = StateLog(tmp_path / "absent.wal")
        result = log.replay()
        assert result.records == [] and result.clean
        assert not log.degraded

    def test_quarantined_lines_land_in_sidecar(self, tmp_path):
        path = tmp_path / "service.wal"
        good = encode_record({"n": 1})
        bad = good.replace('"n":1', '"n":9')
        path.write_text(good + bad + encode_record({"n": 2}))
        log = StateLog(path)
        result = log.replay()
        assert result.records == [{"n": 1}, {"n": 2}]
        sidecar = path.with_suffix(".quarantine")
        assert sidecar.exists() and '"n":9' in sidecar.read_text()


class TestStateLogWrites:
    log_class = StateLog

    def test_append_then_replay(self, tmp_path):
        log = self.log_class(tmp_path / "service.wal")
        assert log.append({"type": "accept", "ticket": "s-0001"})
        assert log.append({"type": "finish", "ticket": "s-0001"})
        log.close()
        replayed = self.log_class(tmp_path / "service.wal").replay()
        assert [r["type"] for r in replayed.records] == ["accept", "finish"]
        assert log.records_written == 2 and log.write_errors == 0

    def test_disk_fault_degrades_and_warns_once(self, tmp_path, caplog):
        # The WAL path's parent is a *file*, so every open fails: the
        # cheapest deterministic stand-in for ENOSPC/EIO.
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        log = self.log_class(blocker / "service.wal")
        with caplog.at_level("WARNING"):
            assert not log.append({"type": "accept"})
            assert not log.append({"type": "accept"})
        assert log.degraded
        assert log.write_errors == 2 and log.records_written == 0
        warnings = [r for r in caplog.records if "degrading" in r.message]
        assert len(warnings) == 1

    def test_degraded_log_never_raises(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("x")
        log = self.log_class(blocker / "service.wal")
        log.append({"a": 1})
        log.close()
        log.compact([{"a": 1}])
        assert log.replay().records == []

    def test_compact_rewrites_atomically(self, tmp_path):
        path = tmp_path / "service.wal"
        log = self.log_class(path)
        for n in range(10):
            log.append({"type": "accept", "n": n})
        log.close()
        log.compact([{"type": "accept", "n": 9}])
        result = replay_bytes(path.read_bytes())
        assert result.records == [{"type": "accept", "n": 9}]
        assert result.clean
        assert not list(tmp_path.glob(".*tmp"))

    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        # Logged before acknowledged: each append reaches the disk
        # before it returns, one fsync per record.
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        log = self.log_class(tmp_path / "service.wal")
        for n in range(10):
            assert log.append({"n": n})
            assert len(synced) == n + 1
        log.close()
        assert len(log.replay().records) == 10


class TestSweepJournalWrites(TestStateLogWrites):
    """The same writer contract, for the fabric's sweep journal."""

    log_class = SweepJournal


class TestProperties:
    @DERANDOMIZED
    @given(record=records)
    def test_encode_decode_is_identity(self, record):
        assert decode_record(encode_record(record).strip()) == record

    @DERANDOMIZED
    @given(
        recs=st.lists(records, min_size=0, max_size=8),
        cut=st.integers(min_value=0, max_value=10_000),
    )
    def test_replay_of_any_truncation_is_a_monotone_prefix(self, recs, cut):
        data = "".join(encode_record(r) for r in recs).encode("utf-8")
        truncated = data[: min(cut, len(data))]
        result = replay_bytes(truncated)
        # Pure truncation never corrupts a terminated line, so nothing
        # may be quarantined; the replayed state is exactly the first k
        # records for some k — never reordered, never invented.
        assert not result.quarantined
        assert result.records == recs[: len(result.records)]
        if truncated == data:
            assert result.records == recs and not result.torn

    @DERANDOMIZED
    @given(
        recs=st.lists(records, min_size=1, max_size=6),
        flip=st.integers(min_value=0, max_value=10_000),
    )
    def test_single_byte_flip_never_invents_a_record(self, recs, flip):
        data = bytearray("".join(encode_record(r) for r in recs).encode("utf-8"))
        index = flip % len(data)
        original = data[index]
        data[index] = (original + 1) % 256
        result = replay_bytes(bytes(data))
        # Every replayed record must be one the writer actually logged
        # (in order); the flip may cost records, never fabricate them.
        iterator = iter(recs)
        for replayed in result.records:
            for candidate in iterator:
                if candidate == replayed:
                    break
            else:
                pytest.fail(f"replay invented record {replayed!r}")


def test_replay_result_clean_flag():
    assert ReplayResult().clean
    assert not ReplayResult(torn=True).clean
    assert not ReplayResult(quarantined=["x"]).clean
