"""Append-only record log with per-record integrity.

One primitive behind every append-only log the harness keeps: the
sweep journal (:class:`repro.harness.parallel.SweepJournal`), the
service's write-ahead state log (:class:`repro.service.wal.StateLog`)
and the live progress tail over a journal
(:class:`repro.service.progress.JournalTail`). PT-Guard checks a MAC on
every PTE line before a walk trusts it; these logs apply the same rule
to their own records.

Format and failure discipline:

* **Records are JSONL with per-record integrity.** Each line is
  ``{"rec": <body>, "sha": <digest>}`` where ``sha`` is a truncated
  SHA-256 over the canonical JSON of the body. A flipped bit on disk is
  *detected*, never trusted.
* **Torn tails are expected, not fatal.** The writer emits the newline
  last, so a crash mid-append leaves at worst one unterminated line;
  :func:`replay_bytes` stops consuming there, and the replayed state is
  always a *monotone prefix* of what was logged (the property tests in
  ``tests/test_wal.py`` prove this for arbitrary truncation points). A
  live reader leaves the same line for its next poll.
* **Corrupt records are quarantined and skipped.** A newline-terminated
  line whose digest does not verify cannot be a torn write; it is
  copied to a sidecar (``service.wal`` -> ``service.quarantine``) for
  post-mortem and replay continues with the next record — the
  detect/quarantine/degrade discipline the result cache applies to its
  entries.
* **Disk faults degrade, never crash.** ENOSPC/EIO on append marks the
  log ``degraded`` (warn-once, counted); the owner keeps running
  memory-only instead of turning a full disk into an outage.
* **Logged before acknowledged.** Every append is flushed and fsynced
  before it returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

logger = logging.getLogger(__name__)

# Bumped when the record encoding changes incompatibly; replay ignores
# records from other schema versions rather than misreading them.
RECORD_SCHEMA_VERSION = 1

# Truncated SHA-256 hex digits per record. 16 hex chars = 64 bits:
# plenty to detect corruption (this is an integrity check against bit
# rot, not an adversarial MAC — the threat model is a dying disk).
_DIGEST_CHARS = 16


_HEAD = '{"rec":'
_SHA_KEY = ',"sha":"'
_TAIL_CHARS = len(_SHA_KEY) + _DIGEST_CHARS + len('"}')


def _frame(canonical: str) -> str:
    """``{"rec":<canonical body>,"sha":"<digest>"}`` — exactly the bytes
    ``json.dumps`` gives the envelope with sorted keys and compact
    separators, built without re-serializing the body."""
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f'{_HEAD}{canonical}{_SHA_KEY}{digest[:_DIGEST_CHARS]}"}}'


def encode_record(record: Mapping[str, Any]) -> str:
    """One log line (newline-terminated) for ``record``.

    The body rides next to a truncated SHA-256 of its canonical JSON;
    :func:`decode_record` refuses any line whose digest does not
    re-derive, which is what lets replay distinguish "corrupt" from
    "merely torn".
    """
    body = {"v": RECORD_SCHEMA_VERSION, **record}
    return _frame(json.dumps(body, sort_keys=True, separators=(",", ":"))) + "\n"


def decode_record(line: str) -> Optional[Dict[str, Any]]:
    """The record encoded in ``line``, or None if it does not verify.

    A line verifies when re-framing its body reproduces it exactly. None
    covers every way a line can be wrong — a broken envelope, a digest
    mismatch, unparsable JSON, a foreign schema version — because
    replay treats them all the same way: quarantine and skip.
    """
    canonical = line[len(_HEAD) : -_TAIL_CHARS]
    if line != _frame(canonical):
        return None
    try:
        body = json.loads(canonical)
    except ValueError:
        return None
    if not isinstance(body, dict) or body.get("v") != RECORD_SCHEMA_VERSION:
        return None
    del body["v"]
    return body


@dataclass
class ReplayResult:
    """What :func:`replay_bytes` recovered from a log image.

    ``consumed`` is the byte count up to the end of the last complete
    line; a live reader resumes from there on its next poll.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    torn: bool = False
    consumed: int = 0

    @property
    def clean(self) -> bool:
        return not self.quarantined and not self.torn


def replay_bytes(data: bytes) -> ReplayResult:
    """Replay a log image: verified records in order, damage accounted.

    Complete lines that verify are yielded in order; complete lines
    that do not verify are quarantined and *skipped* (replay
    continues); an unterminated final line is a torn tail — a crash, or
    an append still in flight — and is left unconsumed. Pure truncation
    therefore always yields an exact prefix of the appended records —
    the monotone-prefix invariant recovery and streaming are built on.
    """
    end = data.rfind(b"\n") + 1
    result = ReplayResult(torn=end < len(data), consumed=end)
    for raw in data[:end].split(b"\n"):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            line = stripped.decode("utf-8")
        except UnicodeDecodeError:
            result.quarantined.append(repr(stripped))
            continue
        record = decode_record(line)
        if record is None:
            result.quarantined.append(line)
        else:
            result.records.append(record)
    return result


def atomic_write(path: pathlib.Path, data: bytes, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` in one rename.

    The temp file is unique to this call (``mkstemp`` in the target
    directory), so concurrent writers of one path — threads or
    processes — never share it and the last rename wins with complete
    bytes. ``fsync`` makes the contents durable before the rename.
    Raises ``OSError``; the temp file never outlives a failure.
    """
    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class RecordLog:
    """Append-only, fsync-per-append, damage-tolerant record log.

    :meth:`append` never raises: a disk fault (ENOSPC, EIO, a path that
    cannot be created) flips the log to ``degraded`` with one warning
    and every later append becomes a counted no-op, so the owner keeps
    running memory-only.
    """

    #: Names the log in warnings.
    kind = "record log"

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self.degraded = False
        self.write_errors = 0
        self.records_written = 0
        self._handle = None
        self._warned = False

    @classmethod
    def load(cls, path: pathlib.Path) -> List[Dict[str, Any]]:
        """The verified records of the log at ``path`` (see :meth:`replay`)."""
        return cls(path).replay().records

    # -- writing -----------------------------------------------------------

    def _fail(self, exc: OSError, what: str) -> None:
        self.write_errors += 1
        if not self._warned:
            self._warned = True
            logger.warning(
                "%s %s: %s failed (%s: %s) -- degrading to memory-only; "
                "later records are counted in write_errors, not written",
                self.kind,
                self.path,
                what,
                type(exc).__name__,
                exc,
            )
        self.degraded = True
        self.close()

    def append(self, *records: Mapping[str, Any]) -> bool:
        """Log ``records`` in one write; True once it is fsynced.

        False means the log is (now) degraded; the caller's state
        transition still happens — durability, not liveness, is what
        was lost.
        """
        if self.degraded:
            self.write_errors += 1
            return False
        lines = "".join(encode_record(record) for record in records)
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(lines)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            self._fail(exc, "append")
            return False
        self.records_written += len(records)
        return True

    def close(self) -> None:
        if self._handle is not None:
            with contextlib.suppress(OSError):
                self._handle.close()
            self._handle = None

    # -- replay ------------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Recover the log from disk; quarantine damaged lines.

        A missing file is an empty (clean) replay. Corrupt lines are
        appended to the ``.quarantine`` sidecar best-effort so the evidence
        survives the skip, mirroring the result cache's quarantine
        directory.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return ReplayResult()
        except OSError as exc:
            self._fail(exc, "replay read")
            return ReplayResult()
        result = replay_bytes(data)
        if result.quarantined:
            logger.warning(
                "%s %s: %d corrupt record(s) quarantined and skipped "
                "during replay",
                self.kind,
                self.path,
                len(result.quarantined),
            )
            with contextlib.suppress(OSError):
                with open(
                    self.path.with_suffix(".quarantine"), "a", encoding="utf-8"
                ) as handle:
                    for line in result.quarantined:
                        handle.write(line + "\n")
        return result

    def compact(self, records: List[Mapping[str, Any]]) -> None:
        """Atomically rewrite the log as exactly ``records``.

        Bounds log growth across restarts. Durable (fsync) and atomic
        (:func:`atomic_write`); a failure degrades instead of raising,
        leaving the old log — which replays identically — in place.
        """
        self.close()
        data = "".join(encode_record(record) for record in records).encode("utf-8")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, data, fsync=True)
        except OSError as exc:
            self._fail(exc, "compact")

    def stats(self) -> Dict[str, int]:
        return {
            "records_written": self.records_written,
            "write_errors": self.write_errors,
        }
