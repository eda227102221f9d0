"""Streaming progress from sweep journals.

The fabric already writes an append-only journal per sweep
(:class:`repro.harness.parallel.SweepJournal`): ``sweep_start``, one
``job_done`` per completed cell, ``sweep_complete``. The service
streams *live* progress to clients by tailing that file — no second
progress channel to keep consistent, no writer-side changes, and the
stream inherits the journal's crash story.

:class:`JournalTail` is an incremental reader with one invariant: the
sequence of records it has yielded is always a *monotonically growing
prefix* of the journal's verified records. It remembers a byte offset
and, on each :meth:`poll`, replays the bytes past it with the same
:func:`~repro.common.recordlog.replay_bytes` that journal replay uses.
An unterminated last line — an append still in flight — is left
unconsumed for the next poll; a newline-terminated line that fails
verification cannot be a torn write (the writer emits the newline
last), so it is skipped and counted in ``quarantined``. Records are
therefore never yielded twice, never skipped, and never yielded torn,
even while the writer is appending concurrently.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional

from repro.common.recordlog import replay_bytes


class JournalTail:
    """Incremental reader over one sweep journal file."""

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self.offset = 0
        self.records: List[Dict[str, Any]] = []
        self.quarantined = 0

    def poll(self) -> List[Dict[str, Any]]:
        """Return records appended since the last poll (possibly empty).

        A journal that does not exist yet (sweep not started) is simply
        an empty poll.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                data = handle.read()
        except OSError:
            return []
        result = replay_bytes(data)
        self.offset += result.consumed
        self.quarantined += len(result.quarantined)
        self.records.extend(result.records)
        return result.records

    # -- cumulative views over everything polled so far -------------------

    def completed(self) -> int:
        """Cells finished so far (``job_done`` records seen)."""
        return sum(1 for r in self.records if r.get("event") == "job_done")

    def total(self) -> Optional[int]:
        """Total cells in the sweep, once ``sweep_start`` has been seen."""
        for record in self.records:
            if record.get("event") == "sweep_start":
                return record.get("jobs")
        return None

    def done(self) -> bool:
        """True once ``sweep_complete`` has been seen."""
        return any(r.get("event") == "sweep_complete" for r in self.records)

    def progress(self) -> Dict[str, Any]:
        """One-line progress summary (polls first)."""
        self.poll()
        return {
            "completed": self.completed(),
            "total": self.total(),
            "done": self.done(),
        }
