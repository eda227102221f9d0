"""Write-ahead state log for the durable fabric service.

The fabric already survives the death of a *sweep*: completed cells are
written through to the content-addressed cache and journaled as they
finish, so ``--resume`` recomputes only the missing cells. What dies
with the process is the layer above — which submissions were accepted,
which tickets were issued, which tenants own them and how far each got.
:class:`StateLog` makes that state as crash-tolerant as the cells:
every service-visible transition (accept, dispatch, shed, cancel,
completion) is appended here *before* it is acknowledged, so a
restarted service replays the log, re-issues the same tickets and
re-adopts in-flight sweeps from their journals and cache entries.

Format and failure discipline — sha-framed records, torn tails
dropped, corrupt records quarantined and skipped, disk faults degrading
to memory-only, fsync before every append returns — are those of the
shared :mod:`repro.common.recordlog`; the service surfaces a degraded
log as ``durability: degraded`` in ``health()`` / ``ready()``.
"""

from __future__ import annotations

from repro.common.recordlog import RecordLog


class StateLog(RecordLog):
    """The service's ``service.wal`` under its ``--state-dir``."""

    kind = "state log"

    # Bound in this class body: the layer tracer patches its __dict__.
    append = RecordLog.append
    replay = RecordLog.replay
