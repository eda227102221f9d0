"""Deterministic chaos at the service layer.

:mod:`repro.harness.chaos` proves the *fabric* absorbs worker kills and
cache corruption without changing bytes. This module lifts the same
discipline one layer up, to the overload machinery: seeded submission
floods, backend kills mid-campaign and greedy tenants, all derived from
the shared :func:`~repro.faults.inject.deterministic_fraction`
primitive so a scenario replays identically on every run.

The harness contract, enforced by ``tests/test_service.py`` and the
service bench: under any seeded scenario, every *accepted* submission
completes with results byte-identical to a quiet serial run of the same
jobs, and every *rejected* submission fails fast with a typed
:class:`~repro.common.errors.AdmissionRejected` — never a hang, never a
silent drop, never cross-tenant contamination.

Pieces:

* :class:`ServiceChaosPolicy` — per-submission verdicts (is this
  submission's backend execution killed? does the whole *service
  process* crash mid-sweep, and after how many cells?) from ``(seed,
  channel, submission key)``.
* :func:`flood_plan` — a deterministic interleaved submission order for
  N tenants × M sweeps each (plus an optional greedy tenant submitting
  extra), shuffled by seed, not by wall clock.
* :func:`killed_policy` — the :class:`ExecutionPolicy` a chaos-killed
  submission carries: kill-probability 1 with a zero retry budget, so
  the primary backend deterministically reports a transient
  infrastructure failure and the service's breaker/degradation path —
  not the fabric's internal retry — must save the run.
* :class:`CrashingCache` — the ``crash`` channel's trigger: a cache
  proxy that fires a crash callback (SIGKILL by default) after the
  seed-addressed Nth write-through, so the process dies *between*
  durable cell completions — the exact window the WAL + journal
  recovery path must survive.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.faults.inject import deterministic_fraction, parse_policy_spec
from repro.harness.chaos import ChaosPolicy
from repro.harness.parallel import ExecutionPolicy

KILL_CHANNEL = "service-kill"
ORDER_CHANNEL = "service-order"
CRASH_CHANNEL = "service-crash"
CRASH_POINT_CHANNEL = "service-crash-point"

# When a submission's cell count is unknown up front (experiment
# submissions size themselves), the crash point is drawn from this
# small fixed range instead: late enough that recovery has cached cells
# to adopt, early enough that work is genuinely left to recompute.
_FALLBACK_POINT_RANGE = (2, 5)


@dataclass(frozen=True)
class ServiceChaosPolicy:
    """Seeded per-submission fault verdicts for service scenarios."""

    seed: int = 0
    kill_backend: float = 0.0
    crash: float = 0.0

    def backend_killed(self, submission_key: str) -> bool:
        """Is this submission's primary-backend execution chaos-killed?"""
        if self.kill_backend <= 0.0:
            return False
        return (
            deterministic_fraction(self.seed, KILL_CHANNEL, submission_key)
            < self.kill_backend
        )

    def crash_point(
        self, submission_key: str, total_cells: Optional[int] = None
    ) -> Optional[int]:
        """After how many cache write-throughs does the service die?

        None when the ``crash`` channel does not fire for this
        submission. Otherwise a count in ``[1, total_cells]`` (or the
        fallback range when the cell count is unknown), derived from a
        second channel over the same seed so verdict and point are
        independent draws. Deterministic: the same submission key
        crashes at the same cell on every run, which is what makes the
        crash-restart byte-identity test repeatable.
        """
        if self.crash <= 0.0:
            return None
        verdict = deterministic_fraction(self.seed, CRASH_CHANNEL, submission_key)
        if verdict >= self.crash:
            return None
        fraction = deterministic_fraction(
            self.seed, CRASH_POINT_CHANNEL, submission_key
        )
        if total_cells is not None and total_cells > 0:
            return 1 + int(fraction * max(0, total_cells - 1))
        low, high = _FALLBACK_POINT_RANGE
        return low + int(fraction * (high - low + 1))

    @classmethod
    def from_spec(cls, spec: str) -> "ServiceChaosPolicy":
        """Parse ``seed=7,kill_backend=0.3,crash=1.0`` (the grammar of
        :func:`~repro.faults.inject.parse_policy_spec`)."""
        return parse_policy_spec(cls, spec, "service chaos")


def default_crash_fn() -> None:
    """Die the way a real crash does: SIGKILL, no cleanup, no atexit."""
    os.kill(os.getpid(), signal.SIGKILL)


class CrashingCache:
    """Cache proxy that crashes the process at the Nth write-through.

    Wraps a tenant's :class:`~repro.harness.parallel.ResultCache`;
    every attribute is delegated, but :meth:`put` counts completed
    write-throughs and fires ``crash_fn`` *after* the Nth entry lands
    on disk — i.e. after the cell is durably cached but before its
    ``job_done`` journal record is appended. That is the nastiest
    legal crash window (cached-but-unjournaled), and recovery must
    treat it as at worst one redundant cache probe, never a duplicated
    computation or a changed byte.

    Because each crashed attempt completes ``crash_point`` more cells
    than the last restart had cached, supervised restarts make strict
    progress and converge even at ``crash=1.0``.
    """

    def __init__(
        self,
        inner,
        crash_after: int,
        crash_fn: Callable[[], None] = default_crash_fn,
    ):
        self._inner = inner
        self._crash_after = max(1, crash_after)
        self._crash_fn = crash_fn
        self.puts = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def put(self, job, payload):
        result = self._inner.put(job, payload)
        self.puts += 1
        if self.puts >= self._crash_after:
            self._crash_fn()
        return result


@dataclass(frozen=True)
class FloodEntry:
    """One planned submission in a flood scenario."""

    tenant: str
    index: int
    killed: bool = False

    @property
    def key(self) -> str:
        return f"{self.tenant}:{self.index}"


def flood_plan(
    policy: ServiceChaosPolicy,
    tenants: Sequence[str],
    per_tenant: int,
    greedy_tenant: str = "",
    greedy_extra: int = 0,
) -> List[FloodEntry]:
    """A deterministic interleaved submission order for a flood.

    Each tenant contributes ``per_tenant`` submissions; ``greedy_tenant``
    (if set) contributes ``greedy_extra`` more — the overload source in
    fairness scenarios. Ordering is a seed-keyed shuffle (sort by the
    deterministic fraction of each entry's key), so the arrival pattern
    is adversarially interleaved yet identical on every run; each
    entry's ``killed`` verdict is pre-resolved from the same seed.
    """
    entries: List[FloodEntry] = []
    for tenant in tenants:
        for index in range(per_tenant):
            key = f"{tenant}:{index}"
            entries.append(
                FloodEntry(tenant, index, killed=policy.backend_killed(key))
            )
    for index in range(per_tenant, per_tenant + greedy_extra):
        key = f"{greedy_tenant}:{index}"
        entries.append(
            FloodEntry(greedy_tenant, index, killed=policy.backend_killed(key))
        )
    entries.sort(
        key=lambda e: (
            deterministic_fraction(policy.seed, ORDER_CHANNEL, e.key),
            e.key,
        )
    )
    return entries


def killed_policy(seed: int, timeout_s=None) -> ExecutionPolicy:
    """The policy a chaos-killed submission runs under.

    ``kill=1.0`` with ``retries=0`` means the first (and only) attempt
    on any carrier-based backend fails transiently and the retry budget
    is already spent — the fabric surfaces
    :class:`RetryBudgetExceededError` (cause: ``WorkerCrashError``)
    instead of recovering internally. Backoffs are zeroed: the failure
    is deterministic, waiting would only slow the test. The in-process
    backend has no carrier to kill, which is exactly why the service's
    degraded rerun succeeds and the accepted-work guarantee holds.
    """
    return ExecutionPolicy(
        timeout_s=timeout_s,
        retries=0,
        backoff_base_s=0.0,
        backoff_cap_s=0.0,
        chaos=ChaosPolicy(seed=seed, kill=1.0),
    )
