"""Deterministic chaos injection for the parallel experiment fabric.

The resilience layer in :mod:`repro.harness.parallel` claims that worker
kills, hung jobs and on-disk cache corruption cost recomputation, never
correctness. This module is how tests (and the equivalence matrix's
resumed points) *prove* that end-to-end: a :class:`ChaosPolicy`
injects exactly those faults, and the sweep's report must still come
out byte-identical to a fault-free run.

Every injection decision is a pure function of ``(seed, channel, job
key)``: a SHA-256 over those strings maps to a fraction in [0, 1) that
is compared against the channel's probability. No RNG state, no
ordering dependence — the same sweep with the same seed injects the
same faults regardless of worker count, scheduling or retries, which is
what lets tests assert exact, reproducible failure counts. The decision
function itself lives in :mod:`repro.faults.inject`
(:func:`~repro.faults.inject.deterministic_fraction`), shared with the
simulator-level fault injectors so harness and DRAM corruption draw from
one audited primitive; the digest format is frozen by the byte-identity
guarantees in ``tests/test_chaos.py``.

Channels:

* ``kill`` — the pool worker calls ``os._exit(137)`` before running
  the job (first attempt only): a real SIGKILL/OOM-style carrier death
  on the ``process-pool`` backend. The ``inprocess`` backend has no
  carrier to kill, so the channel does not apply there.
* ``delay`` — the pool worker sleeps past the job's wall-clock deadline
  (first attempt only), forcing the supervisor's hung-worker kill and
  the timeout/retry path. Skipped when no deadline is set, and, like
  ``kill``, not applied in-process.
* ``corrupt`` — after the fresh result is written through to the cache,
  the entry file is garbled in place, forcing the read-side digest
  check to quarantine and recompute on the next lookup.

``abort_after`` (a count, not a channel) makes the supervisor raise
``KeyboardInterrupt`` after N completed cells — a deterministic stand-in
for an operator interrupt, used to test ``--resume``.

Activation: pass a policy programmatically, or use ``--chaos`` /
``REPRO_CHAOS`` with a spec like ``seed=3,kill=0.2,delay=0.1,corrupt=0.1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.inject import (
    deterministic_fraction,
    garble_payload,
    parse_policy_spec,
)


@dataclass(frozen=True)
class ChaosPolicy:
    """Seed-driven fault-injection probabilities per channel."""

    seed: int = 0
    kill: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    abort_after: Optional[int] = None

    def decide(self, key: str, channel: str) -> bool:
        """Deterministic verdict for one (job key, channel) pair.

        Delegates to the shared decision primitive — byte-identical to
        the historical inline formula (asserted by the chaos tests).
        """
        probability = getattr(self, channel)
        if probability <= 0.0:
            return False
        return deterministic_fraction(self.seed, channel, key) < probability

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPolicy":
        """Parse ``seed=3,kill=0.2,delay=0.1,corrupt=0.1,abort_after=5``
        (grammar: :func:`~repro.faults.inject.parse_policy_spec`)."""
        return parse_policy_spec(cls, spec, "chaos")


def corrupt_cache_entry(cache, job) -> None:
    """Garble ``job``'s on-disk cache entry in place.

    The file stays present and non-empty (a deleted entry would be a
    plain miss — too easy), so the read path must *detect* the damage
    via its digest check, quarantine the entry and recompute.
    """
    path = cache._path(job.key())
    try:
        data = path.read_bytes()
    except OSError:
        return
    path.write_bytes(garble_payload(data))
