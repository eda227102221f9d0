"""Overload-safe, multi-tenant campaign service over the experiment fabric.

Public surface:

* :class:`FabricService` / :class:`AsyncFabricService` — submit_sweep /
  status / results / cancel / health / ready over the pluggable
  executor backends, with typed admission control.
* :class:`ServiceConfig` — operator knobs (queue depth, per-tenant
  rates, breaker thresholds, primary backend, degraded-fallback mode).
* :func:`tenant_cache` / :func:`validate_tenant` — per-tenant
  namespacing of the content-addressed result cache.
* :class:`TokenBucket` / :class:`AdmissionQueue` /
  :class:`CircuitBreaker` — the admission primitives, clock-injectable
  for deterministic tests.
* :class:`JournalTail` — monotone streaming progress from sweep
  journals.
* :class:`ServiceChaosPolicy` / :func:`flood_plan` /
  :func:`killed_policy` / :class:`CrashingCache` — deterministic
  service-level chaos scenarios, including seed-addressed mid-sweep
  process crashes.
* :class:`StateLog` / :class:`ReplayResult` — the write-ahead state log
  behind ``--state-dir``: torn-tail-tolerant, integrity-checked,
  disk-fault-degrading crash recovery for accepted submissions.
* :class:`Supervisor` / :class:`SupervisorConfig` — the ``--supervise``
  watchdog: bounded-backoff restarts with crash-loop detection.
"""

from repro.common.recordlog import ReplayResult, replay_bytes
from repro.service.admission import AdmissionQueue, TokenBucket
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import (
    CrashingCache,
    FloodEntry,
    ServiceChaosPolicy,
    flood_plan,
    killed_policy,
)
from repro.service.core import (
    AsyncFabricService,
    FabricService,
    ReadyProbe,
    ServiceConfig,
    Submission,
)
from repro.service.progress import JournalTail
from repro.service.supervisor import Supervisor, SupervisorConfig
from repro.service.tenancy import (
    DEFAULT_TENANT,
    tenant_cache,
    tenant_cache_root,
    validate_tenant,
)
from repro.service.wal import StateLog

__all__ = [
    "AdmissionQueue",
    "AsyncFabricService",
    "CircuitBreaker",
    "CrashingCache",
    "DEFAULT_TENANT",
    "FabricService",
    "FloodEntry",
    "JournalTail",
    "ReadyProbe",
    "ReplayResult",
    "ServiceChaosPolicy",
    "ServiceConfig",
    "StateLog",
    "Submission",
    "Supervisor",
    "SupervisorConfig",
    "TokenBucket",
    "flood_plan",
    "killed_policy",
    "replay_bytes",
    "tenant_cache",
    "tenant_cache_root",
    "validate_tenant",
]
