"""Parallel experiment fabric: job fan-out, result cache, resilience.

The paper's evaluation is a grid of *independent* simulations (Fig 6 is
25 workloads x 3 configurations, Fig 7 is workloads x MAC latencies x 2
designs, Fig 9 is workloads x p_flip). Each cell builds its own
:class:`~repro.harness.system.System` from nothing but its parameters
and a seed, so cells can run in any order, in any process, and be
replayed from a cache — the results are a pure function of the job.

Pieces:

* :class:`SimJob` — a picklable description of one simulation cell:
  a ``kind`` (dispatch key into the job registry) plus a flat, JSON-able
  ``params`` mapping, and an optional human-readable ``label`` used in
  logs/journals (never in the cache key). Its :meth:`SimJob.key` is a
  stable SHA-256 over the canonical JSON of (schema version, kind,
  params); the seed is part of ``params``, chosen by the *emitter*,
  never by execution order — the determinism argument in one line.
* :func:`run_jobs` — executes a job list and returns results **in job
  order**. ``workers=1`` runs fully in-process (debuggable with pdb);
  ``workers>1`` runs a supervised worker pool with per-job wall-clock
  deadlines, hung-worker kill, retry with exponential backoff for
  *transient* failures (crashes/timeouts — see the
  :class:`~repro.common.errors.SimJobError` taxonomy), and graceful
  degradation to in-process serial execution when the pool itself keeps
  failing. A job that raises anywhere surfaces as a
  :class:`SimJobError` carrying the worker traceback — never a hang.
* :data:`BACKENDS` — *where* the missing cells execute, one name per
  runner: ``inprocess`` (serial in the calling process, also the
  degraded path) and ``process-pool`` (the supervised pool above).
  ``run_jobs`` picks one automatically from ``workers``, or callers
  name one explicitly (``backend=``, ``ExecutionPolicy.backend``,
  ``REPRO_BACKEND``). Reports are byte-identical across both; the
  conformance suite (``tests/test_backend_conformance.py``) enforces it.
  Execution policy and per-run stats are **context-local**
  (:mod:`contextvars`), not process-global: concurrent sweeps — two
  service tenants on different dispatcher threads, a nested sweep
  inside a job — each see their own :class:`ExecutionPolicy` and
  :func:`last_run_stats`, never each other's.
* :class:`ResultCache` — an on-disk, content-addressed store of encoded
  results keyed by :meth:`SimJob.key`. Any change to the config, the
  workload, the op counts, the seed or :data:`CACHE_SCHEMA_VERSION`
  changes the key, so stale entries are unreachable rather than
  invalidated. Every entry carries a SHA-256 digest of its payload that
  is verified on read; corrupt/truncated entries are quarantined to
  ``<root>/quarantine/`` and recomputed, never trusted and never fatal.
* Pricing — fig 6/7's ``workload_run`` cells are *priced* instead of
  simulated one by one: ``run_jobs`` runs one ``latency_basis`` job, a
  guarded simulation at zero MAC latency, per (workload, design) and
  derives every latency and the baseline from it. Priced cells are
  cached and journaled under their own keys, so nothing downstream can
  tell them from simulated ones.
* :class:`SweepJournal` — an append-only record log
  (:mod:`repro.common.recordlog`), one file per sweep under
  ``<cache root>/journals/``, recording each completed cell
  as it lands. Completed cells also hit the cache *immediately*
  (write-through), so a run interrupted by SIGINT/SIGKILL/OOM resumes
  with ``--resume`` recomputing only the missing cells — and, because
  every result round-trips the same encode/decode pair, emitting
  byte-identical report strings.

Deterministic fault injection for all of the above lives in
:mod:`repro.harness.chaos`.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import logging
import multiprocessing
import os
import pathlib
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.config import env_int
from repro.common.errors import (
    ConfigurationError,
    JobExecutionError,
    JobTimeoutError,
    RetryBudgetExceededError,
    SimJobError,
    UnknownJobKindError,
    WorkerCrashError,
)
from repro.common.recordlog import RecordLog, atomic_write

logger = logging.getLogger(__name__)

# Version 2: entries grew a payload digest (verified on read).
CACHE_SCHEMA_VERSION = 2

# Supervisor poll granularity: deadline checks and worker-death scans
# happen at least this often while waiting for results.
_POLL_INTERVAL_S = 0.05

# How often an idle pool worker checks that its supervisor is alive.
_ORPHAN_CHECK_S = 1.0

# Exit status a chaos-killed worker dies with (mirrors SIGKILL/OOM).
CHAOS_KILL_EXIT = 137


@dataclass(frozen=True)
class SimJob:
    """One simulation cell: ``kind`` dispatches, ``params`` parameterise.

    ``params`` must be JSON-able primitives (str/int/float/bool/None,
    lists, flat dicts) — that is what makes the job picklable for the
    pool *and* hashable for the cache with one canonical form.
    ``label`` is display-only (logs, journal, error messages): it is
    excluded from equality and from the cache key, so fig 6 and fig 7
    can label the same underlying cell differently and still share it.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = field(default=None, compare=False)

    def canonical(self) -> str:
        """Stable serialisation: the content that is addressed."""
        return json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "kind": self.kind,
                "params": self.params,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def key(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short identity for logs: label (or kind) plus a key prefix."""
        return f"{self.label or self.kind}[{self.key()[:8]}]"


# -- job registry -------------------------------------------------------------
#
# kind -> (run, encode, decode). ``run(params) -> result`` does the
# simulation; ``encode`` maps the result to a JSON-able payload and
# ``decode`` inverts it. run_jobs round-trips *every* result through
# encode/decode so cached and fresh results are indistinguishable.

JobSpec = Tuple[
    Callable[[Mapping[str, Any]], Any],
    Callable[[Any], Any],
    Callable[[Any], Any],
]

_REGISTRY: Dict[str, JobSpec] = {}


def register_job_kind(
    kind: str,
    run: Callable[[Mapping[str, Any]], Any],
    encode: Callable[[Any], Any] = lambda result: result,
    decode: Callable[[Any], Any] = lambda payload: payload,
) -> None:
    """Register a job kind. Built-in kinds are registered below; tests may
    add their own (visible to pool workers under the ``fork`` start
    method, which Linux provides)."""
    _REGISTRY[kind] = (run, encode, decode)


def _spec(kind: str) -> JobSpec:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise UnknownJobKindError(f"unknown job kind {kind!r}") from None


def execute_job(job: SimJob) -> Any:
    """Run one job and return its *encoded* payload."""
    run, encode, _ = _spec(job.kind)
    return encode(run(job.params))


def decode_result(job: SimJob, payload: Any) -> Any:
    return _spec(job.kind)[2](payload)


# -- built-in job kinds -------------------------------------------------------
#
# Imports stay inside the runners: harness.parallel is imported by the
# analysis/cpu modules that emit jobs, so the back-edges must be lazy.


#: PTGuardConfig fields that no longer exist. Job params recorded before
#: their removal (sweep journals, service WAL records) still carry them.
_RETIRED_GUARD_CONFIG_KEYS = frozenset({"mac_verify_cache_entries"})


def _guard_config_from(params: Optional[Mapping[str, Any]]):
    from repro.common.config import PTGuardConfig

    if params is None:
        return None
    return PTGuardConfig(
        **{k: v for k, v in params.items() if k not in _RETIRED_GUARD_CONFIG_KEYS}
    )


def guard_config_params(config) -> Optional[Dict[str, Any]]:
    """Canonical JSON-able form of a PTGuardConfig (or None baseline)."""
    return None if config is None else asdict(config)


def _run_workload_job(params: Mapping[str, Any]):
    from repro.analysis.perf_eval import run_workload
    from repro.cpu.workloads import get_workload

    return run_workload(
        get_workload(params["workload"]),
        _guard_config_from(params["config"]),
        mem_ops=params["mem_ops"],
        warmup_ops=params["warmup_ops"],
        seed=params["seed"],
        prefault=params.get("prefault", False),
        mac_algorithm=params.get("mac_algorithm", "pseudo"),
    )


def _encode_core_result(result) -> Dict[str, Any]:
    return asdict(result)


def _decode_core_result(payload):
    from repro.cpu.core import CoreResult

    return CoreResult(**payload)


def _run_latency_basis_job(params: Mapping[str, Any]):
    from repro.analysis.perf_eval import run_latency_basis
    from repro.cpu.workloads import get_workload

    return run_latency_basis(
        get_workload(params["workload"]),
        _guard_config_from(params["config"]),
        mem_ops=params["mem_ops"],
        warmup_ops=params["warmup_ops"],
        seed=params["seed"],
        prefault=params.get("prefault", False),
        mac_algorithm=params.get("mac_algorithm", "pseudo"),
    )


def _decode_latency_basis(payload):
    from repro.analysis.perf_eval import LatencyBasis

    return LatencyBasis(
        result=_decode_core_result(payload["result"]),
        mac_data_reads=payload["mac_data_reads"],
        mac_walk_reads=payload["mac_walk_reads"],
    )


def _run_figure9_cell(params: Mapping[str, Any]):
    from repro.analysis.correction_eval import evaluate_workload

    return evaluate_workload(
        params["workload"],
        params["p_flip"],
        max_lines=params["max_lines"],
        trials_per_line=params["trials_per_line"],
        seed=params["seed"],
        guard_config=_guard_config_from(params.get("config")),
    )


def _encode_correction_stats(stats) -> Dict[str, Any]:
    return asdict(stats)


def _decode_correction_stats(payload):
    from repro.analysis.correction_eval import CorrectionStats

    return CorrectionStats(**payload)


def _run_multicore_slowdown(params: Mapping[str, Any]) -> float:
    from repro.cpu.multicore import multicore_slowdown

    return multicore_slowdown(
        list(params["mix"]),
        mem_ops_per_core=params["mem_ops_per_core"],
        mac_latency=params["mac_latency"],
        seed=params["seed"],
    )


def _run_fault_campaign_cell(params: Mapping[str, Any]):
    from repro.faults.campaign import run_campaign_cell

    return run_campaign_cell(
        scenario=params["scenario"],
        trials=params["trials"],
        seed=params["seed"],
        workload=params["workload"],
        validate=params.get("validate", False),
        mac_algorithm=params.get("mac_algorithm", "blake2"),
        recovery=params.get("recovery"),
    )


def _encode_campaign_cell(cell) -> Dict[str, Any]:
    return asdict(cell)


def _decode_campaign_cell(payload):
    from repro.faults.campaign import CampaignCell

    return CampaignCell(**payload)


def _run_siege_cell(params: Mapping[str, Any]):
    from repro.analysis.siege_eval import run_siege_cell

    return run_siege_cell(
        intensity=params["intensity"],
        faults_per_window=params["faults_per_window"],
        windows=params["windows"],
        seed=params["seed"],
        workload=params["workload"],
        validate=params.get("validate", False),
        recovery=params.get("recovery"),
    )


def _encode_siege_cell(cell) -> Dict[str, Any]:
    return asdict(cell)


def _decode_siege_cell(payload):
    from repro.analysis.siege_eval import SiegeCell

    return SiegeCell(**payload)


def _run_adaptive_siege_cell(params: Mapping[str, Any]):
    from repro.analysis.siege_eval import run_adaptive_siege_cell

    return run_adaptive_siege_cell(
        strategy=params["strategy"],
        windows=params["windows"],
        seed=params["seed"],
        workload=params["workload"],
        validate=params.get("validate", False),
        recovery=params.get("recovery"),
    )


def _decode_adaptive_siege_cell(payload):
    from repro.analysis.siege_eval import AdaptiveSiegeCell

    return AdaptiveSiegeCell(**payload)


register_job_kind(
    "workload_run", _run_workload_job, _encode_core_result, _decode_core_result
)
register_job_kind(
    "latency_basis", _run_latency_basis_job, asdict, _decode_latency_basis
)
register_job_kind(
    "figure9_cell",
    _run_figure9_cell,
    _encode_correction_stats,
    _decode_correction_stats,
)
register_job_kind("multicore_slowdown", _run_multicore_slowdown)
register_job_kind(
    "fault_campaign_cell",
    _run_fault_campaign_cell,
    _encode_campaign_cell,
    _decode_campaign_cell,
)
register_job_kind(
    "siege_cell",
    _run_siege_cell,
    _encode_siege_cell,
    _decode_siege_cell,
)
register_job_kind(
    "adaptive_siege_cell",
    _run_adaptive_siege_cell,
    _encode_siege_cell,
    _decode_adaptive_siege_cell,
)


# -- pricing ------------------------------------------------------------------
#
# Fig 6/7's workload_run cells are not simulated one by one. run_jobs runs
# one latency_basis job per (workload, design) and prices each cell from
# it, then caches and journals the cell under its own key, exactly as if
# it had been simulated.


def _workload_basis(job: SimJob) -> Optional[SimJob]:
    """A guarded cell's basis: the same params at zero MAC latency. A
    baseline cell has none of its own."""
    config = job.params["config"]
    if config is None:
        return None
    params = dict(job.params)
    params["config"] = {**config, "mac_latency_cycles": 0}
    label = f"{job.label} basis" if job.label else None
    return SimJob(kind="latency_basis", params=params, label=label)


def _workload_run_identity(job: SimJob) -> str:
    """Everything but the machine design (workload, ops, seed, MAC
    backend): the cells of one run price alike from any of its bases."""
    params = {k: v for k, v in job.params.items() if k != "config"}
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _price_workload_run(job: SimJob, basis_payload: Any) -> Dict[str, Any]:
    """A cell's encoded result from its basis. The baseline is the basis
    itself: at zero latency the guard changes no timing."""
    config = job.params["config"]
    latency = 0 if config is None else config["mac_latency_cycles"]
    return asdict(_decode_latency_basis(basis_payload).price(latency))


# -- result cache -------------------------------------------------------------


def default_cache_dir() -> pathlib.Path:
    """``REPRO_CACHE_DIR`` or ``~/.cache/ptguard-repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "ptguard-repro"


def payload_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON of an encoded result payload."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed on-disk store of encoded job results.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding the job's canonical
    identity next to its payload and a SHA-256 ``digest`` of the payload
    (self-describing for debugging, self-verifying on read). Writes are
    atomic (tmp + rename), so concurrent workers and concurrent *runs*
    can share a cache directory safely — last writer wins with identical
    bytes.

    Read-side integrity: :meth:`get` re-derives the payload digest and
    treats any unparsable or digest-mismatching entry as *corrupt* —
    the file is moved to ``<root>/quarantine/`` (kept for post-mortem),
    ``corrupt`` is incremented and the lookup degrades to a miss, so a
    flipped bit on disk costs one recompute, never a crash and never a
    silently wrong report. Genuine I/O failures other than a missing
    file (e.g. ``EACCES``) are counted in ``io_errors`` and warned about
    once per cache instance instead of silently masquerading as misses.

    The quarantine directory is bounded: once it exceeds
    ``quarantine_limit`` entries (``REPRO_QUARANTINE_LIMIT``, default 64;
    0 or negative disables the cap) the oldest entries are evicted and a
    single summary line is logged, so repeated chaos runs keep recent
    evidence without growing the directory forever.
    """

    def __init__(
        self,
        root: Optional[pathlib.Path] = None,
        quarantine_limit: Optional[int] = None,
    ):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        if quarantine_limit is None:
            quarantine_limit = env_int("REPRO_QUARANTINE_LIMIT", 64)
        self.quarantine_limit = quarantine_limit
        self.quarantine_evictions = 0
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.io_errors = 0
        self.put_errors = 0
        self._io_warned = False
        self._put_warned = False

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / "quarantine"

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: pathlib.Path, job: SimJob, why: str) -> None:
        self.corrupt += 1
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            with contextlib.suppress(OSError):
                path.unlink()
        logger.warning(
            "quarantined corrupt cache entry for %s (%s) -> %s; recomputing",
            job.describe(),
            why,
            target,
        )
        self._enforce_quarantine_limit()

    def _enforce_quarantine_limit(self) -> None:
        """Evict oldest quarantined entries beyond the cap (one log line)."""
        limit = self.quarantine_limit
        if limit is None or limit <= 0:
            return
        try:
            entries = sorted(
                self.quarantine_dir.glob("*.json"),
                key=lambda p: (p.stat().st_mtime, p.name),
            )
        except OSError:
            return
        excess = len(entries) - limit
        if excess <= 0:
            return
        evicted = 0
        for path in entries[:excess]:
            with contextlib.suppress(OSError):
                path.unlink()
                evicted += 1
        if evicted:
            self.quarantine_evictions += evicted
            logger.warning(
                "quarantine at cap (%d entries): evicted %d oldest "
                "(REPRO_QUARANTINE_LIMIT raises the cap)",
                limit,
                evicted,
            )

    def get(self, job: SimJob) -> Optional[Any]:
        """The encoded payload for ``job``, or None on a miss.

        Corrupt entries (bad JSON, missing fields, digest mismatch) are
        quarantined and reported as misses; I/O errors other than
        "file not found" are counted and warned about, then reported as
        misses so a sweep degrades to recomputation instead of dying.
        """
        path = self._path(job.key())
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            self.io_errors += 1
            if not self._io_warned:
                self._io_warned = True
                logger.warning(
                    "cache read failed (%s: %s) -- treating as a miss; "
                    "further I/O errors are counted in io_errors without "
                    "repeating this warning",
                    type(exc).__name__,
                    exc,
                )
            self.misses += 1
            return None
        try:
            entry = json.loads(text)
            payload = entry["result"]
            digest = entry["digest"]
        except (ValueError, KeyError, TypeError):
            self._quarantine(path, job, "unparsable entry")
            self.misses += 1
            return None
        if payload_digest(payload) != digest:
            self._quarantine(path, job, "payload digest mismatch")
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _write_entry(self, job: SimJob, payload: Any) -> None:
        key = job.key()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(
            {
                "kind": job.kind,
                "params": job.params,
                "result": payload,
                "digest": payload_digest(payload),
            },
            sort_keys=True,
        )
        atomic_write(path, (body + "\n").encode("utf-8"))

    def put(self, job: SimJob, payload: Any) -> bool:
        """Write ``job``'s result through to disk; False on a disk fault.

        A failed write-through (ENOSPC, EIO, an unwritable root) costs
        durability, not correctness: the in-memory result is unaffected
        and the sweep keeps going, so a full disk degrades the cache to
        memory-only instead of killing the campaign. Failures are
        counted in ``put_errors`` and warned about once per cache
        instance — the durable service surfaces the count as
        ``durability: degraded`` in its health probes.
        """
        try:
            self._write_entry(job, payload)
        except OSError as exc:
            self.put_errors += 1
            if not self._put_warned:
                self._put_warned = True
                logger.warning(
                    "cache write failed (%s: %s) -- result kept in memory "
                    "only; further write failures are counted in put_errors "
                    "without repeating this warning",
                    type(exc).__name__,
                    exc,
                )
            return False
        return True

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "io_errors": self.io_errors,
            "put_errors": self.put_errors,
            "quarantine_evictions": self.quarantine_evictions,
        }


# -- sweep journal ------------------------------------------------------------


def sweep_id(jobs: Sequence[SimJob]) -> str:
    """Stable identity of a sweep: a hash over its ordered job keys."""
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(job.key().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


class SweepJournal(RecordLog):
    """Append-only manifest of one sweep's progress.

    One file per sweep (named by :func:`sweep_id`) next to the cache:
    ``<cache root>/journals/<sweep id>.jsonl``, in the shared
    :mod:`repro.common.recordlog` format — so after SIGKILL/OOM the
    journal is at worst missing one torn line, a corrupt record is
    quarantined and skipped rather than hiding every later one, and a
    disk fault degrades the journal instead of failing the sweep. The
    journal is bookkeeping, not a data store: payloads live in the cache
    (written through as cells finish), which is what makes ``--resume``
    recompute only the missing cells.
    """

    kind = "sweep journal"

    # Bound in this class body: the layer tracer patches its __dict__.
    append = RecordLog.append


# -- execution policy ---------------------------------------------------------


@dataclass
class ExecutionPolicy:
    """Resilience knobs for :func:`run_jobs`.

    ``timeout_s`` — per-job wall-clock deadline; a worker that exceeds
    it is killed and the job retried (None disables enforcement).
    ``retries`` — how many *additional* attempts a transiently-failing
    job (crash/timeout) gets before the run gives up with
    :class:`RetryBudgetExceededError`. Permanent failures (the job's own
    code raised) are never retried. Retries back off exponentially:
    ``backoff_base_s * 2**attempt`` capped at ``backoff_cap_s``.
    ``max_worker_restarts`` — pool-level failure budget (default
    ``3 * pool size``); beyond it the pool is abandoned and, when
    ``fallback_serial`` is set, the remaining jobs run in-process with a
    warning. ``chaos`` is a :class:`repro.harness.chaos.ChaosPolicy`
    for deterministic fault injection; ``resume`` marks an explicitly
    resumed run (journal bookkeeping only — cached cells are reused
    either way). ``backend`` names an executor backend (a
    :data:`BACKENDS` key) to force for every sweep under this policy;
    None keeps the automatic workers-based choice.
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    fallback_serial: bool = True
    max_worker_restarts: Optional[int] = None
    chaos: Optional[Any] = None
    resume: bool = False
    backend: Optional[str] = None

    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """Defaults, overridden by REPRO_TIMEOUT / REPRO_RETRIES /
        REPRO_CHAOS / REPRO_BACKEND where set (unparsable values warn
        and are ignored)."""
        policy = cls()
        backend = os.environ.get("REPRO_BACKEND")
        if backend:
            if backend in BACKENDS:
                policy.backend = backend
            else:
                logger.warning(
                    "ignoring unknown REPRO_BACKEND=%r (choose from %s)",
                    backend,
                    ", ".join(sorted(BACKENDS)),
                )
        timeout = os.environ.get("REPRO_TIMEOUT")
        if timeout:
            try:
                policy.timeout_s = max(0.001, float(timeout))
            except ValueError:
                logger.warning("ignoring unparsable REPRO_TIMEOUT=%r", timeout)
        policy.retries = max(0, env_int("REPRO_RETRIES", policy.retries))
        spec = os.environ.get("REPRO_CHAOS")
        if spec:
            from repro.harness.chaos import ChaosPolicy

            try:
                policy.chaos = ChaosPolicy.from_spec(spec)
            except ValueError as exc:
                logger.warning("ignoring unparsable REPRO_CHAOS=%r (%s)", spec, exc)
        return policy


# Context-local, not process-global: each thread (and each copied
# context, e.g. a service dispatcher) resolves its own default policy,
# so two concurrent sweeps in one process can never observe each other's
# timeouts, chaos injection or backend choice. A fresh context lazily
# re-reads the environment, which is exactly the old process-global
# cold-start behaviour.
_POLICY_VAR: contextvars.ContextVar[Optional[ExecutionPolicy]] = (
    contextvars.ContextVar("repro_execution_policy", default=None)
)


def get_execution_policy() -> ExecutionPolicy:
    policy = _POLICY_VAR.get()
    if policy is None:
        policy = ExecutionPolicy.from_env()
        _POLICY_VAR.set(policy)
    return policy


def set_execution_policy(policy: Optional[ExecutionPolicy]) -> None:
    """Install the context-local default policy (None re-reads the env).

    Context-local means per thread / per :mod:`contextvars` context:
    setting a policy on one service dispatcher thread leaves every other
    sweep's policy untouched.
    """
    _POLICY_VAR.set(policy)


@contextlib.contextmanager
def execution_policy(policy: ExecutionPolicy) -> Iterator[ExecutionPolicy]:
    """Temporarily install ``policy`` as this context's default."""
    token = _POLICY_VAR.set(policy)
    try:
        yield policy
    finally:
        _POLICY_VAR.reset(token)


@dataclass
class FabricStats:
    """Observability for the last :func:`run_jobs` call (per context)."""

    jobs: int = 0
    #: cells served from the result cache
    cached: int = 0
    #: simulations run: latency bases and cells that are not priced
    fresh: int = 0
    #: cells priced from a latency basis
    priced: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    quarantined: int = 0
    resumed_cells: int = 0
    degraded: bool = False

    def eventful(self) -> bool:
        """True when anything beyond plain execution happened."""
        return bool(
            self.priced
            or self.retries
            or self.timeouts
            or self.crashes
            or self.quarantined
            or self.degraded
            or self.resumed_cells
        )


_STATS_VAR: contextvars.ContextVar[Optional[FabricStats]] = (
    contextvars.ContextVar("repro_last_run_stats", default=None)
)


def last_run_stats() -> FabricStats:
    """Stats of the most recent run_jobs call in this context.

    Context-local like the execution policy: a sweep running on another
    thread (another service tenant, a nested sweep) never overwrites the
    stats this caller is about to read. A context that has not run any
    sweep yet reads all-zero stats.
    """
    stats = _STATS_VAR.get()
    return stats if stats is not None else FabricStats()


# -- execution ----------------------------------------------------------------


def default_workers() -> int:
    """``REPRO_WORKERS`` or the machine's CPU count."""
    return max(1, env_int("REPRO_WORKERS", os.cpu_count() or 1))


START_METHOD_PREFERENCE = ("fork", "forkserver", "spawn")


def _pool_context():
    """An explicitly chosen multiprocessing context.

    Preference chain fork -> forkserver -> spawn (first available), so
    behaviour never depends on the platform default: fork keeps
    test-registered job kinds and the configured sys.path visible in
    workers; forkserver/spawn re-import modules, which still covers the
    built-in kinds. ``REPRO_START_METHOD`` forces a specific method
    (useful for exercising the spawn path on Linux).
    """
    available = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_START_METHOD")
    if override:
        if override not in available:
            raise ConfigurationError(
                f"REPRO_START_METHOD={override!r} is not available on this "
                f"platform (available: {', '.join(available)})"
            )
        return multiprocessing.get_context(override)
    for method in START_METHOD_PREFERENCE:
        if method in available:
            return multiprocessing.get_context(method)
    raise ConfigurationError(
        "no usable multiprocessing start method "
        f"(available: {', '.join(available) or 'none'})"
    )


def _format_job_failure(
    kind: str, params: Dict[str, Any], label: Optional[str], trace: str
) -> str:
    who = f"{label} (kind={kind!r})" if label else f"kind={kind!r}"
    return f"job {who} params={params!r} raised in worker:\n{trace}"


def _worker_main(worker_id: int, task_queue, result_queue, chaos) -> None:
    """Pool worker loop: run assigned jobs, never raise across the pipe.
    A task is ``(index, job, attempt, timeout_s)``. Chaos injection
    (first attempt only): ``kill`` exits hard with no result (simulated
    OOM-kill); ``delay`` sleeps past the job's deadline so the
    supervisor's timeout path fires.

    A worker also exits once its supervisor dies (SIGKILL/OOM) and it is
    re-parented. A blocking ``get`` would wait forever instead: forked
    workers hold the task queue's write end, so it never reports EOF.
    """
    supervisor = os.getppid()
    while True:
        try:
            item = task_queue.get(timeout=_ORPHAN_CHECK_S)
        except queue_module.Empty:
            if os.getppid() != supervisor:
                return
            continue
        if item is None:
            return
        index, job, attempt, timeout_s = item
        if chaos is not None and attempt == 0:
            key = job.key()
            if chaos.decide(key, "kill"):
                os._exit(CHAOS_KILL_EXIT)
            if timeout_s is not None and chaos.decide(key, "delay"):
                time.sleep(2.0 * timeout_s + 0.5)
        try:
            ok, payload = True, execute_job(job)
        except Exception:
            failure = (job.kind, dict(job.params), job.label, traceback.format_exc())
            ok, payload = False, failure
        result_queue.put((worker_id, index, attempt, ok, payload))


class _WorkerHandle:
    """One supervised worker process plus its private task queue."""

    __slots__ = ("context", "worker_id", "task_queue", "process", "current")

    def __init__(self, context, worker_id: int, result_queue, chaos):
        self.context = context
        self.worker_id = worker_id
        self.task_queue = context.Queue()
        self.process = context.Process(
            target=_worker_main,
            args=(worker_id, self.task_queue, result_queue, chaos),
            daemon=True,
        )
        self.process.start()
        self.current: Optional[Tuple[int, SimJob, int, Optional[float]]] = None

    def assign(self, index: int, job: SimJob, attempt: int, timeout_s) -> None:
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        self.current = (index, job, attempt, deadline)
        self.task_queue.put((index, job, attempt, timeout_s))

    def _discard_queue(self) -> None:
        self.task_queue.close()
        self.task_queue.cancel_join_thread()

    def kill(self) -> None:
        """Hard stop: terminate, escalate to SIGKILL, reap."""
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        self._discard_queue()

    def stop(self) -> None:
        """Cooperative stop: sentinel, bounded join, then force."""
        try:
            self.task_queue.put(None)
        except Exception:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            self._discard_queue()


class _PoolBroken(Exception):
    """Internal: the pool burnt its restart budget; carry the jobs that
    still need running so the caller can fall back to serial."""

    def __init__(self, remaining: List[Tuple[int, SimJob]], reason: str):
        super().__init__(reason)
        self.remaining = remaining
        self.reason = reason


def _run_missing_serial(
    missing: Sequence[Tuple[int, SimJob]],
    pool_size: int,
    policy: ExecutionPolicy,
    stats: FabricStats,
    complete: Callable[[int, SimJob, Any, int], None],
) -> None:
    """In-process execution: permanent failures raise immediately.

    The ``workers=1`` debug path and the one every degradation bottoms
    out on. ``pool_size``, ``policy`` and ``stats`` are unused: there is
    no crash/timeout surface in-process (nothing to kill), so the
    kill/delay chaos channels do not apply here — cache corruption
    still does, via ``complete``'s write-through path.
    """
    for index, job in missing:
        try:
            payload = execute_job(job)
        except SimJobError:
            raise
        except Exception:
            raise JobExecutionError(
                _format_job_failure(
                    job.kind, dict(job.params), job.label, traceback.format_exc()
                )
            ) from None
        complete(index, job, payload, 0)


def _run_missing_pooled(
    missing: Sequence[Tuple[int, SimJob]],
    pool_size: int,
    policy: ExecutionPolicy,
    stats: FabricStats,
    complete: Callable[[int, SimJob, Any, int], None],
) -> None:
    """Supervised pool execution of ``missing`` (index, job) pairs.

    Real process isolation: the one backend that survives a genuinely
    hung or memory-exploding job. The supervisor hands one job at a time to each worker over a
    private queue and collects results from a shared queue, so it can
    enforce wall-clock deadlines (kill + respawn the worker, retry the
    job), detect dead workers (crash / OOM / chaos kill) and apply the
    transient-retry budget with exponential backoff.
    Raises the appropriate :class:`SimJobError` subtype on permanent
    failure and :class:`_PoolBroken` once worker restarts exceed their
    budget.
    """
    context = _pool_context()
    chaos = policy.chaos
    result_queue = context.Queue()

    job_of: Dict[int, SimJob] = dict(missing)
    pool_size = min(pool_size, len(job_of))
    max_restarts = (
        policy.max_worker_restarts
        if policy.max_worker_restarts is not None
        else 3 * pool_size
    )

    pending: deque = deque((index, 0) for index in job_of)
    delayed: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)
    outstanding = set(job_of)
    attempts_of: Dict[int, int] = {index: 0 for index in job_of}
    completions = 0
    restarts = 0
    workers: List[_WorkerHandle] = []

    def remaining_jobs() -> List[Tuple[int, SimJob]]:
        return sorted((index, job_of[index]) for index in outstanding)

    def handle_transient(index: int, attempt: int, failure: SimJobError) -> None:
        if attempt >= policy.retries:
            raise RetryBudgetExceededError(
                f"job {job_of[index].describe()} failed "
                f"{attempt + 1} attempt(s); retry budget ({policy.retries}) "
                "exhausted"
            ) from failure
        stats.retries += 1
        next_attempt = attempt + 1
        attempts_of[index] = next_attempt
        backoff = min(policy.backoff_cap_s, policy.backoff_base_s * (2**attempt))
        delayed.append((time.monotonic() + backoff, index, next_attempt))
        logger.warning(
            "%s -- retrying in %.2gs (attempt %d of %d)",
            failure,
            backoff,
            next_attempt + 1,
            policy.retries + 1,
        )

    try:
        try:
            for worker_id in range(pool_size):
                workers.append(_WorkerHandle(context, worker_id, result_queue, chaos))
        except OSError as exc:
            raise _PoolBroken(remaining_jobs(), f"could not start pool: {exc}")

        while outstanding:
            now = time.monotonic()
            if delayed:
                ready = [item for item in delayed if item[0] <= now]
                if ready:
                    delayed[:] = [item for item in delayed if item[0] > now]
                    for _, index, attempt in sorted(
                        ready, key=lambda item: item[1]
                    ):
                        pending.append((index, attempt))
            for worker in workers:
                if worker.current is None and pending:
                    index, attempt = pending.popleft()
                    worker.assign(index, job_of[index], attempt, policy.timeout_s)

            try:
                worker_id, index, attempt, ok, payload = result_queue.get(
                    timeout=_POLL_INTERVAL_S
                )
            except queue_module.Empty:
                pass
            else:
                worker = workers[worker_id]
                if (
                    worker.current is not None
                    and worker.current[0] == index
                    and worker.current[2] == attempt
                ):
                    worker.current = None
                if index in outstanding and attempt == attempts_of[index]:
                    if ok:
                        outstanding.discard(index)
                        completions += 1
                        complete(index, job_of[index], payload, attempt)
                        if (
                            chaos is not None
                            and chaos.abort_after is not None
                            and completions >= chaos.abort_after
                        ):
                            raise KeyboardInterrupt(
                                f"chaos: abort after {completions} completions"
                            )
                    else:
                        kind, params, label, trace = payload
                        raise JobExecutionError(
                            _format_job_failure(kind, params, label, trace)
                        )

            now = time.monotonic()
            for slot, worker in enumerate(workers):
                current = worker.current
                if current is not None:
                    index, job, attempt, deadline = current
                    if deadline is not None and now > deadline:
                        stats.timeouts += 1
                        worker.kill()
                        restarts += 1
                        workers[slot] = _WorkerHandle(
                            context, slot, result_queue, chaos
                        )
                        if index in outstanding and attempt == attempts_of[index]:
                            handle_transient(
                                index,
                                attempt,
                                JobTimeoutError(
                                    f"job {job.describe()} exceeded its "
                                    f"{policy.timeout_s:.3g}s "
                                    f"wall-clock deadline "
                                    f"(attempt {attempt + 1}); worker killed"
                                ),
                            )
                        continue
                if not worker.process.is_alive():
                    exitcode = worker.process.exitcode
                    worker.kill()
                    restarts += 1
                    workers[slot] = _WorkerHandle(context, slot, result_queue, chaos)
                    if current is not None:
                        index, job, attempt, _ = current
                        if index in outstanding and attempt == attempts_of[index]:
                            stats.crashes += 1
                            handle_transient(
                                index,
                                attempt,
                                WorkerCrashError(
                                    f"worker died (exit code {exitcode}) while "
                                    f"running job {job.describe()} "
                                    f"(attempt {attempt + 1})"
                                ),
                            )
            if restarts > max_restarts:
                raise _PoolBroken(
                    remaining_jobs(),
                    f"{restarts} worker restarts exceeded the budget of "
                    f"{max_restarts}",
                )
    finally:
        for worker in workers:
            with contextlib.suppress(Exception):
                worker.stop()
        result_queue.close()
        result_queue.cancel_join_thread()


# -- executor backends --------------------------------------------------------
#
# A backend only decides *where* the missing cells execute (the calling
# process or a supervised process pool), never what they mean: caching,
# journaling, resume and report assembly are all upstream of it, which
# is why reports are byte-identical across backends
# (tests/test_backend_conformance.py). Each runner calls
# ``complete(index, job, payload, attempt)`` exactly once per job and
# raises the SimJobError taxonomy; a pool whose infrastructure collapses
# raises _PoolBroken so run_jobs can degrade to the serial runner.

BACKENDS: Dict[str, Callable[..., None]] = {
    "inprocess": _run_missing_serial,
    "process-pool": _run_missing_pooled,
}


def run_jobs(
    jobs: Sequence[SimJob],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    policy: Optional[ExecutionPolicy] = None,
    backend: Optional[str] = None,
) -> List[Any]:
    """Execute ``jobs`` and return decoded results in job order.

    ``workers=None`` resolves through :func:`default_workers`;
    ``workers=1`` (or a single missing job) runs in-process. With a
    ``cache``, hits skip execution entirely and fresh results are stored
    back *as they finish* (write-through), next to an append-only
    :class:`SweepJournal` — which is what makes an interrupted sweep
    resumable with only the missing cells recomputed. ``policy``
    (default: the context-local :func:`get_execution_policy`) controls
    timeouts, the transient-retry budget, serial fallback and chaos
    injection. ``backend`` forces a specific executor by
    :data:`BACKENDS` name, overriding both ``policy.backend`` and the
    automatic workers-based choice; an unknown name raises
    :class:`ConfigurationError`. Missing ``workload_run`` cells are
    priced from their latency basis (:func:`_group_by_basis`): a cached
    basis prices without running, and a missing one runs in the same
    backend call as every other missing job. The returned objects are identical
    across every path — serial, pooled, retried, resumed, cached or
    priced — because all of them round-trip through the job kind's
    encode/decode pair.
    """
    resolved = default_workers() if workers is None else max(1, workers)
    active = policy if policy is not None else get_execution_policy()
    if backend is None:
        backend = active.backend
    if backend is not None and backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown executor backend {backend!r} "
            f"(choose from {', '.join(sorted(BACKENDS))})"
        )
    stats = FabricStats(jobs=len(jobs))
    _STATS_VAR.set(stats)

    journal: Optional[SweepJournal] = None
    start: Dict[str, Any] = {}
    resumable = 0
    if cache is not None and jobs:
        sid = sweep_id(jobs)
        journal = SweepJournal(cache.root / "journals" / f"{sid}.jsonl")
        prior = SweepJournal.load(journal.path)
        if prior and not any(r.get("event") == "sweep_complete" for r in prior):
            resumable = sum(1 for r in prior if r.get("event") == "job_done")
            logger.warning(
                "sweep %s: interrupted journal found (%d cells already "
                "complete) -- resuming from the cache",
                sid,
                resumable,
            )
        start = {
            "event": "sweep_start",
            "sweep_id": sid,
            "jobs": len(jobs),
            "resumed": bool(resumable) or active.resume,
            "ts": time.time(),
        }

    try:
        return _run_jobs_body(
            jobs, resolved, active, stats, cache, journal, start, resumable, backend
        )
    finally:
        if journal is not None:
            journal.close()


def _group_by_basis(
    jobs: Sequence[SimJob], missing: Sequence[int]
) -> Tuple[List[Tuple[SimJob, List[int]]], List[int]]:
    """Group the ``missing`` ``workload_run`` cells by the latency basis
    that prices them.

    Returns ``(basis, cell indices)`` pairs, ordered by their first cell,
    and the indices of the cells to simulate. A baseline cell joins the
    first basis its run needs in this sweep; when its run needs none, it
    is simulated like a cell of any other kind.
    """
    groups: Dict[str, Tuple[SimJob, List[int]]] = {}
    run_basis: Dict[str, str] = {}
    baselines: List[int] = []
    simulated: List[int] = []
    for index in missing:
        job = jobs[index]
        if job.kind != "workload_run":
            simulated.append(index)
            continue
        basis = _workload_basis(job)
        if basis is None:
            baselines.append(index)
            continue
        key = basis.key()
        groups.setdefault(key, (basis, []))[1].append(index)
        run_basis.setdefault(_workload_run_identity(job), key)
    for index in baselines:
        key = run_basis.get(_workload_run_identity(jobs[index]))
        if key is None:
            simulated.append(index)
        else:
            groups[key][1].append(index)
    ordered = sorted(groups.values(), key=lambda group: min(group[1]))
    for _, cells in ordered:
        cells.sort()
    return ordered, simulated


def _run_jobs_body(
    jobs: Sequence[SimJob],
    resolved: int,
    active: ExecutionPolicy,
    stats: "FabricStats",
    cache: Optional[ResultCache],
    journal: Optional[SweepJournal],
    start: Dict[str, Any],
    resumable: int,
    backend: Optional[str] = None,
) -> List[Any]:
    payloads: List[Optional[Any]] = [None] * len(jobs)
    done = [False] * len(jobs)

    corrupt_before = cache.corrupt if cache is not None else 0
    if cache is not None:
        for index, job in enumerate(jobs):
            hit = cache.get(job)
            if hit is not None:
                payloads[index] = hit
                done[index] = True
        stats.cached = sum(done)
        if resumable:
            stats.resumed_cells = stats.cached

    missing = [index for index in range(len(jobs)) if not done[index]]
    if journal is not None and missing:
        # Logged before any cell runs. A sweep served entirely from the
        # cache logs its start with its completion: one append, one fsync.
        journal.append(start)

    def job_done(job: SimJob, attempt: int, priced: bool = False) -> Dict[str, Any]:
        record = {
            "event": "job_done",
            "key": job.key(),
            "kind": job.kind,
            "label": job.label,
            "attempt": attempt,
            "ts": time.time(),
        }
        if priced:
            record["priced"] = True
        return record

    def store(job: SimJob, payload: Any) -> None:
        if cache is not None:
            cache.put(job, payload)
            if active.chaos is not None and active.chaos.decide(job.key(), "corrupt"):
                from repro.harness.chaos import corrupt_cache_entry

                corrupt_cache_entry(cache, job)

    def price_cells(
        basis_payload: Any, indices: Sequence[int], attempt: int = 0
    ) -> List[Dict[str, Any]]:
        records = []
        for index in indices:
            job = jobs[index]
            payloads[index] = _price_workload_run(job, basis_payload)
            done[index] = True
            stats.priced += 1
            store(job, payloads[index])
            records.append(job_done(job, attempt, priced=True))
        return records

    groups, simulated = _group_by_basis(jobs, missing)
    # (job order, backend index, job); backend indices past the last
    # cell are bases.
    work = [(index, index, jobs[index]) for index in simulated]
    basis_cells: Dict[int, List[int]] = {}
    from_cache: List[Dict[str, Any]] = []
    for basis, cells in groups:
        hit = cache.get(basis) if cache is not None else None
        if hit is not None:
            from_cache += price_cells(hit, cells)
        else:
            position = len(jobs) + len(basis_cells)
            basis_cells[position] = cells
            work.append((cells[0], position, basis))
    if cache is not None:
        stats.quarantined = cache.corrupt - corrupt_before
    if journal is not None and from_cache:
        journal.append(*from_cache)

    def complete(index: int, job: SimJob, payload: Any, attempt: int) -> None:
        stats.fresh += 1
        store(job, payload)
        if index in basis_cells:
            # The journal records cells, not bases: one append for every
            # cell a basis prices, so one fsync per simulation.
            records = price_cells(payload, basis_cells[index], attempt)
        else:
            payloads[index] = payload
            done[index] = True
            records = [job_done(job, attempt)]
        if journal is not None:
            journal.append(*records)

    work.sort(key=lambda entry: entry[0])
    if work:
        if backend is None:
            automatic = resolved <= 1 or len(work) == 1
            backend = "inprocess" if automatic else "process-pool"
        runnable = [(position, job) for _, position, job in work]
        try:
            BACKENDS[backend](runnable, resolved, active, stats, complete)
        except _PoolBroken as broken:
            if not active.fallback_serial:
                raise WorkerCrashError(
                    f"{backend} backend degraded ({broken.reason}) and "
                    "serial fallback is disabled"
                ) from None
            stats.degraded = True
            logger.warning(
                "%s backend degraded (%s) -- falling back to in-process "
                "serial execution for the %d remaining job(s)",
                backend,
                broken.reason,
                len(broken.remaining),
            )
            _run_missing_serial(broken.remaining, resolved, active, stats, complete)

    if journal is not None:
        finish = {
            "event": "sweep_complete",
            "fresh": stats.fresh,
            "cached": stats.cached,
            "priced": stats.priced,
            "ts": time.time(),
        }
        if missing:
            journal.append(finish)
        else:
            journal.append(start, finish)
    return [decode_result(job, payloads[index]) for index, job in enumerate(jobs)]
