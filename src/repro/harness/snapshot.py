"""Content-addressed post-boot snapshots: fabric cells skip boot entirely.

Every fabric cell used to pay a fixed boot tax before diverging on its
own parameters: build the machine, create the workload process, map (and
possibly prefault) its regions, warm translations, seed fault-target
lines — identical work for every cell that shares a configuration. This
module memoizes that work *post-boot*: the first cell to boot a given
configuration snapshots the fully-booted engine state under a content
digest; every later cell deep-restores a private copy and proceeds
straight to its own (seeded, per-cell) work.

Correctness model
-----------------
A snapshot is keyed by the sha256 of ``{schema, kind, params, code}``
where ``params`` is the canonical JSON of every input that can influence
boot state: workload identity/geometry, MAC backend, guard configuration
and the build seed, and ``code`` is a sha256 over the ``repro`` package
sources (:func:`source_fingerprint`), so a snapshot is only ever restored
into the code that pickled it. Inputs that *cannot* influence boot state
are excluded so more cells share a snapshot — notably
``mac_latency_cycles``, which the guard reads per access
(``guard.config`` is patched to the caller's real config after restore;
see :func:`repro.analysis.perf_eval.run_workload`).
The build ``seed`` is **included**: the DRAM device RNG, the guard's
MAC secret and the identifier sequence are all derived from it at boot.

Restores hand out a private ``copy.deepcopy`` of the memoized payload,
never the payload itself, so a cell can mutate its machine freely.
Whether a payload was freshly booted, memo-restored or disk-restored is
invisible to the cell — the equivalence is asserted by
``tests/test_boot_snapshot.py`` and byte-diffed end-to-end by the CI
``snapshot-equivalence-smoke`` job against ``REPRO_BOOT_SNAPSHOT=0``.

Storage
-------
Two tiers, both per config digest:

* a per-process LRU memo (:data:`_MEMO_ENTRIES` entries) — the fast path
  for serial sweeps and for pool workers that run many cells;
* an on-disk entry ``<cache dir>/boot_snapshots/<digest>.pkl`` in the
  existing result-cache directory (``REPRO_CACHE_DIR``), written
  atomically (tmp + rename) with a sha256 content header — the cross-
  process/cross-run path.

Disk entries are invalidated by construction: any change to the schema
version, a boot input or a source file of the package changes the
digest, so an entry pickled by other code (another checkout sharing the
cache directory, an older revision) is never found. The sha256 header
checks integrity only: a torn or corrupt entry, or one that fails to
unpickle, is discarded (unlinked) and the cell boots fresh. Any I/O or
pickling failure degrades to memo-only operation with a one-time warning
— snapshots are an optimisation, never a correctness dependency.

``REPRO_BOOT_SNAPSHOT=0`` (:func:`repro.common.config.boot_snapshot_enabled`)
disables the layer entirely; runs under ``--validate`` bypass it too, so
the runtime invariant checker always inspects a machine it watched boot.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import logging
import pathlib
import pickle
from collections import OrderedDict
from typing import Any, Callable, Mapping, Optional

from repro.common.recordlog import atomic_write

logger = logging.getLogger(__name__)

#: Bump to invalidate every existing snapshot (payload shape changes).
SNAPSHOT_SCHEMA_VERSION = 1

#: Booted systems are tens of MB deep-copied; keep the memo small.
_MEMO_ENTRIES = 8

_memo: "OrderedDict[str, Any]" = OrderedDict()
_disk_broken = False  # first I/O / pickling failure disables the disk tier
_fingerprint: Optional[str] = None  # source_fingerprint(), once per process


def source_fingerprint() -> str:
    """sha256 over every ``.py`` file of the ``repro`` package (path and
    bytes), computed once per process: a pickled payload only fits the
    classes of the code that wrote it."""
    global _fingerprint
    if _fingerprint is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes() + b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint


def snapshot_digest(kind: str, params: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON of (schema version, kind, params,
    source fingerprint)."""
    body = json.dumps(
        {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "kind": kind,
            "params": params,
            "code": source_fingerprint(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def snapshot_dir() -> pathlib.Path:
    """Disk tier location, inside the existing result-cache directory."""
    from repro.harness.parallel import default_cache_dir

    return default_cache_dir() / "boot_snapshots"


def reset() -> None:
    """Drop the in-process memo and re-arm the disk tier (tests/benches)."""
    global _disk_broken
    _memo.clear()
    _disk_broken = False


def _remember(digest: str, payload: Any) -> None:
    _memo[digest] = payload
    _memo.move_to_end(digest)
    while len(_memo) > _MEMO_ENTRIES:
        _memo.popitem(last=False)


def fetch(digest: str) -> Optional[Any]:
    """A private deep copy of the payload for ``digest``, or None."""
    payload = _memo.get(digest)
    if payload is not None:
        _memo.move_to_end(digest)
        return copy.deepcopy(payload)
    path = snapshot_dir() / f"{digest}.pkl"
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    header, _, body = blob.partition(b"\n")
    try:
        intact = header.decode("ascii") == hashlib.sha256(body).hexdigest()
    except UnicodeDecodeError:
        intact = False
    if intact:
        try:
            payload = pickle.loads(body)
        except Exception:  # noqa: BLE001 — stale/foreign pickle == corrupt
            intact = False
    if not intact:
        logger.warning(
            "boot snapshot %s failed its content check -- discarding "
            "(the cell boots fresh)",
            path.name,
        )
        with contextlib.suppress(OSError):
            path.unlink()
        return None
    _remember(digest, payload)
    return copy.deepcopy(payload)


def store(digest: str, payload: Any) -> None:
    """Memoize ``payload`` (a pristine copy is taken; the caller's object
    stays live and mutable) and write the disk entry if the tier works."""
    global _disk_broken
    pristine = copy.deepcopy(payload)
    _remember(digest, pristine)
    if _disk_broken:
        return
    try:
        body = pickle.dumps(pristine, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 — unpicklable component
        _disk_broken = True
        logger.warning(
            "boot snapshot payload is not picklable (%s) -- disk tier "
            "disabled for this process, memo stays active",
            exc,
        )
        return
    try:
        directory = snapshot_dir()
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write(
            directory / f"{digest}.pkl",
            hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body,
        )
    except OSError as exc:
        _disk_broken = True
        logger.warning(
            "boot snapshot write failed (%s) -- disk tier disabled for "
            "this process, memo stays active",
            exc,
        )


def cached_boot(kind: str, params: Mapping[str, Any], boot: Callable[[], Any]) -> Any:
    """Return the booted payload for ``(kind, params)``.

    On a hit the caller receives a private deep copy of the snapshot; on
    a miss ``boot()`` runs, its result is snapshotted, and the *original*
    (never a copy) is returned — so the miss path is the cold-boot path,
    observable state included. Disabled (always boots) when
    ``REPRO_BOOT_SNAPSHOT=0`` or under ``--validate``.
    """
    from repro.common.config import boot_snapshot_enabled
    from repro.faults.invariants import validation_enabled

    if not boot_snapshot_enabled() or validation_enabled():
        return boot()
    digest = snapshot_digest(kind, params)
    payload = fetch(digest)
    if payload is None:
        payload = boot()
        store(digest, payload)
    return payload
