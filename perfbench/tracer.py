"""Per-layer host-time split, recorded from outside the library.

:class:`LayerTracer` wraps the public entry points of each simulator and
fabric layer (listed in :data:`LAYERS`) for the duration of a ``with``
block and restores the originals on exit. Every wrapped call pushes a
frame on a per-thread span stack; on return its duration is charged to
the layer as total time and, minus the time of the layer calls nested
inside it, as *self* time. Spans are aggregated in memory per layer
(calls, self seconds) rather than kept individually: the hottest
boundaries (controller, DRAM) are crossed hundreds of thousands of times
per run.

Counts and ratios of simulated work come from the library's own
:class:`~repro.common.stats.StatGroup` counters: while tracing, every
group created or deep-copied (boot-snapshot restores) is registered
with its counter values at that moment, and the ratios sum each group's
growth since then, so a restored machine contributes only the work done
after its restore.
"""

from __future__ import annotations

import copy
import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


def _hit(result: Any) -> int:
    return result is not None


def _retries(_result: Any) -> int:
    from repro.harness.parallel import last_run_stats

    return last_run_stats().retries


#: (layer name, module, attribute path, event counter or None).
#: The attribute path is ``Class.method`` or a module-level function;
#: module functions are patched in every loaded ``repro`` module that
#: imported them by name too, so import the callers before tracing. An
#: event counter maps a call's return value to events counted beside the
#: layer: hits for the two caches, retries for ``run_jobs`` (read from
#: the fabric's context-local stats of the call that just returned).
LAYERS: List[Tuple[str, str, str, Optional[Callable[[Any], int]]]] = [
    ("cpu.run", "repro.cpu.core", "InOrderCore.run", None),
    ("cpu.next_batch", "repro.cpu.trace_vector", "VectorTraceReplayer.next_batch", None),
    ("mmu.translate", "repro.mmu.walker", "PageWalker.translate", None),
    ("cache.read_below_l2", "repro.cache.hierarchy", "CacheHierarchy.read_below_l2", None),
    ("cache.write", "repro.cache.hierarchy", "CacheHierarchy.write", None),
    ("mem.read_access", "repro.mem.controller", "MemoryController.read_access", None),
    ("mem.write_access", "repro.mem.controller", "MemoryController.write_access", None),
    ("dram.access", "repro.dram.device", "DRAMDevice.access", None),
    ("core.process_read", "repro.core.guard", "PTGuard.process_read", None),
    ("core.process_write", "repro.core.guard", "PTGuard.process_write", None),
    ("core.mac_compute", "repro.core.engine", "MACEngine.compute", None),
    ("core.correct", "repro.core.correction", "CorrectionEngine.correct", None),
    ("os.page_fault", "repro.os.kernel", "Kernel.handle_page_fault", None),
    ("os.rekey_memory", "repro.os.kernel", "Kernel.rekey_memory", None),
    ("recovery.handle", "repro.recovery.manager", "RecoveryManager.handle_pte_check_failed", None),
    ("harness.build_system", "repro.harness.system", "build_system", None),
    ("harness.snapshot_store", "repro.harness.snapshot", "store", None),
    ("harness.snapshot_fetch", "repro.harness.snapshot", "fetch", _hit),
    ("harness.cache_get", "repro.harness.parallel", "ResultCache.get", _hit),
    ("harness.cache_put", "repro.harness.parallel", "ResultCache.put", None),
    ("harness.journal_append", "repro.harness.parallel", "SweepJournal.append", None),
    ("harness.run_jobs", "repro.harness.parallel", "run_jobs", _retries),
    ("service.wal_append", "repro.service.wal", "StateLog.append", None),
    ("service.wal_replay", "repro.service.wal", "StateLog.replay", None),
]

class _ThreadState(threading.local):
    """A thread's span stack (child time per open span) and layer table;
    each thread's table is registered on first use for the final merge."""

    def __init__(self, tables: List[Dict[str, List[float]]], lock: threading.Lock):
        self.stack: List[float] = []
        self.table: Dict[str, List[float]] = {}
        with lock:
            tables.append(self.table)


class LayerTracer:
    """Patch the layer boundaries, aggregate spans, restore on exit."""

    def __init__(self) -> None:
        self._tables: List[Dict[str, List[float]]] = []
        self._tables_lock = threading.Lock()
        self._state = _ThreadState(self._tables, self._tables_lock)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._groups: List[Tuple[str, Dict[str, int], Dict[str, int]]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count_events) -> Callable:
        clock = time.perf_counter
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = state.stack
            stack.append(0.0)
            start = clock()
            events = 0
            try:
                result = fn(*args, **kwargs)
                if count_events is not None:
                    events = count_events(result)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                table = state.table
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed - child
                entry[2] += events

        return traced

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, value)

    def __enter__(self) -> "LayerTracer":
        for name, module_name, path, count_events in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, method, self._wrap(name, owner.__dict__[method], count_events))
                continue
            original = getattr(module, path)
            traced = self._wrap(name, original, count_events)
            for loaded in list(sys.modules.values()):
                if (
                    getattr(loaded, "__name__", "").startswith("repro")
                    and loaded.__dict__.get(path) is original
                ):
                    self._patch(loaded, path, traced)
        self._patch_stat_groups()
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def _patch_stat_groups(self) -> None:
        """Register every StatGroup born or deep-copied while tracing."""
        from repro.common.stats import StatGroup

        groups = self._groups
        original_init = StatGroup.__init__

        def init(group, name):
            original_init(group, name)
            groups.append((name, group._counters, {}))

        def deepcopy(group, memo):
            clone = StatGroup.__new__(StatGroup)
            memo[id(group)] = clone
            clone.name = group.name
            clone._counters = copy.deepcopy(group._counters, memo)
            groups.append((clone.name, clone._counters, dict(clone._counters)))
            return clone

        self._patch(StatGroup, "__init__", init)
        self._patch(StatGroup, "__deepcopy__", deepcopy)

    # -- results -----------------------------------------------------------

    def layers(self) -> Dict[str, Tuple[int, float, int]]:
        """layer -> (calls, self seconds, events), summed over threads."""
        merged: Dict[str, List[float]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s, events) in table.items():
                entry = merged.setdefault(name, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += self_s
                entry[2] += events
        return {name: (int(c), s, int(h)) for name, (c, s, h) in merged.items()}

    def counters(self, group_name: str) -> Dict[str, int]:
        """Summed growth of every registered group called ``group_name``."""
        total: Dict[str, int] = {}
        for name, live, baseline in self._groups:
            if name != group_name:
                continue
            for key, value in live.items():
                total[key] = total.get(key, 0) + value - baseline.get(key, 0)
        return total
