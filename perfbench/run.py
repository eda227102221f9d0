"""Cold-path benchmark of the PT-Guard reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-cold --seed 1 --trace 0
    python3 perfbench/run.py --workload service-loop --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

A run repeats cold *passes* of one workload (:mod:`workloads`) for
``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``, the length
results are meant to be compared at; ledgers record it and ``--compare``
refuses to pool runs of different lengths) and prints
a table, the host fingerprint and, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs the three workloads one after another, each in a process of
its own, and exits 1 if any of them fails its correctness gate.

End-to-end metrics (``--trace 0``), medians over the run's passes:

* ``setup_s``: a fresh interpreter importing the library plus the pass's
  own preparation (empty cache directory, service start);
* ``wall_s``: the cold sweep (fig6, frontier) or the closed client loop;
* ``sim_acc_per_s``: simulated accesses per host second of ``wall_s`` --
  timed plus warmup accesses of every simulated cell, or for the
  frontier the attacker's hammer operations and page walks;
* ``peak_rss_mb``: the process's peak resident set;
* ``sweeps_per_s``, ``sweep_p50_s``, ``sweep_tail_s``: completed sweeps
  per second and sweep latency, submission to results. A fig6 or
  frontier pass is one sweep. The tail is the highest whole percentile
  with at least ten samples beyond it (the maximum when there are fewer);
  the table names the percentile and the sample count;
* ``restart_s``: reading every result back the way a restarted process
  would -- the service reopened on the state directory its loop wrote
  (WAL replay plus rehydrating every done ticket), or the sweep rerun on
  its now-warm result cache.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (:mod:`tracer`) per traced pass, the tracing overhead
(traced minus untraced ``wall_s``), the time no layer accounts for and,
beside it, the self time of the spans that enclose all others
(``harness.run_jobs``, ``cpu.run``): a small remainder does not mean the
inner layers cover the run.
Layer self times are wall time per thread: in the service, threads that
wait for the GIL inside a layer charge the wait to it, so the service's
layer times add up to more than its wall time.

Correctness: each pass hashes its simulated output. The hash must match
the digest stored in ``digests.json`` for the workload and seed or, for
a seed without one, the run's first pass. A mismatch, an exception, a
refused or shed submission, a result-cache hit on a cold sweep or a
result that changes when read back fails the pass's operations; the
command then exits 1 after printing its result.

``--ledger FILE`` appends each result, fingerprint included, to a JSON
lines file; ``--compare PREVIOUS --ledger CURRENT`` prints every
end-to-end metric per workload with both ledgers' median and quartiles
(:mod:`compare`). Everything else the run writes stays under
``.perfbench/`` in the checkout and is removed when it ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
IMPORT_PROBE = (
    "import repro.harness.experiments, repro.service, repro.analysis.frontier_eval"
)
WORKLOADS = ("fig6-cold", "frontier-cold", "service-loop")
#: Layers whose spans enclose the others' (see ``trace.enclosing_self_s``).
ENCLOSING_LAYERS = ("harness.run_jobs", "cpu.run")


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_latency(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples): the highest whole percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, count
    percentile = math.floor(100.0 * (count - 10) / count)
    rank = max(1, math.ceil(percentile / 100.0 * count))
    return ordered[rank - 1], float(percentile), count


def fingerprint() -> Dict[str, object]:
    """Host and source identity attached to every result."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # A checkout that is not a repository must not report a parent's.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def child_import_seconds() -> float:
    """A fresh interpreter importing the library: the user's start-up."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, check=True, timeout=120
    )
    return time.perf_counter() - start


class Run:
    """The passes of one workload and the metrics drawn from them."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, spec: dict):
        from workloads import PASSES

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spec = spec
        self.run_pass = PASSES[workload]
        self.scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.untraced: List = []
        self.traced: List = []
        self.setups: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.reference: Optional[str] = (
            json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
            if DIGESTS.exists()
            else None
        )
        self.first_digest: Optional[str] = None
        self.tracer = None
        if trace:
            from tracer import LayerTracer

            self.tracer = LayerTracer()

    # -- passes ------------------------------------------------------------

    def _one_pass(self, traced: bool) -> float:
        """Run and check one pass; returns the seconds it took."""
        began = time.perf_counter()
        index = len(self.untraced) + len(self.traced)
        try:
            child = child_import_seconds()
            gc.collect()  # every pass starts from a collected heap
            if traced:
                with self.tracer:
                    result = self.run_pass(self.seed, self.scratch, index)
            else:
                result = self.run_pass(self.seed, self.scratch, index)
        except Exception as error:  # noqa: BLE001 -- counted, then reported
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"pass {index}: {type(error).__name__}: {error}")
            return time.perf_counter() - began
        self.setups.append(child + result.prep_s)
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors.extend(result.errors)
        if self.first_digest is None:
            self.first_digest = result.digest
        expected = self.reference or self.first_digest
        if result.digest != expected:
            self.failed += result.attempted - result.failed
            self.errors.append(
                f"pass {index}: output digest {result.digest[:16]} != expected {expected[:16]}"
            )
        (self.traced if traced else self.untraced).append(result)
        return time.perf_counter() - began

    def execute(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        durations = {False: [], True: []}
        try:
            while True:
                # Untraced first; when tracing, alternate with traced.
                traced = self.trace and len(durations[True]) < len(durations[False])
                durations[traced].append(self._one_pass(traced))
                if not self.untraced:
                    return  # the first pass failed: nothing to measure
                if self.trace and not durations[True]:
                    continue
                upcoming = self.trace and len(durations[True]) < len(durations[False])
                estimate = _median(durations[upcoming])
                if time.perf_counter() - start + estimate > self.seconds:
                    return
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
            try:
                self.scratch.parent.rmdir()
            except OSError:
                pass

    # -- metrics -----------------------------------------------------------

    def tail(self) -> Tuple[float, float, int]:
        return tail_latency([value for p in self.untraced for value in p.sweep_latencies])

    def end_to_end(self) -> Dict[str, float]:
        passes = self.untraced
        latencies = [value for p in passes for value in p.sweep_latencies]
        return {
            "setup_s": _median(self.setups),
            "wall_s": _median([p.wall_s for p in passes]),
            "sim_acc_per_s": _median([p.accesses / p.wall_s for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sweeps_per_s": _median([p.sweeps / p.wall_s for p in passes]),
            "sweep_p50_s": _median(latencies),
            "sweep_tail_s": self.tail()[0],
            "restart_s": _median([value for p in passes for value in p.restarts]),
        }

    def per_layer(self) -> Dict[str, float]:
        from tracer import LAYERS

        tracer = self.tracer
        passes = max(1, len(self.traced))
        layers = tracer.layers()
        values: Dict[str, float] = {}
        accounted = 0.0
        for name, _module, _path, _events in LAYERS:
            calls, self_s, _ = layers.get(name, (0, 0.0, 0))
            values[f"{name}.calls"] = calls / passes
            values[f"{name}.self_s"] = self_s / passes
            accounted += self_s / passes

        def share(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        # The batch core walks inline and calls PageWalker.translate only
        # to retry after a page fault; the walker's counter has every walk.
        values["mmu.translate.calls"] = tracer.counters("walker").get("walks", 0) / passes
        tlb = tracer.counters("tlb")
        llc = tracer.counters("L3")
        dram = tracer.counters("dram")
        guard = tracer.counters("ptguard")
        values["mmu.tlb_miss_ratio"] = share(
            tlb.get("misses", 0), tlb.get("hits", 0) + tlb.get("misses", 0)
        )
        values["cache.llc_miss_ratio"] = share(
            llc.get("misses", 0), llc.get("hits", 0) + llc.get("misses", 0)
        )
        values["dram.row_hit_ratio"] = share(
            dram.get("row_hits", 0),
            dram.get("row_hits", 0) + dram.get("row_misses", 0) + dram.get("row_conflicts", 0),
        )
        values["core.correct_success_ratio"] = share(
            guard.get("pte_corrections", 0),
            guard.get("pte_corrections", 0) + guard.get("pte_uncorrectable", 0),
        )
        for name, key in (
            ("harness.snapshot_hit_ratio", "harness.snapshot_fetch"),
            ("harness.cache_hit_ratio", "harness.cache_get"),
        ):
            calls, _, hits = layers.get(key, (0, 0.0, 0))
            values[name] = share(hits, calls)
        values["harness.retries"] = layers.get("harness.run_jobs", (0, 0.0, 0))[2] / passes
        values["service.queue_wait_s"] = _median([p.queue_wait_s for p in self.traced])
        values["trace.overhead_s"] = _median([p.wall_s for p in self.traced]) - _median(
            [p.wall_s for p in self.untraced]
        )
        # Spans cover the sweep and the restarts alike.
        values["trace.unaccounted_s"] = (
            _median([p.wall_s + sum(p.restarts) for p in self.traced]) - accounted
        )
        # run_jobs and cpu.run enclose the whole sweep and each simulated
        # cell, so their self time is whatever no inner layer claims (on
        # fig6 the batch core's inline walks and L1/L2 probes): read the
        # small remainder above together with this.
        values["trace.enclosing_self_s"] = sum(
            values[f"{name}.self_s"] for name in ENCLOSING_LAYERS
        )
        return values

    def metrics(self) -> Dict[str, Dict[str, float]]:
        key = "per_layer" if self.trace else "end_to_end"
        measured = self.per_layer() if self.trace else self.end_to_end()
        return {
            entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
            for entry in self.spec[key]
        }

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors and bool(self.untraced)


def print_table(run: Run, metrics: Dict[str, Dict[str, float]]) -> None:
    mode = "traced" if run.trace else "untraced"
    print(
        f"== {run.workload}  seed={run.seed}  {mode} passes: "
        f"{len(run.untraced)} untraced, {len(run.traced)} traced"
    )
    width = max((len(name) for name in metrics), default=0)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    if not run.trace:
        value, percentile, samples = run.tail()
        print(f"  sweep_tail_s is p{percentile:g} of {samples} sweep latencies")
    elif metrics:
        enclosing = ", ".join(
            f"{name}.self_s {metrics[f'{name}.self_s']['value']:.4g} s" for name in ENCLOSING_LAYERS
        )
        print(
            f"  trace.unaccounted_s {metrics['trace.unaccounted_s']['value']:.4g} s is what no"
            f" span covers; the enclosing spans' self time ({enclosing}) is what no inner"
            " layer claims"
        )
    print(f"  operations: {run.attempted} attempted, {run.failed} failed")
    for error in run.errors[:20]:
        print(f"  ERROR {error}")


def record_digest(run: Run) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(run.workload, {})[str(run.seed)] = run.first_digest
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", type=Path, help="append results to this JSON lines file")
    parser.add_argument(
        "--compare",
        type=Path,
        metavar="PREVIOUS",
        help="compare the --ledger file against this earlier ledger and exit",
    )
    parser.add_argument(
        "--record-digest",
        action="store_true",
        help="store this seed's output digest in digests.json",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        _fail_setup(f"{spec_path.name} not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(HERE))

    if args.compare is not None:
        from compare import compare

        if args.ledger is None:
            parser.error("--compare needs --ledger (the current results)")
        return compare(args.compare, args.ledger, spec)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").exists():
        _fail_setup(f"library sources not found under {SRC.name}/ -- run from a full checkout")

    if args.workload == "all":
        return run_all(args)

    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    host = fingerprint()
    run = Run(args.workload, args.seed, seconds, bool(args.trace), spec)
    run.execute()
    metrics = run.metrics() if run.untraced else {}
    print_table(run, metrics)
    if args.record_digest and run.correct:
        record_digest(run)
    if args.ledger is not None:
        _, percentile, samples = run.tail()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
            "sweep_tail": {"percentile": percentile, "samples": samples},
            "fingerprint": host,
        }
        args.ledger.parent.mkdir(parents=True, exist_ok=True)
        with args.ledger.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print("fingerprint: " + json.dumps(host, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": max(1, run.attempted),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if run.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a process of its own (peak RSS and heap
    state stay per workload); the last line merges their results with
    metric names prefixed by the workload."""
    merged: Dict[str, Dict[str, float]] = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.ledger is not None:
            command += ["--ledger", str(args.ledger)]
        if args.record_digest:
            command.append("--record-digest")
        lines = subprocess.run(command, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        merged.update({f"{workload}.{name}": m for name, m in result["metrics"].items()})
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
