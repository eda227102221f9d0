"""Compare two benchmark ledgers metric by metric.

For every workload and end-to-end metric of ``BENCHMARK.json`` this
prints the previous and current median with their first and third
quartiles (over the untraced runs each ledger holds), the change of the
median, and a verdict:

* ``WORSE``: the median worsened by more than the metric's bound
  (also marked unresolved when the spread is wider than the bound);
* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, so the runs cannot tell a change of
  that size from noise (unless every current run beats every previous
  one, which reads ``better``);
* ``better`` / ``same``: otherwise.

Only correct untraced runs count. Both ledgers must hold runs of one
and the same length (``seconds``); otherwise nothing is compared and the
exit code is 2. Returns 1 when any metric reads ``WORSE``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Set, Tuple


def _load(path: Path) -> Tuple[Dict[Tuple[str, str], List[float]], Set[int]]:
    """(workload, metric) -> values of the correct untraced runs, and the
    run lengths those runs used."""
    values: Dict[Tuple[str, str], List[float]] = {}
    lengths: Set[int] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace") or not record.get("correct"):
            continue
        lengths.add(record["seconds"])
        for name, metric in record.get("metrics", {}).items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values, lengths


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(previous: Path, current: Path, spec: dict) -> int:
    before, before_lengths = _load(previous)
    after, after_lengths = _load(current)
    lengths = before_lengths | after_lengths
    if len(lengths) > 1:
        print(
            f"cannot compare: the ledgers mix run lengths {sorted(lengths)} s "
            f"(previous {sorted(before_lengths)}, current {sorted(after_lengths)})"
        )
        return 2
    workloads = sorted({workload for workload, _ in before} | {workload for workload, _ in after})
    worse = 0
    print(
        f"{'workload':<14} {'metric':<14} {'previous median [q1, q3]':>40} "
        f"{'current median [q1, q3]':>40} {'change':>8}  verdict"
    )
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            old = before.get((workload, name))
            new = after.get((workload, name))
            if not old or not new:
                continue
            q1a, ma, q3a = _quartiles(old)
            q1b, mb, q3b = _quartiles(new)
            change = (mb - ma) / ma if ma else 0.0
            lower = entry["better"] == "lower"
            regression = change if lower else -change
            spread = max(
                (q3a - q1a) / ma if ma else 0.0,
                (q3b - q1b) / mb if mb else 0.0,
            )
            dominates = (max(new) < min(old)) if lower else (min(new) > max(old))
            if regression > bound:
                verdict = "WORSE" + (", unresolved" if spread > bound else "")
                worse += 1
            elif dominates and regression < 0:
                verdict = "better"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "better" if regression < -bound else "same"
            unit = entry["unit"]
            print(
                f"{workload:<14} {name:<14} "
                f"{f'{ma:.4g} [{q1a:.4g}, {q3a:.4g}] {unit}':>40} "
                f"{f'{mb:.4g} [{q1b:.4g}, {q3b:.4g}] {unit}':>40} "
                f"{change:>+8.1%}  {verdict}"
            )
    return 1 if worse else 0
