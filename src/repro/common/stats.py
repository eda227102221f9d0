"""Lightweight statistics counters for simulator components.

Each component owns a :class:`StatGroup`; counters are created lazily and
render to plain dictionaries for reporting, so benchmark harnesses can diff
baseline and protected runs without knowing component internals.

``StatGroup`` is on the per-access hot path of every simulated component
(caches, controller, guard, walker), so counters are stored as a plain
``dict`` of ints and :meth:`StatGroup.increment` is a single dict update —
no per-counter objects are allocated. :class:`StatCounter` remains as a
handle for callers that want an object-style counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator


@dataclass
class StatCounter:
    """A named monotonic counter (standalone object form)."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"StatCounter({self.name}={self.value})"


class _BoundCounter:
    """A live view onto one named counter of a :class:`StatGroup`."""

    __slots__ = ("name", "_counters")

    def __init__(self, name: str, counters: Dict[str, int]):
        self.name = name
        self._counters = counters

    @property
    def value(self) -> int:
        return self._counters.get(self.name, 0)

    def increment(self, amount: int = 1) -> None:
        counters = self._counters
        try:
            counters[self.name] += amount
        except KeyError:
            counters[self.name] = amount

    def reset(self) -> None:
        self._counters[self.name] = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"StatCounter({self.name}={self.value})"


class StatGroup:
    """A named collection of counters, created on first increment.

    Counters live in a plain ``Dict[str, int]`` so the hot-path operations
    (:meth:`increment`, :meth:`get`) are bare dict accesses.
    """

    __slots__ = ("name", "_counters")

    def __init__(self, name: str):
        self.name = name
        self._counters: Dict[str, int] = {}

    def counter(self, name: str) -> _BoundCounter:
        """Return a live handle for the counter ``name`` (created at zero)."""
        self._counters.setdefault(name, 0)
        return _BoundCounter(name, self._counters)

    def raw(self) -> Dict[str, int]:
        """The live counter dict, for hot paths that inline their updates.

        Callers mutate it with ``try: d[k] += 1 / except KeyError: d[k] = 1``
        — observable state is identical to calling :meth:`increment`.
        """
        return self._counters

    def increment(self, name: str, amount: int = 1) -> None:
        counters = self._counters
        try:
            counters[name] += amount
        except KeyError:
            counters[name] = amount

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def reset(self) -> None:
        counters = self._counters
        for name in counters:
            counters[name] = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot all counters as a plain dict (sorted for stable output)."""
        counters = self._counters
        return {name: counters[name] for name in sorted(counters)}

    def __iter__(self) -> Iterator[StatCounter]:
        return iter(
            StatCounter(name, value) for name, value in self._counters.items()
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"StatGroup({self.name}: {inner})"


class TaxonomyCounter:
    """Counters over a *closed* set of outcome classes.

    Unlike :class:`StatGroup` (lazy, open-ended), a taxonomy fixes its
    classes up front: every class renders in its declared order even at
    zero, and incrementing an unknown class is an error rather than a
    silently-created counter. Used for fault-campaign outcome
    classification, where a typo'd class would corrupt the histogram.
    """

    __slots__ = ("name", "classes", "_counters")

    def __init__(self, name: str, classes):
        self.name = name
        self.classes = tuple(classes)
        if len(set(self.classes)) != len(self.classes):
            raise ValueError(f"duplicate classes in taxonomy {name!r}")
        self._counters: Dict[str, int] = {c: 0 for c in self.classes}

    def increment(self, klass: str, amount: int = 1) -> None:
        if klass not in self._counters:
            raise KeyError(
                f"unknown class {klass!r} for taxonomy {self.name!r}; "
                f"expected one of {self.classes}"
            )
        self._counters[klass] += amount

    def get(self, klass: str) -> int:
        if klass not in self._counters:
            raise KeyError(
                f"unknown class {klass!r} for taxonomy {self.name!r}"
            )
        return self._counters[klass]

    def total(self) -> int:
        return sum(self._counters.values())

    def as_dict(self) -> Dict[str, int]:
        """All classes in declared order (zeros included)."""
        return {c: self._counters[c] for c in self.classes}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"TaxonomyCounter({self.name}: {inner})"


class LatencyRecorder:
    """Samples + order statistics for service latency accounting.

    Collects float samples (seconds) and answers nearest-rank
    percentiles; used by the fabric service for queue-wait / shed / run
    latencies. Not a histogram: sample counts here are small (one per
    submission), so keeping the raw values and sorting on demand is
    both exact and cheap.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str):
        self.name = name
        self._samples: list = []
        self._sorted = True

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (p in [0, 100]); 0.0 when empty."""
        if not self._samples:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100.0 * self.count))
        return self._samples[min(self.count, rank) - 1]

    def summary(self) -> Dict[str, float]:
        """{count, p50, p95, max} — zeros when no samples recorded."""
        if not self._samples:
            return {"count": 0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": max(self._samples),
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"LatencyRecorder({self.name}: n={s['count']} "
            f"p50={s['p50']:.4g}s p95={s['p95']:.4g}s max={s['max']:.4g}s)"
        )


def ratio(numerator: int, denominator: int) -> float:
    """Safe ratio helper: returns 0.0 when the denominator is zero."""
    return numerator / denominator if denominator else 0.0


def per_kilo(numerator: int, denominator: int) -> float:
    """Events per thousand units (e.g. misses per kilo-instruction)."""
    return 1000.0 * ratio(numerator, denominator)
