"""Plain-text table rendering for experiment output.

Benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.1f}"
    return str(cell)


def banner(title: str, width: int = 72) -> str:
    """Section banner for bench output."""
    pad = max(0, width - len(title) - 4)
    return f"== {title} {'=' * pad}"


def ascii_bars(
    labels: Sequence[str], values: Sequence[float], width: int = 40, unit: str = ""
) -> str:
    """Horizontal bar chart in ASCII (for figure-shaped bench output)."""
    if not values:
        return "(no data)"
    peak = max(values) or 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(value / peak * width))) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} |{bar} {value:.2f}{unit}")
    return "\n".join(lines)
