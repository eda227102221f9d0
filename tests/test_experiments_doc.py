"""Every number in EXPERIMENTS.md's "Measured" column is a report number.

The F6–S3 rows quote the archived benchmark reports; a paraphrase
(``67.9 %`` for ``67.93%``) or a stale copy would let the doc drift from
what the benches print. This reads the numbers out of each row and finds
each one verbatim in that row's report — a grep, no simulation.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORTS = ROOT / "benchmarks" / "reports"

#: Table row id -> the archived report its "Measured" cell quotes.
ROW_REPORTS = {
    "F6": "test_bench_fig6_slowdown.txt",
    "F7": "test_bench_fig7_mac_latency.txt",
    "F8": "test_bench_fig8_pte_locality.txt",
    "F9": "test_bench_fig9_correction.txt",
    "S1": "test_bench_sec6e_security.txt",
    "S2": "test_bench_sec5e_storage.txt",
    "S3": "test_bench_sec7c_multicore.txt",
}

#: A number as the reports print it: integer, decimal or ``1.26e+14``;
#: digits inside a word (``x264``, ``n_eff``) are not numbers.
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:e[+-]\d+)?")


def _measured_cells():
    cells = {}
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        columns = [column.strip() for column in line.split("|")]
        # | Id | Artefact | Paper | Measured | Shape holds? |
        if len(columns) == 7 and columns[1] in ROW_REPORTS:
            cells[columns[1]] = columns[4]
    return cells


def test_every_quoted_row_is_in_the_table():
    assert sorted(_measured_cells()) == sorted(ROW_REPORTS)


@pytest.mark.parametrize("row", sorted(ROW_REPORTS))
def test_measured_numbers_appear_verbatim_in_the_report(row):
    cell = _measured_cells()[row]
    report = (REPORTS / ROW_REPORTS[row]).read_text()
    numbers = NUMBER.findall(cell)
    assert numbers, f"{row}: no number in {cell!r}"
    missing = [
        number
        for number in numbers
        # Whole-number match: "67.9" must not pass on "67.93%".
        if not re.search(rf"(?<![\d.]){re.escape(number)}(?![\d])", report)
    ]
    assert not missing, f"{row}: {missing} not in {ROW_REPORTS[row]}"
