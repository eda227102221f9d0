"""Self-check of the equivalence-matrix table (``ci/equivalence_matrix.py``).

Runs no simulation: it only proves the table is complete. Every point
has a golden digest and every digest is used; every pair of path-axis
values meets in some point; and each path pair the matrix replaced a
byte-compare CI job for has a point on both sides.
"""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import sys

import pytest

MATRIX_PATH = pathlib.Path(__file__).resolve().parent.parent / "ci" / "equivalence_matrix.py"


@pytest.fixture(scope="module")
def matrix():
    spec = importlib.util.spec_from_file_location("equivalence_matrix", MATRIX_PATH)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_points_and_golden_digests_match_one_to_one(matrix):
    golden = matrix.load_golden()
    used = {point.identity for point in matrix.POINTS}
    assert used - set(golden) == set(), "points without a golden digest"
    assert set(golden) - used == set(), "golden digests no point checks"
    assert all(len(value) == 64 for value in golden.values())


def test_point_values_are_axis_values(matrix):
    for point in matrix.POINTS:
        for axis, values in matrix.AXES.items():
            assert getattr(point, axis) in values, (point, axis)
    assert set(matrix.CACHE_MODES) == set(matrix.AXES["cache"])
    assert len(set(matrix.POINTS)) == len(matrix.POINTS), "duplicate point"


def test_every_pair_of_axis_values_is_covered(matrix):
    missing = []
    for first, second in itertools.combinations(matrix.AXES, 2):
        for pair in itertools.product(matrix.AXES[first], matrix.AXES[second]):
            if not any(
                (getattr(point, first), getattr(point, second)) == pair
                for point in matrix.POINTS
            ):
                missing.append((first, second, pair))
    assert missing == []


def _sides(matrix, identity, side_a, side_b):
    points = [point for point in matrix.POINTS if point.identity == identity]
    return (
        [point for point in points if side_a(point)],
        [point for point in points if side_b(point)],
    )


def _direct(point):
    return point.cache != "recovered"


def _uninterrupted(point):
    return point.cache in ("cold", "warm")


@pytest.mark.parametrize(
    "name, identity, side_a, side_b",
    [
        ("fig6 cold boot<->snapshot", "FIG6",
         lambda p: p.boot == "cold", lambda p: p.boot == "snapshot"),
        ("direct<->served", "SERVED",
         _direct, lambda p: p.cache == "recovered"),
        # A recovered point runs both the SIGKILLed-then-restarted serve
        # and the supervised serve.
        ("uninterrupted<->recovered+supervised", "SERVED",
         _uninterrupted, lambda p: p.cache == "recovered"),
        # The campaign, siege and frontier jobs compared two recomputing
        # runs of one report; here two points recompute it on
        # different paths.
        ("campaign run1<->run2", "CAMPAIGN",
         lambda p: p.cache == "cold", lambda p: p.cache != "cold"),
        ("siege run1<->run2", "SIEGE",
         lambda p: p.cache == "warm", lambda p: p.cache != "warm"),
        ("frontier run1<->run2", "FRONTIER",
         lambda p: p.cache == "cold", lambda p: p.cache != "cold"),
    ],
)
def test_replaced_ci_comparison_has_both_sides(matrix, name, identity, side_a, side_b):
    a, b = _sides(matrix, getattr(matrix, identity), side_a, side_b)
    assert a and b, f"{name}: sides {a} / {b}"


def test_grep_checks_became_expectations(matrix):
    assert set(matrix.EXPECTATIONS) == {matrix.CAMPAIGN, matrix.SIEGE, matrix.FRONTIER}


def test_stripped_report_and_weakest_policy_check(matrix):
    stdout = "table\n[fig6: 1.2s]\nrow\n[fig6 fabric: 3 fresh]\n\n"
    assert matrix.strip_report(stdout) == "table\nrow\n\n"
    broken = "ranked weakest=full\n1    full       0.5 BROKEN\n"
    assert matrix._weakest_policy_broken(broken)
    assert not matrix._weakest_policy_broken(broken.replace("BROKEN", "SURVIVES"))
    assert not matrix._weakest_policy_broken("no frontier here\n")


def test_journal_duplicate_check(matrix, tmp_path):
    journals = tmp_path / "journals"
    journals.mkdir()
    done = '{"rec":{"event":"job_done","key":"k1"},"sha":"x"}\n'
    (journals / "a.jsonl").write_text(done + '{"rec":{"event":"job_do', encoding="utf-8")
    assert matrix.journal_completions(tmp_path) == 1
    (journals / "b.jsonl").write_text(done + done, encoding="utf-8")
    with pytest.raises(matrix.Miss, match="done twice"):
        matrix.journal_completions(tmp_path)


def test_fresh_simulation_gate(matrix):
    from repro.cpu.workloads import WORKLOADS

    # One latency basis per workload, checked where the cache starts empty.
    assert matrix.FRESH_SIMULATIONS == {matrix.FIG6: len(WORKLOADS), matrix.WALK: 2}
    assert matrix.WALK.endswith("--workloads walkheavy,xalancbmk")
    for identity in matrix.FRESH_SIMULATIONS:
        modes = {point.cache for point in matrix.POINTS if point.identity == identity}
        assert modes & {"cold", "warm"}, identity
    stderr = "noise\n[fig6 fabric: 25 fresh / 0 cached (0 resumed) / 75 priced]\n"
    assert matrix.fresh_simulations("fig6", stderr) == 25
    assert matrix.fresh_simulations("fig7", stderr) is None
