"""Tests for the siege evaluation (repro.analysis.siege_eval):
availability, survival time and recovery-latency reporting under
sustained attack pressure, plus its fabric/CLI integration."""

from dataclasses import asdict

from repro.analysis.siege_eval import (
    SIEGE_INTENSITIES,
    SiegeCell,
    format_siege_report,
    run_siege,
    run_siege_cell,
)
from repro.faults.campaign import TRIAL_WINDOW_CYCLES
from repro.harness.experiments import EXPERIMENTS
from repro.harness.parallel import ResultCache
from repro.recovery.policy import RecoveryPolicy, recovery_policy

SEED = 17
WINDOWS = 6


class TestSiegeCellAccounting:
    def test_intensity_ladder_has_three_rungs(self):
        assert len(SIEGE_INTENSITIES) >= 3
        assert SIEGE_INTENSITIES["low"] < SIEGE_INTENSITIES["medium"] \
            < SIEGE_INTENSITIES["high"]

    def test_full_policy_cell_survives_with_high_availability(self):
        cell = run_siege_cell("medium", 4, WINDOWS, SEED,
                              recovery=RecoveryPolicy().as_params())
        assert cell.injections == 4 * WINDOWS
        assert cell.exposure_cycles == WINDOWS * TRIAL_WINDOW_CYCLES
        assert cell.outcome("silent_corruption") == 0
        assert cell.survived_windows == WINDOWS  # no panic under recovery
        assert cell.survival_fraction == 1.0
        assert 0.99 <= cell.availability <= 1.0
        assert sum(cell.outcomes.values()) == cell.injections

    def test_no_policy_siege_panics_on_first_uncorrectable(self):
        cell = run_siege_cell("high", 16, WINDOWS, SEED, recovery=None)
        assert cell.recovery_policy is None
        assert cell.panics >= 1
        assert cell.survived_windows < WINDOWS
        assert cell.availability < 1.0
        assert cell.recovery_latency_cycles == []

    def test_none_policy_and_no_policy_agree(self):
        none = run_siege_cell("high", 16, WINDOWS, SEED,
                              recovery=recovery_policy("none").as_params())
        bare = run_siege_cell("high", 16, WINDOWS, SEED, recovery=None)
        assert none.panics == bare.panics
        assert none.survived_windows == bare.survived_windows
        assert none.downtime_cycles == bare.downtime_cycles

    def test_cell_is_deterministic(self):
        params = RecoveryPolicy().as_params()
        first = run_siege_cell("high", 16, WINDOWS, SEED, recovery=params)
        second = run_siege_cell("high", 16, WINDOWS, SEED, recovery=params)
        assert asdict(first) == asdict(second)

    def test_latency_percentiles_nearest_rank(self):
        cell = SiegeCell("low", 1, 1, 1, "povray",
                         recovery_latency_cycles=[30, 10, 20])
        assert cell.latency_percentile(0.0) == 10
        assert cell.latency_percentile(0.50) == 20
        assert cell.latency_percentile(1.0) == 30
        empty = SiegeCell("low", 1, 1, 1, "povray")
        assert empty.latency_percentile(0.95) == 0

    def test_validate_runs_invariant_sweeps(self):
        cell = run_siege_cell("low", 1, 3, SEED, validate=True)
        assert cell.invariant_sweeps >= 3  # one sweep per window


class TestSiegeSweep:
    def test_runs_every_intensity_and_caches(self, tmp_path):
        cells = run_siege(windows=WINDOWS, seed=SEED, workers=1,
                          cache=ResultCache(tmp_path))
        assert [cell.intensity for cell in cells] == ["low", "medium", "high"]
        assert all(cell.recovery_policy == "full" for cell in cells)
        replay = run_siege(windows=WINDOWS, seed=SEED, workers=1,
                           cache=ResultCache(tmp_path))
        assert [asdict(c) for c in cells] == [asdict(c) for c in replay]

    def test_report_renders_three_intensities_and_guarantee(self):
        cells = run_siege(windows=WINDOWS, seed=SEED, workers=1)
        report = format_siege_report(cells)
        for name in ("low", "medium", "high"):
            assert name in report
        assert "Siege: availability under sustained Rowhammer" in report
        assert "policy=full" in report
        assert "zero-silent-corruption guarantee holds" in report
        assert "survived" in report and "avail" in report and "p95" in report
        # Byte-identical across runs.
        again = format_siege_report(
            run_siege(windows=WINDOWS, seed=SEED, workers=1)
        )
        assert report == again

    def test_siege_experiment_registered(self):
        assert "siege" in EXPERIMENTS

    def test_recovery_params_are_part_of_the_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        full = run_siege(windows=3, seed=SEED, workers=1, cache=cache)
        harsher = run_siege(
            windows=3, seed=SEED, workers=1, cache=cache,
            recovery=RecoveryPolicy(spare_rows=1, retire_threshold=1)
            .as_params(),
        )
        # Different policy, same everything else: must not collide.
        assert any(
            asdict(a) != asdict(b) for a, b in zip(full, harsher)
        )
