"""Boot-snapshot restores are indistinguishable from cold boots.

The snapshot layer (:mod:`repro.harness.snapshot`) memoizes the fully
booted machine per config digest and hands every later cell a private
deep copy. These tests pin the contract from both directions: the
*state* of a restored machine is identical to a freshly booted one
(memory bytes, kernel counters, guard identifier, MAC memo — across
every MAC backend and both storage tiers), and the *behaviour* built on
top (``run_workload``, campaign cells) is bit-identical with snapshots
on, off, memo-served or disk-served. Same derandomized-hypothesis
discipline as ``test_batch_equivalence.py``.
"""

from __future__ import annotations

import os
import pathlib
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.cpu.workloads import get_workload
from repro.harness import snapshot
from repro.harness.system import build_system

DERANDOMIZED_SMALL = settings(derandomize=True, max_examples=6, deadline=None)

MACS = ("pseudo", "blake2", "siphash", "qarma")


@pytest.fixture(autouse=True)
def _isolated_snapshots(tmp_path, monkeypatch):
    """Fresh memo + private disk tier per test; snapshots enabled."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "1")
    snapshot.reset()
    yield
    snapshot.reset()


def _boot(mac: str, seed: int = 5):
    system = build_system(ptguard=optimized_ptguard_config(), mac_algorithm=mac, seed=seed)
    process, _trace = system.workload_process(get_workload("povray"), seed=seed)
    return system, process.pid


def _machine_state(system):
    """Every boot-time-observable piece of machine state, comparable."""
    engine = system.guard.engine if system.guard is not None else None
    return {
        "memory": dict(system.memory._lines),
        "kernel": system.kernel.stats.as_dict(),
        "pids": sorted(system.kernel.processes),
        "hier": system.hierarchy.stats.as_dict(),
        "identifier": system.guard.identifier if system.guard else None,
        "epoch": system.guard.epoch if system.guard else None,
        "computations": engine.computations if engine else None,
        "engine_stats": engine.stats.as_dict() if engine else None,
        "bulk_hints": dict(engine._bulk_tags or {}) if engine else None,
    }


def _run_short(system, pid, mac: str, seed: int = 5):
    """A short timed window on the booted machine — exercises the trace
    RNG, walker, guard and hierarchy on top of (restored) boot state."""
    from repro.cpu.trace import TraceGenerator
    from repro.harness.system import COLD_BASE, HOT_BASE

    trace = TraceGenerator(
        get_workload("povray"), hot_base=HOT_BASE, cold_base=COLD_BASE, seed=seed
    )
    core = system.new_core(system.kernel.processes[pid])
    return core.run(trace, mem_ops=300, warmup_ops=50)


class TestRestoredStateIdentity:
    @DERANDOMIZED_SMALL
    @given(mac=st.sampled_from(MACS))
    def test_memo_and_disk_restores_match_fresh_boot(self, mac):
        snapshot.reset()
        fresh, fresh_pid = _boot(mac)
        params = {"mac": mac}

        miss = snapshot.cached_boot("identity", params, lambda: _boot(mac))
        memo_hit = snapshot.cached_boot("identity", params, lambda: _boot(mac))
        snapshot.reset()  # drop the memo; the next fetch reads the disk tier
        disk_hit = snapshot.cached_boot("identity", params, lambda: _boot(mac))

        reference = _machine_state(fresh)
        for label, (system, pid) in (
            ("miss", miss), ("memo", memo_hit), ("disk", disk_hit)
        ):
            assert pid == fresh_pid, label
            assert _machine_state(system) == reference, label

        # Behaviour on top of restored state is bit-identical too — this
        # drives the trace RNG stream and every counter forward.
        want = _run_short(fresh, fresh_pid, mac)
        assert _run_short(memo_hit[0], memo_hit[1], mac) == want
        assert _run_short(disk_hit[0], disk_hit[1], mac) == want

    def test_restores_are_independent(self):
        params = {"mac": "blake2"}
        first = snapshot.cached_boot("indep", params, lambda: _boot("blake2"))
        second = snapshot.cached_boot("indep", params, lambda: _boot("blake2"))
        # Mutating one restore must not leak into the memo or later copies.
        line = next(iter(second[0].memory._lines))
        second[0].memory.write_line(line, bytes(64))
        second[0].kernel.stats.increment("processes_created", 99)
        third = snapshot.cached_boot("indep", params, lambda: _boot("blake2"))
        assert _machine_state(third[0]) == _machine_state(first[0])


class TestDigestAndGating:
    def test_digest_covers_boot_inputs(self):
        base = snapshot.snapshot_digest("k", {"mac": "blake2", "seed": 5})
        assert base == snapshot.snapshot_digest("k", {"seed": 5, "mac": "blake2"})
        assert base != snapshot.snapshot_digest("k", {"mac": "blake2", "seed": 6})
        assert base != snapshot.snapshot_digest("k", {"mac": "qarma", "seed": 5})
        assert base != snapshot.snapshot_digest("other", {"mac": "blake2", "seed": 5})

    def test_disabled_env_boots_every_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "0")
        calls = []
        for _ in range(2):
            snapshot.cached_boot("gate", {}, lambda: calls.append(1))
        assert len(calls) == 2

    def test_validation_boots_every_time(self):
        from repro.faults import invariants

        invariants.set_validation(True)
        try:
            calls = []
            for _ in range(2):
                snapshot.cached_boot("gate", {}, lambda: calls.append(1))
        finally:
            invariants.set_validation(None)
        assert len(calls) == 2

    def test_corrupt_disk_entry_is_discarded_and_rebooted(self):
        params = {"mac": "pseudo"}
        snapshot.cached_boot("corrupt", params, lambda: _boot("pseudo"))
        digest = snapshot.snapshot_digest("corrupt", params)
        path = snapshot.snapshot_dir() / f"{digest}.pkl"
        assert path.exists()
        path.write_bytes(b"deadbeef\n" + b"garbage")
        snapshot.reset()  # force the disk tier
        system, pid = snapshot.cached_boot("corrupt", params, lambda: _boot("pseudo"))
        assert not path.read_bytes().startswith(b"deadbeef")  # rewritten
        fresh, fresh_pid = _boot("pseudo")
        assert pid == fresh_pid
        assert _machine_state(system) == _machine_state(fresh)

    def test_racing_stores_of_one_digest_keep_the_disk_tier(self):
        # Service tenants share boot_snapshots/, so two threads can store
        # one digest at once. Each needs a private temp file: a shared one
        # makes a rename fail, which turns the disk tier off process-wide.
        digest = snapshot.snapshot_digest("race", {"mac": "pseudo"})
        payload = {"rows": list(range(20_000))}
        barrier = threading.Barrier(2)

        def store():
            barrier.wait()
            snapshot.store(digest, payload)

        for _ in range(20):
            threads = [threading.Thread(target=store) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not snapshot._disk_broken
        snapshot.reset()  # empty memo: the fetch reads and verifies disk
        assert snapshot.fetch(digest) == payload
        assert not list(snapshot.snapshot_dir().glob(".*.tmp"))

    def test_snapshot_from_other_code_is_never_restored(self, monkeypatch):
        # A disk entry pickled by different sources (another checkout on
        # the same cache dir, an older revision) must miss, not load into
        # classes whose attributes no longer match.
        params = {"mac": "blake2"}
        boots = []

        def boot():
            boots.append(1)
            return _boot("blake2")

        snapshot.cached_boot("code", params, boot)
        stored = snapshot.snapshot_digest("code", params)
        assert (snapshot.snapshot_dir() / f"{stored}.pkl").exists()
        monkeypatch.setattr(snapshot, "source_fingerprint", lambda: "0" * 64)
        snapshot.reset()  # empty memo: only the disk tier could answer
        assert snapshot.snapshot_digest("code", params) != stored
        assert snapshot.fetch(snapshot.snapshot_digest("code", params)) is None
        system, pid = snapshot.cached_boot("code", params, boot)
        assert len(boots) == 2  # booted fresh
        fresh, fresh_pid = _boot("blake2")
        assert pid == fresh_pid
        assert _machine_state(system) == _machine_state(fresh)

    def test_source_fingerprint_is_stable_sha256(self):
        first = snapshot.source_fingerprint()
        assert first == snapshot.source_fingerprint()
        assert len(first) == 64 and int(first, 16) >= 0


class TestEndToEndEquality:
    def _sweep(self):
        from repro.analysis.perf_eval import run_workload

        profile = get_workload("xalancbmk")
        out = []
        for latency in (5, 15):
            for design in ("ptguard", "optimized"):
                config = (
                    PTGuardConfig(mac_latency_cycles=latency)
                    if design == "ptguard"
                    else optimized_ptguard_config(latency)
                )
                out.append(
                    run_workload(profile, config, mem_ops=800, warmup_ops=100, seed=1)
                )
        out.append(run_workload(profile, None, mem_ops=800, warmup_ops=100, seed=1))
        return out

    def test_run_workload_matches_cold_boot_across_latencies(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "0")
        cold = self._sweep()
        monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "1")
        snapshot.reset()
        warm = self._sweep()
        assert warm == cold
        # mac_latency_cycles stays out of the digest: both ptguard
        # latencies (and both optimized ones) shared a snapshot.
        entries = list(snapshot.snapshot_dir().glob("*.pkl"))
        assert len(entries) == 3  # baseline + ptguard + optimized

    def test_campaign_cell_matches_cold_boot(self, monkeypatch):
        from repro.faults.campaign import run_campaign_cell

        def cells():
            out = []
            for scenario in ("pte_single", "mac_single"):
                cell = run_campaign_cell(scenario, trials=10, seed=3, workload="povray")
                out.append(
                    (dict(cell.outcomes), cell.trials, cell.bits_injected,
                     cell.protected_tampered)
                )
            return out

        monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "0")
        cold = cells()
        monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "1")
        snapshot.reset()
        assert cells() == cold
        # The two scenarios share one boot (scenario is not a boot input).
        assert len(list(snapshot.snapshot_dir().glob("*.pkl"))) == 1


class TestSiegeBoots:
    """Both siege modes boot through one snapshot per configuration."""

    SPARE_ROWS = (0, 2, 4, 8)

    @staticmethod
    def _cells(spare_rows: int):
        from dataclasses import asdict

        from repro.analysis.siege_eval import run_adaptive_siege_cell, run_siege_cell
        from repro.recovery.policy import RecoveryPolicy

        # A hair-trigger rekey, so the cells re-key memory after restores.
        params = RecoveryPolicy(
            name=f"spares{spare_rows}",
            spare_rows=spare_rows,
            rekey_threshold=2,
            rekey_cooldown=0,
        ).as_params()
        return (
            asdict(run_siege_cell("high", 16, 3, seed=4, recovery=params)),
            asdict(run_adaptive_siege_cell("rekey_burst", 4, seed=4, recovery=params)),
        )

    @pytest.mark.parametrize("spare_rows", SPARE_ROWS)
    def test_siege_cells_match_cold_boot(self, spare_rows, monkeypatch):
        monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "0")
        cold = self._cells(spare_rows)
        monkeypatch.setenv("REPRO_BOOT_SNAPSHOT", "1")
        snapshot.reset()
        assert self._cells(spare_rows) == cold  # boots once, then memo
        assert len(list(snapshot.snapshot_dir().glob("*.pkl"))) == 1
        assert self._cells(spare_rows) == cold  # memo only
        snapshot.reset()
        assert self._cells(spare_rows) == cold  # disk tier
        siege, adaptive = cold
        assert siege["spare_rows_left"] == spare_rows - siege["rows_retired"]
        assert adaptive["spare_rows_left"] + adaptive["rows_retired"] == spare_rows
        assert adaptive["adaptive_rekeys"] and adaptive["downtime_rekey_cycles"]

    def test_default_frontier_boots_once_per_distinct_key(self, tmp_path, monkeypatch):
        from repro.analysis.frontier_eval import run_frontier
        from repro.harness import system as system_module
        from repro.harness.parallel import ResultCache
        from repro.recovery.search import policy_grid

        keys = {
            policy.spare_rows if policy.retire_enabled else 0
            for policy in policy_grid("default")
        }
        assert keys == set(self.SPARE_ROWS)
        boots = []
        real_build = system_module.build_system

        def counting_build(*args, **kwargs):
            boots.append(kwargs.get("spare_rows", 0))
            return real_build(*args, **kwargs)

        monkeypatch.setattr(system_module, "build_system", counting_build)
        _rows, cells = run_frontier(
            windows=1, seed=3, workers=1, cache=ResultCache(tmp_path / "results")
        )
        assert len(cells) == 5 * len(policy_grid("default"))
        assert sorted(boots) == sorted(keys)
