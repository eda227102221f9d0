"""Batched execution is bit-identical to the scalar reference path.

Derandomized hypothesis property tests (same discipline as
``test_property_roundtrips.py``: the example sequence is a pure function
of the test code, so CI runs are byte-for-byte repeatable) covering the
two vectorized layers — the vectorized trace-RNG replay and the fused
batch execution core, prefaulted and demand-paged — plus a
chaos+validate fault-injection campaign regression that pushes fault
injection, runtime invariants and recovery through the batched core.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import optimized_ptguard_config
from repro.cpu.trace import TraceGenerator
from repro.cpu.trace_vector import HAVE_NUMPY, VectorTraceReplayer
from repro.cpu.workloads import WORKLOADS, get_workload
from repro.harness.system import build_system

DERANDOMIZED = settings(derandomize=True, max_examples=200, deadline=None)
#: For properties whose single example builds a full system (expensive).
DERANDOMIZED_SMALL = settings(derandomize=True, max_examples=6, deadline=None)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vectorized paths need numpy"
)

HOT_BASE = 1 << 30
COLD_BASE = 1 << 35


class _batch_env:
    """Pin ``REPRO_BATCH`` for a block, restoring the ambient value."""

    def __init__(self, batch: int):
        self.batch = batch

    def __enter__(self):
        self.previous = os.environ.get("REPRO_BATCH")
        os.environ["REPRO_BATCH"] = str(self.batch)

    def __exit__(self, *exc):
        if self.previous is None:
            os.environ.pop("REPRO_BATCH", None)
        else:
            os.environ["REPRO_BATCH"] = self.previous


# -- vectorized trace replay --------------------------------------------------


def _twin_generators(profile_index: int, seed: int):
    profile = WORKLOADS[profile_index]
    scalar = TraceGenerator(profile, HOT_BASE, COLD_BASE, seed=seed)
    vector = TraceGenerator(profile, HOT_BASE, COLD_BASE, seed=seed)
    return scalar, vector


class TestVectorTraceReplay:
    @needs_numpy
    @DERANDOMIZED
    @given(
        profile_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        seed=st.integers(min_value=0, max_value=1 << 16),
        sizes=st.lists(
            st.integers(min_value=1, max_value=257), min_size=1, max_size=3
        ),
    )
    def test_batches_replay_the_scalar_stream(self, profile_index, seed, sizes):
        scalar, vector = _twin_generators(profile_index, seed)
        replayer = VectorTraceReplayer(vector)
        for n in sizes:
            instr, addr, write = replayer.next_batch(n)
            expected = [scalar.next_record() for _ in range(n)]
            assert list(zip(instr, addr, write)) == [
                tuple(record) for record in expected
            ]
            # A completed batch leaves the generator positioned exactly
            # where scalar replay would: same RNG state, same cursor.
            assert vector._rng.getstate() == scalar._rng.getstate()
            assert vector._cold_cursor == scalar._cold_cursor

    @needs_numpy
    @DERANDOMIZED
    @given(
        profile_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        seed=st.integers(min_value=0, max_value=1 << 16),
        n=st.integers(min_value=1, max_value=200),
        data=st.data(),
    )
    def test_rewind_to_restores_any_record_boundary(
        self, profile_index, seed, n, data
    ):
        scalar, vector = _twin_generators(profile_index, seed)
        replayer = VectorTraceReplayer(vector)
        batch = replayer.next_batch(n)
        cut = data.draw(st.integers(min_value=0, max_value=n), label="cut")
        replayer.rewind_to(cut)
        # Scalar drains the whole batch; the rewound generator redraws
        # the tail from record ``cut`` — the streams must reconverge.
        records = [scalar.next_record() for _ in range(n)]
        tail = [tuple(vector.next_record()) for _ in range(n - cut)]
        assert tail == [tuple(record) for record in records[cut:]]
        assert vector._rng.getstate() == scalar._rng.getstate()

    @needs_numpy
    @DERANDOMIZED
    @given(
        profile_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        seed=st.integers(min_value=0, max_value=1 << 16),
        n=st.integers(min_value=1, max_value=120),
    )
    def test_rewind_to_record_zero_undoes_the_whole_batch(
        self, profile_index, seed, n
    ):
        # rewind_to(0) = "the batch never happened": the generator must
        # re-emit every record bit-identically to a fresh scalar twin.
        scalar, vector = _twin_generators(profile_index, seed)
        replayer = VectorTraceReplayer(vector)
        replayer.next_batch(n)
        replayer.rewind_to(0)
        assert vector._rng.getstate() == scalar._rng.getstate()
        assert vector._cold_cursor == scalar._cold_cursor
        redraw = [tuple(vector.next_record()) for _ in range(n)]
        assert redraw == [tuple(scalar.next_record()) for _ in range(n)]

    @needs_numpy
    @DERANDOMIZED
    @given(
        profile_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        seed=st.integers(min_value=0, max_value=1 << 16),
        n=st.integers(min_value=1, max_value=120),
    )
    def test_rewind_after_zero_length_batch(self, profile_index, seed, n):
        # A zero-length batch consumes nothing; rewinding to its only
        # boundary (0) must be a no-op, before and after real traffic.
        scalar, vector = _twin_generators(profile_index, seed)
        replayer = VectorTraceReplayer(vector)
        replayer.next_batch(0)
        replayer.rewind_to(0)
        assert vector._rng.getstate() == scalar._rng.getstate()
        stream = [tuple(vector.next_record()) for _ in range(n)]
        assert stream == [tuple(scalar.next_record()) for _ in range(n)]
        assert vector._cold_cursor == scalar._cold_cursor

    @needs_numpy
    @DERANDOMIZED
    @given(
        profile_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        seed=st.integers(min_value=0, max_value=1 << 16),
        n=st.integers(min_value=2, max_value=120),
        data=st.data(),
    )
    def test_double_rewind_to_same_boundary_is_idempotent(
        self, profile_index, seed, n, data
    ):
        # Rewinding twice to one boundary (fault handler retried) must
        # land on exactly the same generator state as rewinding once.
        scalar, vector = _twin_generators(profile_index, seed)
        replayer = VectorTraceReplayer(vector)
        replayer.next_batch(n)
        cut = data.draw(st.integers(min_value=0, max_value=n - 1), label="cut")
        replayer.rewind_to(cut)
        once = (vector._rng.getstate(), vector._cold_cursor)
        replayer.rewind_to(cut)
        assert (vector._rng.getstate(), vector._cold_cursor) == once
        records = [scalar.next_record() for _ in range(n)]
        tail = [tuple(vector.next_record()) for _ in range(n - cut)]
        assert tail == [tuple(record) for record in records[cut:]]
        assert vector._rng.getstate() == scalar._rng.getstate()


# -- fused batch execution core ----------------------------------------------


def _core_snapshot(batch, mac, workload, mem_ops, warmup, prefault=True):
    """Run one core window and capture everything it can touch.

    ``prefault=False`` leaves the trace's pages unmapped, so batched TLB
    misses take demand-paging faults mid-batch and retry the walk — the
    regime of the CLI experiments and the benchmark.
    """
    with _batch_env(batch):
        system = build_system(
            ptguard=optimized_ptguard_config(), mac_algorithm=mac, seed=2023
        )
        process, trace = system.workload_process(
            get_workload(workload), seed=11
        )
        core = system.new_core(process)
        if prefault:
            core.prefault(trace)
        result = core.run(trace, mem_ops=mem_ops, warmup_ops=warmup)
        guard = system.controller.ptguard
        return {
            "result": result,
            "cycles": core.cycles,
            "instructions": core.instructions,
            "hierarchy_cycle": core.hierarchy.cycle,
            "hier": core.hierarchy.stats.as_dict(),
            "l1": core.hierarchy.l1.stats.as_dict(),
            "l2": core.hierarchy.l2.stats.as_dict(),
            "l3": core.hierarchy.l3.stats.as_dict(),
            "mmu": core.walker.mmu_cache.stats.as_dict(),
            "tlb": core.walker.tlb.stats.as_dict(),
            "walker": core.walker.stats.as_dict(),
            "engine": guard.engine.stats.as_dict(),
            "computations": guard.engine.computations,
            "kernel": system.kernel.stats.as_dict(),
            "rng": trace._rng.getstate(),
            "tail": [tuple(trace.next_record()) for _ in range(3)],
        }


class TestBatchedCore:
    @needs_numpy
    @DERANDOMIZED_SMALL
    @given(
        mac=st.sampled_from(["pseudo", "blake2"]),
        workload=st.sampled_from(["xalancbmk", "povray"]),
        mem_ops=st.integers(min_value=1, max_value=400),
        warmup=st.integers(min_value=0, max_value=120),
        batch=st.sampled_from([2, 7, 64, 4096]),
        prefault=st.booleans(),
    )
    def test_line_ops_counters_and_results_match_scalar(
        self, mac, workload, mem_ops, warmup, batch, prefault
    ):
        scalar = _core_snapshot(1, mac, workload, mem_ops, warmup, prefault)
        batched = _core_snapshot(batch, mac, workload, mem_ops, warmup, prefault)
        assert batched == scalar

    @needs_numpy
    def test_walk_heavy_profile_matches_scalar(self):
        # The synthetic TLB-thrashing profile misses the TLB on nearly
        # every access, so nearly every batched record leaves the fused
        # loop for the scalar walker: prefaulted, each walk completes;
        # demand-paged, first touches fault mid-batch and retry. Under
        # qarma every walked PTE line pays the scalar MAC.
        for mac in ("blake2", "qarma"):
            for prefault in (True, False):
                scalar = _core_snapshot(1, mac, "walkheavy", 400, 0, prefault)
                batched = _core_snapshot(4096, mac, "walkheavy", 400, 0, prefault)
                assert batched == scalar, (mac, prefault)


# -- sampled batched-vs-scalar differential oracle ----------------------------


class TestReplayOracle:
    """Under ``--validate`` the batch core arms a sampled differential
    oracle (``cpu/batch_core.TraceReplayOracle``) that re-draws every
    Nth batch with an independent scalar generator clone."""

    def _validated(self):
        from repro.faults import invariants

        invariants.set_validation(True)
        return invariants

    @needs_numpy
    def test_clean_run_is_checked_and_silent(self):
        from repro.cpu import batch_core

        invariants = self._validated()
        try:
            before = dict(batch_core.ORACLE_STATS.as_dict())
            snapshot = _core_snapshot(64, "pseudo", "povray", 500, 100)
        finally:
            invariants.set_validation(None)
        after = batch_core.ORACLE_STATS.as_dict()
        assert after.get("batches_checked", 0) > before.get("batches_checked", 0)
        assert after.get("violations", 0) == before.get("violations", 0)
        # The oracle's clone never touches the live generator: the
        # validated run is bit-identical to the unvalidated scalar one.
        assert snapshot == _core_snapshot(1, "pseudo", "povray", 500, 100)

    @needs_numpy
    def test_corrupted_batch_is_caught(self):
        from repro.common.errors import InvariantViolation
        from repro.cpu.batch_core import TraceReplayOracle

        trace = TraceGenerator(WORKLOADS[0], HOT_BASE, COLD_BASE, seed=7)
        oracle = TraceReplayOracle(trace)
        replayer = VectorTraceReplayer(trace)
        before = oracle.snapshot()
        instr, addr, write = replayer.next_batch(32)
        addr = list(addr)
        addr[5] ^= 64  # one mis-parsed address in an otherwise good batch
        with pytest.raises(InvariantViolation, match="batched record 5"):
            oracle.verify(before, (instr, addr, write))

    @needs_numpy
    def test_post_batch_state_divergence_is_caught(self):
        from repro.common.errors import InvariantViolation
        from repro.cpu.batch_core import TraceReplayOracle

        trace = TraceGenerator(WORKLOADS[0], HOT_BASE, COLD_BASE, seed=7)
        oracle = TraceReplayOracle(trace)
        replayer = VectorTraceReplayer(trace)
        before = oracle.snapshot()
        batch = replayer.next_batch(32)
        trace.next_record()  # live generator drifts past the batch boundary
        with pytest.raises(InvariantViolation, match="state diverged"):
            oracle.verify(before, batch)


# -- chaos + validate campaign through the batched core -----------------------


class TestChaosValidateCampaign:
    """Fault injection, ``--validate`` invariants and recovery must all
    operate (and agree with the scalar path) under batching: campaign
    cells inject mid-trial faults — exceptions unwind the fused loop —
    while the runtime invariant checker cross-checks every outcome."""

    SCENARIOS = ("pte_single", "mac_single", "burst")
    TRIALS = 6

    def _campaign(self, batch, workers=1, cache=None, policy=None):
        from repro.analysis.fault_matrix import (
            format_fault_matrix,
            run_fault_matrix,
        )
        from repro.harness.parallel import execution_policy, get_execution_policy
        from repro.recovery.policy import recovery_policy

        with _batch_env(batch):
            with execution_policy(policy or get_execution_policy()):
                result = run_fault_matrix(
                    scenarios=self.SCENARIOS,
                    trials_per_cell=self.TRIALS,
                    validate=True,
                    workers=workers,
                    cache=cache,
                    recovery=recovery_policy("full").as_params(),
                )
        return format_fault_matrix(result)

    def test_batched_campaign_matches_scalar(self):
        assert self._campaign(4096) == self._campaign(1)

    def test_chaotic_pooled_campaign_matches_serial_batched(self, tmp_path):
        from repro.harness.chaos import ChaosPolicy
        from repro.harness.parallel import ExecutionPolicy, ResultCache

        serial = self._campaign(4096)
        chaotic = self._campaign(
            4096,
            workers=2,
            cache=ResultCache(tmp_path),
            policy=ExecutionPolicy(
                retries=4,
                backoff_base_s=0.0,
                backoff_cap_s=0.0,
                chaos=ChaosPolicy(seed=5, kill=0.3, corrupt=0.2),
            ),
        )
        assert chaotic == serial
