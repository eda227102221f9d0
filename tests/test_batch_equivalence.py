"""The fused core loop is bit-identical to the per-access reference.

Derandomized hypothesis property tests (same discipline as
``test_property_roundtrips.py``: the example sequence is a pure function
of the test code, so CI runs are byte-for-byte repeatable) covering
``InOrderCore.run`` against :func:`_reference_run` (one ``_execute`` per
record), prefaulted and demand-paged, a mid-window integrity failure,
and a chaos+validate fault-injection campaign. ``TestVectorTraceReplay``
covers ``cpu/trace_vector.py``, which only the perfbench tracer uses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.cpu.trace import TraceGenerator, region_pages
from repro.cpu.trace_vector import HAVE_NUMPY, VectorTraceReplayer
from repro.cpu.workloads import WORKLOADS, get_workload
from repro.harness.system import build_system
from repro.mmu.walker import PTEIntegrityException

DERANDOMIZED = settings(derandomize=True, max_examples=200, deadline=None)
#: For properties whose single example builds a full system (expensive).
DERANDOMIZED_SMALL = settings(derandomize=True, max_examples=6, deadline=None)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vectorized paths need numpy"
)

HOT_BASE = 1 << 30
COLD_BASE = 1 << 35


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


# -- the fused core loop -------------------------------------------------------


def _reference_run(core, trace, mem_ops, warmup_ops=0):
    """The per-access loop ``InOrderCore.run`` must match: one
    ``_execute`` per record, every counter updated in place."""
    for _ in range(warmup_ops):
        record = trace.next_record()
        core._execute(record.virtual_address, record.is_write)
    start_cycles, start_instructions = core._reset_window()
    for _ in range(mem_ops):
        instructions, virtual_address, is_write = trace.next_record()
        core.instructions += instructions + 1  # +1 for the mem op
        core.cycles += instructions
        core._execute(virtual_address, is_write, timed=True)
    core.mem_ops += mem_ops
    return core._result(start_cycles, start_instructions)


def _fused_run(core, trace, mem_ops, warmup_ops=0):
    return core.run(trace, mem_ops=mem_ops, warmup_ops=warmup_ops)


def _boot(mac, workload, prefault, ptguard=None):
    system = build_system(
        ptguard=ptguard or optimized_ptguard_config(), mac_algorithm=mac, seed=2023
    )
    process, trace = system.workload_process(get_workload(workload), seed=11)
    core = system.new_core(process)
    if prefault:
        core.prefault(trace)
    return system, process, core, trace


def _state(system, core, trace):
    """Everything a core window can touch."""
    guard = system.controller.ptguard
    return {
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


def _core_snapshot(run, mac, workload, mem_ops, warmup, prefault=True):
    """Run one core window with ``run`` and capture its result and state.

    ``prefault=False`` leaves the trace's pages unmapped, so TLB misses
    take demand-paging faults mid-window and retry the walk — the
    regime of the CLI experiments and the benchmark.
    """
    system, _process, core, trace = _boot(mac, workload, prefault)
    result = run(core, trace, mem_ops, warmup)
    return {"result": result, **_state(system, core, trace)}


def _failing_snapshot(run):
    """Corrupt every 64th leaf PTE line of the cold region in DRAM, with
    correction off, so a timed walk raises ``PTEIntegrityException``."""
    system, process, core, trace = _boot(
        "blake2", "walkheavy", True, PTGuardConfig(correction_enabled=False)
    )
    core.hierarchy.flush()
    cold_lines = sorted(
        {
            process.page_table.leaf_entry_address(va) & ~63
            for va in region_pages(trace.regions)
            if va >= trace.regions.cold_base
        }
    )
    for line in cold_lines[::64]:
        system.memory.flip_bits(line, (3, 17))
    with pytest.raises(PTEIntegrityException):
        run(core, trace, 400, 50)
    return _state(system, core, trace)


class TestBatchedCore:
    @DERANDOMIZED_SMALL
    @given(
        mac=st.sampled_from(["pseudo", "blake2"]),
        workload=st.sampled_from(["xalancbmk", "povray"]),
        mem_ops=st.integers(min_value=1, max_value=400),
        warmup=st.integers(min_value=0, max_value=120),
        prefault=st.booleans(),
    )
    def test_line_ops_counters_and_results_match_scalar(
        self, mac, workload, mem_ops, warmup, prefault
    ):
        reference = _core_snapshot(_reference_run, mac, workload, mem_ops, warmup, prefault)
        fused = _core_snapshot(_fused_run, mac, workload, mem_ops, warmup, prefault)
        assert fused == reference

    def test_walk_heavy_profile_matches_scalar(self):
        # The synthetic TLB-thrashing profile misses the TLB on nearly
        # every access, so nearly every record leaves the inline path for
        # the page walker: prefaulted, each walk completes; demand-paged,
        # first touches fault and retry. Under qarma every walked PTE
        # line pays the MAC.
        for mac in ("blake2", "qarma"):
            for prefault in (True, False):
                reference = _core_snapshot(_reference_run, mac, "walkheavy", 400, 0, prefault)
                fused = _core_snapshot(_fused_run, mac, "walkheavy", 400, 0, prefault)
                assert fused == reference, (mac, prefault)

    def test_mid_window_integrity_failure_leaves_reference_state(self):
        # The failing record was drawn before it ran: the trace stands
        # just after it, its front-end charge is applied and every
        # locally accumulated counter is flushed, as in the reference.
        reference = _failing_snapshot(_reference_run)
        fused = _failing_snapshot(_fused_run)
        assert reference["instructions"] > 0, "must fail inside the timed window"
        assert fused == reference


# -- chaos + validate campaign ------------------------------------------------


class TestChaosValidateCampaign:
    """Fault injection, ``--validate`` invariants and recovery must give
    one report serially and on a chaotic process pool: campaign cells
    inject mid-trial faults while the runtime invariant checker
    cross-checks every outcome."""

    SCENARIOS = ("pte_single", "mac_single", "burst")
    TRIALS = 6

    def _campaign(self, workers=1, cache=None, policy=None):
        from repro.analysis.fault_matrix import (
            format_fault_matrix,
            run_fault_matrix,
        )
        from repro.harness.parallel import execution_policy, get_execution_policy
        from repro.recovery.policy import recovery_policy

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

    def test_chaotic_pooled_campaign_matches_serial_batched(self, tmp_path):
        from repro.harness.chaos import ChaosPolicy
        from repro.harness.parallel import ExecutionPolicy, ResultCache

        serial = self._campaign()
        chaotic = self._campaign(
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
