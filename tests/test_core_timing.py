"""Tests for the in-order core timing model (kept small but meaningful)."""

import pytest

from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.cpu.workloads import get_workload
from repro.harness.system import build_system


def run(workload, guard_config=None, mem_ops=8000, warmup=12000, seed=1):
    system = build_system(ptguard=guard_config, mac_algorithm="pseudo", seed=seed)
    process, trace = system.workload_process(get_workload(workload), seed=seed)
    core = system.new_core(process)
    core.prefault(trace)
    return core.run(trace, mem_ops=mem_ops, warmup_ops=warmup)


@pytest.fixture(scope="module")
def xalanc_base():
    return run("xalancbmk")


@pytest.fixture(scope="module")
def xalanc_guarded():
    return run("xalancbmk", PTGuardConfig())


class TestBaselinePlausibility:
    def test_ipc_below_one(self, xalanc_base):
        assert 0.01 < xalanc_base.ipc < 1.0

    def test_mpki_in_target_zone(self, xalanc_base):
        target = get_workload("xalancbmk").target_mpki
        assert 0.5 * target <= xalanc_base.llc_mpki <= 1.8 * target

    def test_low_mpki_workload_much_faster(self, xalanc_base):
        quiet = run("povray")
        assert quiet.ipc > 1.5 * xalanc_base.ipc
        assert quiet.llc_mpki < 0.2 * xalanc_base.llc_mpki

    def test_tlb_misses_drive_walks(self, xalanc_base):
        assert xalanc_base.walks > 0
        assert xalanc_base.walks <= xalanc_base.tlb_misses + 1

    def test_some_walks_reach_dram(self, xalanc_base):
        assert xalanc_base.walk_dram_reads > 0
        # but most are filtered by the MMU cache + data caches
        assert xalanc_base.walk_dram_reads < xalanc_base.dram_reads


class TestGuardTiming:
    def test_guard_slows_memory_bound_workload(self, xalanc_base, xalanc_guarded):
        assert xalanc_guarded.cycles > xalanc_base.cycles
        slowdown = xalanc_base.ipc / xalanc_guarded.ipc - 1
        assert 0.005 < slowdown < 0.10  # Fig 6 regime (paper: 3.6%)

    def test_same_work_performed(self, xalanc_base, xalanc_guarded):
        assert xalanc_guarded.instructions == xalanc_base.instructions
        assert xalanc_guarded.mem_ops == xalanc_base.mem_ops

    def test_optimized_cheaper_than_baseline_guard(self, xalanc_base, xalanc_guarded):
        optimized = run("xalancbmk", optimized_ptguard_config())
        slow_base = xalanc_base.ipc / xalanc_guarded.ipc - 1
        slow_opt = xalanc_base.ipc / optimized.ipc - 1
        assert slow_opt < slow_base
        assert slow_opt < 0.02  # paper: 0.4% worst case

    def test_mac_latency_scales_slowdown(self, xalanc_base):
        slow = run("xalancbmk", PTGuardConfig(mac_latency_cycles=20))
        fast = run("xalancbmk", PTGuardConfig(mac_latency_cycles=5))
        assert (xalanc_base.ipc / slow.ipc) > (xalanc_base.ipc / fast.ipc)

    def test_quiet_workload_barely_affected(self):
        base = run("povray")
        guarded = run("povray", PTGuardConfig())
        slowdown = base.ipc / guarded.ipc - 1
        assert slowdown < 0.01  # paper: <1% below 5 MPKI


class TestNumpyFree:
    """The simulator runs on the standard library alone; numpy is only
    the perfbench tracer's (``cpu/trace_vector.py``)."""

    def _python(self, code):
        import os
        import pathlib
        import subprocess
        import sys

        source = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )

    def test_cli_import_leaves_numpy_unloaded(self):
        done = self._python(
            "import sys\n"
            "import repro.harness.experiments, repro.service, repro.analysis.frontier_eval\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_core_window_runs_without_numpy(self):
        done = self._python(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.cpu.workloads import get_workload\n"
            "from repro.harness.system import build_system\n"
            "system = build_system(mac_algorithm='pseudo')\n"
            "process, trace = system.workload_process(get_workload('povray'), seed=1)\n"
            "result = system.new_core(process).run(trace, mem_ops=50)\n"
            "print(result.mem_ops)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "50"
