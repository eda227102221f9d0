"""Runner ``--serve`` mode: exit codes and messages, via subprocess.

Exit-code contract (sysexits-flavoured): 0 success, 1 experiment
failure, 2 usage error, 75 = EX_TEMPFAIL for transient service-side
refusals — admission control (rate limit, full queue) and an open
circuit with degraded fallback disabled. 75 tells retry loops "the same
command later should succeed", which neither 1 nor 2 does; the stderr
line carries the typed reason and a retry hint.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.harness.parallel import SweepJournal

SCALE_ARGS = ["--scale", "0.25", "--workloads", "povray,xz"]


def _run(tmp_path, extra, experiment="fig6"):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_SUPERVISED", None)
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.harness.runner",
            experiment,
            *SCALE_ARGS,
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestServeHappyPath:
    def test_serve_runs_experiment_and_reports_tenant(self, tmp_path):
        result = _run(tmp_path, ["--serve", "--tenant", "alice"])
        assert result.returncode == 0, result.stderr
        assert "slowdown by workload" in result.stdout
        assert "tenant=alice" in result.stderr
        assert "[service health: ok" in result.stderr
        # The tenant's private cache subtree was populated.
        tenant_dir = tmp_path / "cache" / "tenants" / "alice"
        assert list(tenant_dir.glob("??/*.json"))

    def test_serve_report_matches_direct_mode(self, tmp_path):
        served = _run(tmp_path, ["--serve"])
        direct = _run(tmp_path, [])
        assert served.returncode == 0 and direct.returncode == 0

        def _report(stdout):
            return "\n".join(
                line
                for line in stdout.splitlines()
                if not (line.startswith("[") and line.endswith("]"))
            )

        assert _report(served.stdout) == _report(direct.stdout)


class TestTempfail:
    def test_rate_limited_exits_75_with_retry_hint(self, tmp_path):
        result = _run(tmp_path, ["--serve", "--rate", "0:0"])
        assert result.returncode == 75
        assert "temporarily unavailable (rate_limited)" in result.stderr
        assert "EX_TEMPFAIL" in result.stderr
        assert "retry" in result.stderr

    def test_circuit_open_fail_fast_exits_75(self, tmp_path):
        result = _run(
            tmp_path,
            [
                "--serve",
                "--no-degraded",
                "--breaker-threshold",
                "1",
                "--chaos",
                "seed=7,kill=1.0",
                "--retries",
                "0",
            ],
        )
        assert result.returncode == 75
        assert "temporarily unavailable (circuit_open)" in result.stderr
        assert "retry in" in result.stderr

    def test_degraded_fallback_beats_tempfail_by_default(self, tmp_path):
        # Same chaos, but degraded fallback on (the default): the service
        # reroutes to in-process execution and still succeeds.
        result = _run(
            tmp_path,
            ["--serve", "--chaos", "seed=7,kill=1.0", "--retries", "0"],
        )
        assert result.returncode == 0, result.stderr
        assert "degraded=True" in result.stderr


def _report(stdout):
    """Strip bracketed status lines; what's left is the report proper."""
    return "\n".join(
        line
        for line in stdout.splitlines()
        if not (line.startswith("[") and line.endswith("]"))
    )


def _duplicate_journal_keys(cache_root):
    """job_done keys logged more than once across all sweep journals."""
    duplicates = []
    completions = 0
    for journal in cache_root.rglob("journals/*.jsonl"):
        seen = set()
        for entry in SweepJournal.load(journal):
            if entry["event"] != "job_done":
                continue
            completions += 1
            if entry["key"] in seen:
                duplicates.append((journal.name, entry["key"]))
            seen.add(entry["key"])
    # No journal records at all would make "no duplicates" vacuous.
    assert completions > 0, f"no job_done records under {cache_root}"
    return duplicates


class TestDurableServe:
    """--state-dir crash recovery, end to end through real processes."""

    def test_sigkill_then_restart_resumes_byte_identical(self, tmp_path):
        durable = [
            "--serve",
            "--state-dir",
            str(tmp_path / "state"),
        ]
        # The crash channel SIGKILLs the serving process mid-sweep, at a
        # seed-addressed cell: a real signal death, not an exception.
        crashed = _run(
            tmp_path, [*durable, "--service-chaos", "seed=7,crash=1.0"]
        )
        assert crashed.returncode == -9, crashed.stderr
        assert (tmp_path / "state" / "service.wal").exists()

        # Restart against the same state dir, chaos off: the WAL replay
        # re-adopts the interrupted sweep and the run completes.
        restarted = _run(tmp_path, durable)
        assert restarted.returncode == 0, restarted.stderr
        assert "'recovered': 1" in restarted.stderr
        assert "durability=durable" in restarted.stderr

        # Byte-identical to a quiet uninterrupted run...
        direct = _run(tmp_path / "fresh", ["--serve"])
        assert direct.returncode == 0, direct.stderr
        assert _report(restarted.stdout) == _report(direct.stdout)
        # ...and exactly-once at the journal level: no cell was ever
        # recorded done twice, crash and recovery included.
        assert _duplicate_journal_keys(tmp_path / "cache") == []

    def test_supervised_serve_converges_under_persistent_crashes(
        self, tmp_path
    ):
        # Chaos stays on across restarts; every attempt still banks its
        # completed cells in the content-addressed cache, so the missing
        # set shrinks below the crash point and the run converges.
        result = _run(
            tmp_path,
            [
                "--serve",
                "--state-dir",
                str(tmp_path / "state"),
                "--service-chaos",
                "seed=7,crash=1.0",
                "--supervise",
                "--max-restarts",
                "8",
            ],
        )
        assert result.returncode == 0, result.stderr
        assert "[supervisor: watching" in result.stderr
        assert "restart(s), exit 0]" in result.stderr
        assert "slowdown by workload" in result.stdout


class TestUsageErrors:
    def test_serve_with_no_cache_is_usage_error(self, tmp_path):
        result = _run(tmp_path, ["--serve", "--no-cache"])
        assert result.returncode == 2
        assert "per-tenant caches" in result.stderr

    def test_rate_without_serve_is_usage_error(self, tmp_path):
        result = _run(tmp_path, ["--rate", "4:1"])
        assert result.returncode == 2

    def test_bad_rate_spec_is_usage_error(self, tmp_path):
        result = _run(tmp_path, ["--serve", "--rate", "fast"])
        assert result.returncode == 2
        assert "CAP:REFILL" in result.stderr

    def test_unknown_backend_is_usage_error(self, tmp_path):
        result = _run(tmp_path, ["--backend", "quantum"])
        assert result.returncode == 2
        assert "unknown backend" in result.stderr

    def test_state_dir_without_serve_is_usage_error(self, tmp_path):
        result = _run(tmp_path, ["--state-dir", str(tmp_path / "state")])
        assert result.returncode == 2

    def test_supervise_without_state_dir_is_usage_error(self, tmp_path):
        result = _run(tmp_path, ["--serve", "--supervise"])
        assert result.returncode == 2
        assert "--state-dir" in result.stderr

    def test_bad_service_chaos_spec_is_usage_error(self, tmp_path):
        result = _run(
            tmp_path, ["--serve", "--service-chaos", "seed=7,crash=2.0"]
        )
        assert result.returncode == 2


class TestBackendFlagDirectMode:
    def test_explicit_backend_produces_same_report(self, tmp_path):
        threaded = _run(tmp_path, ["--backend", "threaded", "--workers", "2"])
        default = _run(tmp_path, ["--workers", "2"])
        assert threaded.returncode == 0, threaded.stderr
        assert default.returncode == 0, default.stderr

        def _report(stdout):
            return "\n".join(
                line
                for line in stdout.splitlines()
                if not (line.startswith("[") and line.endswith("]"))
            )

        assert _report(threaded.stdout) == _report(default.stdout)
