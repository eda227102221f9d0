"""Equivalence matrix: every execution path must print the golden report.

PT-Guard checks each page-table line against a stored MAC instead of
trusting it because another copy agrees. This driver applies the same
rule to the reproduction's execution paths: each point of the table
below runs ``ptguard-repro`` down one choice of path and checks the
sha256 of its report against the digest stored for that report in
``ci/golden_digests.json``. A drift that hits two paths the same way
still misses the golden digest.

The path axes (``AXES``):

* boot -- ``snapshot`` (the default) or ``cold`` (``REPRO_BOOT_SNAPSHOT=0``);
* backend -- ``inprocess`` or ``process-pool``;
* cache -- ``cold`` (``--no-cache``), ``warm`` (run, then rerun against
  the filled cache), ``resumed`` (``--chaos abort_after`` exits 130,
  then ``--resume``) or ``recovered`` (``--serve`` under
  ``--service-chaos crash=1.0`` is SIGKILLed, exits 137 and restarts
  against its state dir; then a fresh ``--supervise`` run).

``POINTS`` covers every pair of axis values at least once. A report is
the runner's stdout without its ``[...]`` timing/status lines.
Besides its digest, each report must meet its experiment's
``EXPECTATIONS``, and the cache modes check their own side effects; a
run on an empty cache also checks its stderr count of fresh simulations
against ``FRESH_SIMULATIONS``.
The run stops at the first miss and prints the point, the expected
digest and the actual one; the stripped report goes to
``ci/failed_report.txt``. A report with no golden entry also fails,
printing the digest to record. Usage, from anywhere::

    python ci/equivalence_matrix.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "ci" / "golden_digests.json"
FAILED_REPORT_PATH = REPO / "ci" / "failed_report.txt"

# Report identities: the runner arguments that fix a report's bytes.
FIG6 = "fig6 --scale 0.25"
WALK = "fig6 --scale 0.25 --workloads walkheavy,xalancbmk"
SERVED = "fig6 --scale 0.25 --workloads povray,xz"
# The MAC-latency sweep: every cell is priced from a latency basis.
FIG7 = "fig7 --scale 0.25"
CAMPAIGN = "campaign --scale 0.25 --validate"
SIEGE = "siege --scale 0.25 --validate"
FRONTIER = "frontier --scale 0.25 --validate"
# ``--validate`` boots every cell cold; these two run the siege cells'
# snapshot boot (restored from the memo and, across pool workers, from
# the disk tier) and must print the validated reports byte for byte.
SIEGE_SNAPSHOT = "siege --scale 0.25"
FRONTIER_SNAPSHOT = "frontier --scale 0.25"

# Simulations a run of the report takes on an empty cache, read from the
# runner's stderr status line: one latency basis per workload prices all
# of its cells. A change that splits a run's basis again fails here.
FRESH_SIMULATIONS: Dict[str, int] = {FIG6: 25, WALK: 2}

AXES: Dict[str, Tuple[str, ...]] = {
    "boot": ("snapshot", "cold"),
    "backend": ("inprocess", "process-pool"),
    "cache": ("cold", "warm", "resumed", "recovered"),
}

# inprocess ignores abort_after on purpose (there is no carrier to
# interrupt), so a resumed in-process point is interrupted on this one.
INTERRUPT_CARRIER = "process-pool"
ABORT_CHAOS = "seed=1,abort_after=2"
CRASH_CHAOS = "seed=7,crash=1.0"
MAX_RESTARTS = "8"
RUN_TIMEOUT_S = 900


@dataclass(frozen=True)
class Point:
    identity: str
    boot: str
    backend: str
    cache: str

    def __str__(self) -> str:
        return (
            f"[{self.identity}] boot={self.boot} "
            f"backend={self.backend} cache={self.cache}"
        )


POINTS: Tuple[Point, ...] = (
    Point(FIG6, "cold", "inprocess", "cold"),
    Point(FIG6, "snapshot", "process-pool", "cold"),
    Point(WALK, "cold", "inprocess", "warm"),
    Point(WALK, "cold", "process-pool", "warm"),
    Point(FRONTIER, "snapshot", "inprocess", "warm"),
    Point(SERVED, "cold", "inprocess", "resumed"),
    Point(CAMPAIGN, "cold", "process-pool", "resumed"),
    Point(SIEGE, "snapshot", "inprocess", "resumed"),
    Point(SERVED, "snapshot", "inprocess", "recovered"),
    Point(SERVED, "cold", "process-pool", "recovered"),
    Point(CAMPAIGN, "snapshot", "inprocess", "cold"),
    Point(SIEGE, "cold", "process-pool", "warm"),
    Point(FRONTIER, "cold", "process-pool", "cold"),
    Point(SERVED, "snapshot", "process-pool", "warm"),
    Point(SIEGE_SNAPSHOT, "snapshot", "process-pool", "cold"),
    Point(FRONTIER_SNAPSHOT, "snapshot", "process-pool", "cold"),
    Point(FIG7, "snapshot", "inprocess", "cold"),
    Point(FIG7, "cold", "process-pool", "warm"),
    Point(FIG7, "snapshot", "process-pool", "resumed"),
)


def _contains(text: str) -> Tuple[str, Callable[[str], bool]]:
    return f"report contains {text!r}", lambda report: text in report


def _lacks(text: str) -> Tuple[str, Callable[[str], bool]]:
    return f"report lacks {text!r}", lambda report: text not in report


def _weakest_policy_broken(report: str) -> bool:
    """The policy named weakest carries BROKEN in its ranked row."""
    match = re.search(r"weakest=([a-z_]+)", report)
    if match is None:
        return False
    row = re.compile(rf"^[0-9]+ +{re.escape(match.group(1))} ", re.MULTILINE)
    rows = [line for line in report.splitlines() if row.match(line)]
    return bool(rows) and all(
        "BROKEN" in line and "SURVIVES" not in line for line in rows
    )


EXPECTATIONS: Dict[str, List[Tuple[str, Callable[[str], bool]]]] = {
    CAMPAIGN: [_contains("0 silent corruptions (detection guarantee: 0)")],
    SIEGE: [
        _contains("silent corruptions: 0 (zero-silent-corruption guarantee holds)"),
        _lacks("GUARANTEE VIOLATED"),
    ],
    FRONTIER: [("weakest frontier policy is BROKEN", _weakest_policy_broken)],
}


class Miss(Exception):
    """A point missed an expectation; ``report`` is its stripped stdout."""

    def __init__(self, message: str, report: str = ""):
        super().__init__(message)
        self.report = report


def strip_report(stdout: str) -> str:
    """The report without its ``[...]`` timing/status lines."""
    return "".join(
        line for line in stdout.splitlines(keepends=True) if not line.startswith("[")
    )


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def point_env(point: Point, cache_dir: pathlib.Path) -> Dict[str, str]:
    """A clean environment: no inherited ``REPRO_*`` knob, the point's
    boot choice, and a private cache (results and snapshots)."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    source = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    if point.boot == "cold":
        env["REPRO_BOOT_SNAPSHOT"] = "0"
    return env


class Runner:
    """Runs one point's commands and checks what they print."""

    def __init__(self, point: Point, golden: Dict[str, str], root: pathlib.Path):
        self.point = point
        self.golden = golden
        self.cache_dir = root / "cache"
        self.state_dir = root / "state"
        self.env = point_env(point, self.cache_dir)
        self.stderr = ""

    def run(
        self,
        step: str,
        extra: Sequence[str],
        expect_code: int = 0,
        backend: Optional[str] = None,
    ) -> str:
        command = [
            sys.executable, "-m", "repro.harness.runner",
            *self.point.identity.split(),
            "--workers", "2",
            "--backend", backend or self.point.backend,
            *extra,
        ]
        try:
            done = subprocess.run(
                command, env=self.env, cwd=REPO, capture_output=True, text=True,
                timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise Miss(f"{step}: still running after {RUN_TIMEOUT_S}s") from None
        report = strip_report(done.stdout)
        self.stderr = done.stderr
        # A signal-killed child reads -N here and 128+N in a shell.
        code = 128 - done.returncode if done.returncode < 0 else done.returncode
        if code != expect_code:
            tail = "\n".join(done.stderr.splitlines()[-15:])
            raise Miss(
                f"{step}: exit {code}, expected {expect_code}\n"
                f"  command: {' '.join(command[1:])}\n{tail}",
                report,
            )
        return report

    def check(self, step: str, report: str) -> None:
        expected = self.golden.get(self.point.identity)
        actual = digest(report)
        if expected is None:
            raise Miss(
                f"{step}: no golden digest for {self.point.identity!r}; "
                f"record \"{self.point.identity}\": \"{actual}\" in "
                f"{GOLDEN_PATH.relative_to(REPO)} once the report is right",
                report,
            )
        if actual != expected:
            raise Miss(
                f"{step}: report digest mismatch\n"
                f"  expected {expected}\n  actual   {actual}",
                report,
            )
        for description, holds in EXPECTATIONS.get(self.point.identity, ()):
            if not holds(report):
                raise Miss(f"{step}: expected {description}", report)

    def run_and_check(self, step: str, extra: Sequence[str]) -> None:
        self.check(step, self.run(step, extra))

    def check_fresh(self, step: str) -> None:
        """On an empty cache: the run simulated what FRESH_SIMULATIONS says."""
        expected = FRESH_SIMULATIONS.get(self.point.identity)
        if expected is None:
            return
        fresh = fresh_simulations(self.point.identity.split()[0], self.stderr)
        if fresh != expected:
            raise Miss(
                f"{step}: {fresh} fresh simulation(s), expected {expected} "
                "(one latency basis per workload)"
            )

    def cache_files(self) -> List[str]:
        return sorted(
            str(path.relative_to(self.cache_dir))
            for path in self.cache_dir.rglob("*")
            if path.is_file()
        )


def fresh_simulations(experiment: str, stderr: str) -> Optional[int]:
    """N of the runner's ``[<experiment> fabric: N fresh ...]`` status
    line, or None when it printed none."""
    match = re.search(
        rf"^\[{re.escape(experiment)} fabric: (\d+) fresh", stderr, re.MULTILINE
    )
    return int(match.group(1)) if match else None


def run_cold(runner: Runner) -> None:
    runner.run_and_check("cold run", ["--no-cache"])
    runner.check_fresh("cold run")


def run_warm(runner: Runner) -> None:
    runner.run_and_check("filling run", [])
    runner.check_fresh("filling run")
    before = runner.cache_files()
    runner.run_and_check("warm rerun", [])
    added = sorted(set(runner.cache_files()) - set(before))
    if added:
        raise Miss(f"warm rerun: added {len(added)} cache file(s), e.g. {added[0]}")


def run_resumed(runner: Runner) -> None:
    carrier = (
        INTERRUPT_CARRIER if runner.point.backend == "inprocess" else runner.point.backend
    )
    runner.run(
        "interrupted run", ["--chaos", ABORT_CHAOS], expect_code=130, backend=carrier
    )
    runner.run_and_check("resumed run", ["--resume"])


def journal_completions(cache_dir: pathlib.Path) -> int:
    """Count ``job_done`` records in every sweep journal under
    ``cache_dir``; raise on a key recorded done twice in one journal."""
    completions = 0
    for journal in sorted(cache_dir.rglob("journals/*.jsonl")):
        seen = set()
        for line in journal.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)["rec"]
            except (ValueError, KeyError, TypeError):
                continue  # a torn tail; replay skips it the same way
            if record.get("event") != "job_done":
                continue
            completions += 1
            if record["key"] in seen:
                raise Miss(f"journal {journal.name} records {record['key']} done twice")
            seen.add(record["key"])
    return completions


def run_recovered(runner: Runner) -> None:
    serve = ["--serve", "--state-dir", str(runner.state_dir)]
    runner.run(
        "SIGKILLed serve", [*serve, "--service-chaos", CRASH_CHAOS], expect_code=137
    )
    if not (runner.state_dir / "service.wal").is_file():
        raise Miss("SIGKILLed serve: left no service.wal behind")
    runner.run_and_check("restarted serve", serve)
    if journal_completions(runner.cache_dir) == 0:
        raise Miss("restarted serve: no job_done record in any sweep journal")
    supervised = Runner(runner.point, runner.golden, runner.cache_dir.parent / "supervised")
    supervised.run_and_check(
        "supervised serve",
        [
            "--serve", "--state-dir", str(supervised.state_dir),
            "--service-chaos", CRASH_CHAOS,
            "--supervise", "--max-restarts", MAX_RESTARTS,
        ],
    )
    journal_completions(supervised.cache_dir)


CACHE_MODES: Dict[str, Callable[[Runner], None]] = {
    "cold": run_cold,
    "warm": run_warm,
    "resumed": run_resumed,
    "recovered": run_recovered,
}


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main() -> int:
    golden = load_golden()
    started = time.monotonic()
    for number, point in enumerate(POINTS, 1):
        point_start = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="ptguard-matrix-") as scratch:
            try:
                CACHE_MODES[point.cache](Runner(point, golden, pathlib.Path(scratch)))
            except Miss as miss:
                FAILED_REPORT_PATH.write_text(miss.report, encoding="utf-8")
                print(f"MISS at point {number}/{len(POINTS)} {point}\n  {miss}")
                print(f"stripped report written to {FAILED_REPORT_PATH.relative_to(REPO)}")
                return 1
        print(
            f"ok   {number:2d}/{len(POINTS)} {point} "
            f"({time.monotonic() - point_start:.1f}s)",
            flush=True,
        )
    print(f"all {len(POINTS)} points match their golden digests "
          f"({time.monotonic() - started:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
