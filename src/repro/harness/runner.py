"""Command-line entry point: ``ptguard-repro <experiment> [--scale S]``.

Runs any experiment from the DESIGN.md index and prints the same
rows/series the paper's tables and figures report. Sweep experiments
(fig6/fig7/fig9/multicore) fan their independent cells out over a
process pool (``--workers`` / ``REPRO_WORKERS``) and memoize finished
cells in a content-addressed on-disk cache (``--cache-dir`` /
``REPRO_CACHE_DIR``; ``--no-cache`` disables), so repeated runs skip
already-simulated cells; see :mod:`repro.harness.parallel`.

Resilience: ``--timeout`` puts a wall-clock deadline on every cell
(hung workers are killed and the cell retried), ``--retries`` bounds
the transient-retry budget, and an interrupted sweep (Ctrl-C, SIGKILL,
OOM) picks up where it left off with ``--resume`` — completed cells are
written through to the cache and journaled as they finish, so only the
missing cells are recomputed and the final report bytes are identical
to an uninterrupted run. ``--chaos`` injects deterministic faults for
testing (see :mod:`repro.harness.chaos`).

Service mode: ``--serve`` routes the experiment(s) through an embedded
:class:`repro.service.FabricService` — per-tenant result caches
(``--tenant``), token-bucket admission (``--rate CAP:REFILL``), a
bounded queue (``--queue-depth``) and a circuit breaker over the chosen
executor backend (``--backend``, ``--breaker-threshold``,
``--no-degraded``). When admission control refuses the work (rate
limit, full queue, open circuit with fallback disabled) the runner
exits with code 75 — EX_TEMPFAIL, the sysexits convention for "try
again later" — and prints the retry hint; transient overload is
distinguishable from real experiment failures (exit 1) in scripts.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import pathlib
import signal
import sys
import time
from typing import List, Optional

from repro.common.errors import PTGuardError
from repro.harness.experiments import EXPERIMENTS
from repro.harness.parallel import (
    ExecutionPolicy,
    ResultCache,
    execution_policy,
    last_run_stats,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptguard-repro",
        description="PT-Guard (DSN 2023) reproduction experiments",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which paper artefact to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="work multiplier: 1.0 = quick (default); larger = closer to paper scale",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for sweep experiments "
        "(default: REPRO_WORKERS or the CPU count; 1 = fully in-process)",
    )
    parser.add_argument(
        "--workloads",
        type=str,
        default=None,
        metavar="A,B,...",
        help="comma-separated workload subset for fig6/fig7/fig9 "
        "(default: each figure's full set)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="result-cache directory (default: REPRO_CACHE_DIR or "
        "~/.cache/ptguard-repro)",
    )
    parser.add_argument(
        "--json-summary",
        type=pathlib.Path,
        default=None,
        help="write {experiment: seconds} timing JSON to this path",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock deadline; a hung worker is killed and the "
        "cell retried (default: REPRO_TIMEOUT or no deadline)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry budget for transient cell failures -- worker crashes and "
        "timeouts (default: REPRO_RETRIES or 2)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from its journal + cache, "
        "recomputing only the missing cells (requires the cache)",
    )
    parser.add_argument(
        "--chaos",
        type=str,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for testing, e.g. "
        "'seed=3,kill=0.1,delay=0.05,corrupt=0.1' (default: REPRO_CHAOS)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="enable the runtime invariant checker (TLB shadow walks, "
        "cache consistency, MAC differential oracle); also settable via "
        "REPRO_VALIDATE=1",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-25 cumulative-time "
        "functions to stderr when the run finishes",
    )
    parser.add_argument(
        "--profile-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the full cProfile dump (pstats format) to FILE when "
        "the run finishes; implies profiling. Load it with "
        "'python -m pstats FILE' or snakeviz",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the experiment(s) through the embedded multi-tenant "
        "fabric service (admission control, per-tenant caches, circuit "
        "breaker); overload exits 75 (EX_TEMPFAIL) with a retry hint",
    )
    parser.add_argument(
        "--tenant",
        type=str,
        default="default",
        metavar="NAME",
        help="tenant id for --serve: results land in this tenant's "
        "private cache subtree (default: 'default')",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="--serve admission-queue depth (default: 8)",
    )
    parser.add_argument(
        "--rate",
        type=str,
        default=None,
        metavar="CAP:REFILL",
        help="--serve per-tenant token bucket: burst capacity and "
        "refill per second, e.g. '4:1' (default: 4:1; '0:0' blocks "
        "the tenant, exiting 75)",
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        metavar="NAME",
        help="executor backend: inprocess or process-pool "
        "(default: REPRO_BACKEND, or automatic by worker count; "
        "--serve defaults to inprocess)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="--serve circuit breaker: consecutive transient backend "
        "failures before the circuit opens (default: 3)",
    )
    parser.add_argument(
        "--no-degraded",
        action="store_true",
        help="--serve fail-fast mode: an open circuit rejects work "
        "(exit 75) instead of degrading to in-process execution",
    )
    parser.add_argument(
        "--state-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="--serve durability: write-ahead state log under DIR; a "
        "crashed/killed service restarted with the same DIR replays its "
        "accepted submissions, recomputing only the missing cells "
        "(disk faults degrade to memory-only instead of failing)",
    )
    parser.add_argument(
        "--service-chaos",
        type=str,
        default=None,
        metavar="SPEC",
        help="deterministic service-level fault injection for testing, "
        "e.g. 'seed=7,crash=1.0' (crash SIGKILLs the service at a "
        "seed-addressed point mid-sweep; see repro.service.chaos)",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="run --serve under a watchdog: a crashed (signal-killed) "
        "service process is restarted with bounded exponential backoff "
        "against the same --state-dir; a crash loop exits 75",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help="--supervise restart budget within the crash window "
        "(default: 5); once spent the supervisor exits 75",
    )
    parser.add_argument(
        "--campaign",
        type=str,
        default=None,
        metavar="A,B,...",
        help="comma-separated fault-scenario subset for the campaign "
        "experiment (default: all scenarios; see repro.faults.inject)",
    )
    parser.add_argument(
        "--recovery-policy",
        type=str,
        default=None,
        metavar="NAME",
        help="attack-response policy for campaign/siege: none, "
        "reconstruct, retire or full (default: campaign runs without "
        "recovery; siege defaults to full)",
    )
    parser.add_argument(
        "--spare-rows",
        type=int,
        default=None,
        metavar="N",
        help="override the recovery policy's spare-row retirement budget",
    )
    parser.add_argument(
        "--rekey-threshold",
        type=int,
        default=None,
        metavar="N",
        help="override the recovery policy's adaptive-rekey incident "
        "threshold (incidents per sliding window)",
    )
    parser.add_argument(
        "--strategies",
        type=str,
        default=None,
        metavar="A,B,...",
        help="comma-separated adaptive-strategy subset for the frontier "
        "experiment: low_slow, rekey_burst, spare_exhaustion, "
        "pthammer_implicit, escalate (default: all)",
    )
    parser.add_argument(
        "--policy-grid",
        type=str,
        default=None,
        metavar="NAME",
        help="recovery-policy candidate set for the frontier experiment: "
        "default or quick (see repro.recovery.search)",
    )
    parser.add_argument(
        "--windows",
        type=int,
        default=None,
        metavar="N",
        help="exposure windows per frontier siege cell "
        "(default: derived from --scale)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.resume and args.no_cache:
        parser.error("--resume needs the result cache (drop --no-cache)")

    policy = ExecutionPolicy.from_env()
    if args.timeout is not None:
        policy.timeout_s = max(0.001, args.timeout)
    if args.retries is not None:
        policy.retries = max(0, args.retries)
    policy.resume = args.resume
    if args.chaos:
        from repro.harness.chaos import ChaosPolicy

        try:
            policy.chaos = ChaosPolicy.from_spec(args.chaos)
        except ValueError as exc:
            parser.error(f"--chaos: {exc}")
    if args.backend is not None:
        from repro.harness.parallel import BACKENDS

        if args.backend not in BACKENDS:
            parser.error(
                f"--backend: unknown backend {args.backend!r} "
                f"(choose from {', '.join(sorted(BACKENDS))})"
            )
        policy.backend = args.backend

    workload_subset = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads
        else None
    )
    if workload_subset:
        from repro.cpu.workloads import WORKLOADS_BY_NAME

        unknown = sorted(set(workload_subset) - set(WORKLOADS_BY_NAME))
        if unknown:
            parser.error(
                f"--workloads: unknown workload(s) {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(WORKLOADS_BY_NAME))})"
            )

    strategy_subset = None
    if args.strategies:
        from repro.attacks.adaptive import ALL_STRATEGIES

        strategy_subset = [
            name.strip() for name in args.strategies.split(",") if name.strip()
        ]
        unknown = sorted(set(strategy_subset) - set(ALL_STRATEGIES))
        if unknown:
            parser.error(
                f"--strategies: unknown strategy(ies) {', '.join(unknown)} "
                f"(choose from {', '.join(ALL_STRATEGIES)})"
            )

    if args.policy_grid is not None:
        from repro.recovery.search import POLICY_GRIDS

        if args.policy_grid not in POLICY_GRIDS:
            parser.error(
                f"--policy-grid: unknown grid {args.policy_grid!r} "
                f"(choose from {', '.join(sorted(POLICY_GRIDS))})"
            )

    if args.windows is not None and args.windows < 1:
        parser.error("--windows must be >= 1")

    scenario_subset = None
    if args.campaign:
        from repro.faults.inject import ALL_SCENARIOS

        scenario_subset = [
            name.strip() for name in args.campaign.split(",") if name.strip()
        ]
        unknown = sorted(set(scenario_subset) - set(ALL_SCENARIOS))
        if unknown:
            parser.error(
                f"--campaign: unknown scenario(s) {', '.join(unknown)} "
                f"(choose from {', '.join(ALL_SCENARIOS)})"
            )

    recovery_params = None
    if (
        args.recovery_policy is not None
        or args.spare_rows is not None
        or args.rekey_threshold is not None
    ):
        import dataclasses

        from repro.common.errors import ConfigurationError
        from repro.recovery.policy import recovery_policy

        try:
            policy_obj = recovery_policy(args.recovery_policy or "full")
            overrides = {}
            if args.spare_rows is not None:
                overrides["spare_rows"] = args.spare_rows
            if args.rekey_threshold is not None:
                overrides["rekey_threshold"] = args.rekey_threshold
            if overrides:
                policy_obj = dataclasses.replace(policy_obj, **overrides)
        except ConfigurationError as exc:
            parser.error(str(exc))
        recovery_params = policy_obj.as_params()

    if args.validate:
        from repro.faults.invariants import set_validation

        set_validation(True)
        os.environ["REPRO_VALIDATE"] = "1"  # propagate to pool workers

    if args.serve and args.no_cache:
        parser.error("--serve stores results in per-tenant caches (drop --no-cache)")
    if args.rate is not None and not args.serve:
        parser.error("--rate only applies with --serve")
    if args.state_dir is not None and not args.serve:
        parser.error("--state-dir only applies with --serve")
    if args.service_chaos is not None and not args.serve:
        parser.error("--service-chaos only applies with --serve")
    if args.service_chaos is not None:
        from repro.service.chaos import ServiceChaosPolicy

        try:
            ServiceChaosPolicy.from_spec(args.service_chaos)
        except ValueError as exc:
            parser.error(f"--service-chaos: {exc}")
    if args.supervise:
        if not args.serve or args.state_dir is None:
            parser.error("--supervise needs --serve and --state-dir (the "
                         "restarted process recovers from the state log)")
        if args.max_restarts < 0:
            parser.error("--max-restarts must be >= 0")
        if os.environ.get("REPRO_SUPERVISED") != "1":
            return _supervise(args, argv)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    timings = {}
    failures: List[str] = []
    # SIGTERM (the polite kill: CI cancellation, systemd stop, OOM killer
    # on cgroup soft limits) is handled like Ctrl-C: the fabric journal is
    # already written through as cells finish, so --resume picks up where
    # the sweep stopped. Exit code is the conventional 128+15.
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:
        pass  # not the main thread (embedded use): leave signals alone
    profiler = None
    if args.profile or args.profile_out:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if args.serve:
            return _run_service(args, parser, policy, names, workload_subset)
        with execution_policy(policy):
            return _run_experiments(
                args, cache, names, timings, failures, workload_subset,
                scenario_subset, recovery_params, strategy_subset,
            )
    except KeyboardInterrupt:
        print("interrupted — rerun with --resume", file=sys.stderr)
        return 130
    except _Terminated:
        print("terminated (SIGTERM) — rerun with --resume", file=sys.stderr)
        return 143
    finally:
        if profiler is not None:
            import pstats

            profiler.disable()
            if args.profile_out:
                pstats.Stats(profiler).dump_stats(args.profile_out)
                print(f"--profile-out: wrote {args.profile_out}", file=sys.stderr)
            if args.profile:
                print("\n--profile: top 25 by cumulative time", file=sys.stderr)
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(25)
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


EX_TEMPFAIL = 75
"""Exit code for transient service-side refusals (sysexits EX_TEMPFAIL).

Admission control saying "not now" — a rate-limited tenant, a full
queue, an open circuit with degraded fallback disabled — is not an
experiment failure (exit 1) and not a usage error (exit 2): the same
command retried later is expected to succeed. Scripts and CI retry
loops key off this code; the stderr message carries the typed reason
and, when the service can estimate one, a retry-after hint.
"""


def _supervise(args, argv: Optional[List[str]]) -> int:
    """--supervise: watchdog loop around a child ``--serve`` process.

    The child runs the same command line minus the supervision flags,
    with ``REPRO_SUPERVISED=1`` so it never recurses. A signal-killed
    child (SIGKILL/SIGSEGV/...) is restarted against the same
    ``--state-dir`` — the WAL replay makes the restart resume rather
    than redo — with bounded exponential backoff; ``--max-restarts``
    crashes inside the crash window exit 75 (EX_TEMPFAIL). Clean exits,
    including failures the service *chose* (1, 2, 75), propagate
    unchanged.
    """
    import subprocess

    from repro.service.supervisor import Supervisor, SupervisorConfig

    raw = list(sys.argv[1:]) if argv is None else list(argv)
    child_args: List[str] = []
    skip_value = False
    for token in raw:
        if skip_value:
            skip_value = False
            continue
        if token == "--supervise":
            continue
        if token == "--max-restarts":
            skip_value = True
            continue
        if token.startswith("--max-restarts="):
            continue
        child_args.append(token)
    command = [sys.executable, "-m", "repro.harness.runner", *child_args]
    env = dict(os.environ)
    env["REPRO_SUPERVISED"] = "1"

    def spawn() -> int:
        return subprocess.run(command, env=env).returncode

    supervisor = Supervisor(
        spawn, SupervisorConfig(max_restarts=args.max_restarts)
    )
    print(
        f"[supervisor: watching {' '.join(command[2:])} "
        f"(restart budget {args.max_restarts})]",
        file=sys.stderr,
    )
    code = supervisor.run()
    if supervisor.restarts:
        print(
            f"[supervisor: {supervisor.restarts} restart(s), exit {code}]",
            file=sys.stderr,
        )
    return code


def _parse_rate(raw: Optional[str], parser) -> tuple:
    """``CAP:REFILL`` -> (capacity, refill_per_s); default (4, 1)."""
    if raw is None:
        return 4.0, 1.0
    capacity, separator, refill = raw.partition(":")
    try:
        if not separator:
            raise ValueError
        values = float(capacity), float(refill)
        if values[0] < 0 or values[1] < 0:
            raise ValueError
        return values
    except ValueError:
        parser.error(f"--rate: want CAP:REFILL with non-negative numbers, got {raw!r}")


def _run_service(args, parser, policy, names, workload_subset) -> int:
    """--serve: submit the experiment(s) through the embedded service.

    One FabricService per invocation; each experiment becomes one
    tracked submission under ``--tenant``. Overload (AdmissionRejected /
    CircuitOpenError) exits EX_TEMPFAIL with the retry hint on stderr;
    experiment failures keep exiting 1 as in direct mode.
    """
    from repro.common.errors import AdmissionRejected, CircuitOpenError
    from repro.harness.parallel import default_cache_dir
    from repro.service import FabricService, ServiceChaosPolicy, ServiceConfig

    rate_capacity, rate_refill = _parse_rate(args.rate, parser)
    config = ServiceConfig(
        queue_depth=max(1, args.queue_depth),
        dispatchers=1,
        rate_capacity=rate_capacity,
        rate_refill_per_s=rate_refill,
        breaker_threshold=max(1, args.breaker_threshold),
        backend=policy.backend or ServiceConfig.backend,
        workers=args.workers if args.workers else 2,
        allow_degraded=not args.no_degraded,
    )
    cache_root = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    service_chaos = (
        ServiceChaosPolicy.from_spec(args.service_chaos)
        if args.service_chaos
        else None
    )
    failures: List[str] = []
    service = FabricService(
        cache_root=cache_root,
        config=config,
        state_dir=args.state_dir,
        chaos=service_chaos,
    )
    try:
        for name in names:
            kwargs = {"scale": args.scale}
            if workload_subset is not None:
                kwargs["workloads"] = workload_subset
            try:
                ticket = service.submit_sweep(
                    experiment=name,
                    tenant=args.tenant,
                    policy=policy,
                    **kwargs,
                )
                report = service.results(ticket)
            except (AdmissionRejected, CircuitOpenError) as exc:
                _report_tempfail(name, exc)
                return EX_TEMPFAIL
            except PTGuardError as exc:
                failures.append(name)
                print(f"error: experiment {name!r} failed: {exc}", file=sys.stderr)
                continue
            print(report)
            view = service.status(ticket)
            print(
                f"[{name} service: tenant={view['tenant']} "
                f"backend={view['backend']} degraded={view['degraded']}]",
                file=sys.stderr,
            )
            print()
        health = service.health()
        print(
            f"[service health: {health['status']}, "
            f"durability={health['durability']['mode']}, "
            f"counters={health['counters']}]",
            file=sys.stderr,
        )
    finally:
        service.close()
    if failures:
        print(
            f"{len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _report_tempfail(name: str, exc) -> None:
    reason = getattr(exc, "reason", None) or "circuit_open"
    retry_after = getattr(exc, "retry_after_s", None)
    hint = (
        f"; retry in {retry_after:.1f}s"
        if isinstance(retry_after, (int, float))
        else "; retry later"
    )
    print(
        f"temporarily unavailable ({reason}): experiment {name!r} was "
        f"refused -- {exc}{hint} [exit {EX_TEMPFAIL} = EX_TEMPFAIL]",
        file=sys.stderr,
    )


class _Terminated(Exception):
    """SIGTERM arrived; unwound like KeyboardInterrupt, exits 143."""


def _raise_terminated(signum, frame):
    raise _Terminated()


def _run_experiments(
    args, cache, names, timings, failures, workload_subset, scenario_subset=None,
    recovery_params=None, strategy_subset=None,
) -> int:
    """The experiment loop; KeyboardInterrupt propagates to main()."""
    for name in names:
        function = EXPERIMENTS[name]
        parameters = inspect.signature(function).parameters
        kwargs = {}
        if "scale" in parameters:
            kwargs["scale"] = args.scale
        if "workers" in parameters:
            kwargs["workers"] = args.workers
        if "cache" in parameters:
            kwargs["cache"] = cache
        if "workloads" in parameters and workload_subset is not None:
            kwargs["workloads"] = workload_subset
        if "scenarios" in parameters and scenario_subset is not None:
            kwargs["scenarios"] = scenario_subset
        if "validate" in parameters and args.validate:
            kwargs["validate"] = True
        if "recovery" in parameters and recovery_params is not None:
            kwargs["recovery"] = recovery_params
        if "strategies" in parameters and strategy_subset is not None:
            kwargs["strategies"] = strategy_subset
        if "policy_grid" in parameters and args.policy_grid is not None:
            kwargs["policy_grid"] = args.policy_grid
        if "windows" in parameters and args.windows is not None:
            kwargs["windows"] = args.windows
        start = time.time()
        try:
            report = function(**kwargs)
        except PTGuardError as exc:
            failures.append(name)
            print(f"error: experiment {name!r} failed: {exc}", file=sys.stderr)
            continue
        timings[name] = time.time() - start
        print(report)
        print(f"[{name}: {timings[name]:.1f}s]")
        stats = last_run_stats()
        if stats.jobs and stats.eventful():
            print(
                f"[{name} fabric: {stats.fresh} fresh / {stats.cached} cached"
                f" ({stats.resumed_cells} resumed) / {stats.priced} priced,"
                f" retries={stats.retries},"
                f" timeouts={stats.timeouts}, crashes={stats.crashes},"
                f" quarantined={stats.quarantined}, degraded={stats.degraded}]",
                file=sys.stderr,
            )
        print()
    if args.json_summary is not None:
        args.json_summary.parent.mkdir(parents=True, exist_ok=True)
        args.json_summary.write_text(
            json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if failures:
        print(
            f"{len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
