"""Siege evaluation: availability under *sustained* Rowhammer pressure.

A fault-injection campaign asks "what happens to one fault?"; a siege
asks "how long does the machine stay useful while faults keep landing?".
Each siege cell subjects one machine to ``windows`` consecutive exposure
windows of :data:`repro.faults.campaign.TRIAL_WINDOW_CYCLES` cycles, with
``faults_per_window`` PTE-line disturbances per window (the attack
intensity), every one driven through the real controller read path and —
when a policy is attached — the full :mod:`repro.recovery` state machine.

Reported per cell:

* **survival time** — windows elapsed before the first panic (the whole
  siege when none occurs);
* **availability** — uptime fraction: recovery latency counts as
  downtime inside its window, a panic forfeits the rest of the window;
* **recovery-latency distribution** — p50 / p95 / max cycles over the
  successfully recovered events;
* the degradation ledger: rows retired, adaptive rekeys, spares left,
  and the full outcome histogram (zero-silent-corruption guarantee).

Cells run as ``siege_cell`` fabric jobs, so caching, retries, timeouts
and ``--resume`` apply; everything is a pure function of the seed.

Two siege modes share this module:

* **fixed-intensity** (:func:`run_siege_cell`) — the PR-5 open-loop
  stress test, preserved bit-exactly: the adaptive machinery below never
  touches this path;
* **closed-loop adaptive** (:func:`run_adaptive_siege_cell`) — each
  window runs observe → adapt → hammer: the
  :class:`repro.attacks.adaptive.AdaptiveAttacker` reads the defense's
  observable telemetry, plans the window's hammer ops under its
  activation budget (explicit ops face the
  :class:`repro.attacks.defenses.BlockhammerThrottle`; PThammer-style
  implicit ops ride page-walk traffic past it), and the recovery
  machinery answers. Downtime is attributed per cause (recovery /
  migration / rekey-sweep / panic) without double counting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

#: Attack intensities: uncorrectable-grade disturbances per exposure window.
SIEGE_INTENSITIES: Dict[str, int] = {"low": 1, "medium": 4, "high": 16}

#: Deterministic multi-bit scenario the siege injects (mostly lands
#: uncorrectable — the population recovery exists for).
_SIEGE_SCENARIO = "pte_double"


@dataclass
class SiegeCell:
    """Outcome of one (intensity, policy, seed) siege."""

    intensity: str
    faults_per_window: int
    windows: int
    seed: int
    workload: str
    recovery_policy: Optional[str] = None
    injections: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: windows completed before the first panic (== windows if none)
    survived_windows: int = 0
    panics: int = 0
    exposure_cycles: int = 0
    downtime_cycles: int = 0
    recovery_latency_cycles: List[int] = field(default_factory=list)
    rows_retired: int = 0
    adaptive_rekeys: int = 0
    spare_rows_left: int = 0
    invariant_sweeps: int = 0

    def outcome(self, klass: str) -> int:
        return self.outcomes.get(klass, 0)

    @property
    def availability(self) -> float:
        if not self.exposure_cycles:
            return 1.0
        return 1.0 - self.downtime_cycles / self.exposure_cycles

    @property
    def survival_fraction(self) -> float:
        if not self.windows:
            return 1.0
        return self.survived_windows / self.windows

    def latency_percentile(self, quantile: float) -> int:
        """Deterministic nearest-rank percentile of recovery latencies."""
        values = sorted(self.recovery_latency_cycles)
        if not values:
            return 0
        index = min(len(values) - 1, int(round(quantile * (len(values) - 1))))
        return values[index]


def _siege_boot(workload: str, seed: int, config, policy, validate: bool):
    """Boot a siege machine: ``(system, process, walked PTE lines)``.

    Shared by both siege modes. The boot is a pure function of the
    workload, the seed, the spare-row count and the guard config, so
    cells sharing them (a frontier grid has one per ``spare_rows``
    value) deep-restore a snapshot (:mod:`repro.harness.snapshot`)
    instead of re-booting. A validating cell always boots cold so the
    checker watches the machine from birth.
    """
    from repro.analysis.correction_eval import walked_pte_lines, workload_process
    from repro.common.config import PAGE_BYTES
    from repro.faults.campaign import _WARM_TRANSLATIONS
    from repro.harness import snapshot as boot_snapshot
    from repro.harness.system import build_system

    # Spares are only carved out when retirement can use them, so
    # non-retiring policies keep the seed memory layout exactly.
    spare_rows = (
        policy.spare_rows if policy is not None and policy.retire_enabled else 0
    )

    def boot():
        system = build_system(ptguard=config, seed=seed, spare_rows=spare_rows)
        process = workload_process(system, workload, seed)
        for vpn in sorted(process.frames)[:_WARM_TRANSLATIONS]:
            system.kernel.access_virtual(process, vpn * PAGE_BYTES)
        return system, process, walked_pte_lines(system, process)

    if validate:
        return boot()
    return boot_snapshot.cached_boot(
        "siege_cell",
        {
            "workload": workload,
            "seed": seed,
            "spare_rows": spare_rows,
            "config": asdict(config),
        },
        boot,
    )


def run_siege_cell(
    intensity: str,
    faults_per_window: int,
    windows: int,
    seed: int,
    workload: str = "povray",
    validate: bool = False,
    recovery: Optional[dict] = None,
) -> SiegeCell:
    """Run one siege in-process; pure function of its parameters."""
    from repro.common.config import PTGuardConfig
    from repro.core import pattern
    from repro.faults.campaign import (
        OUTCOME_CLASSES,
        TRIAL_WINDOW_CYCLES,
        _classify,
    )
    from repro.faults.inject import FaultInjector
    from repro.faults.invariants import attach_validator
    from repro.recovery.policy import policy_from_params

    policy = policy_from_params(recovery)
    config = PTGuardConfig(correction_enabled=True)
    system, _process, pte_lines = _siege_boot(workload, seed, config, policy, validate)
    kernel = system.kernel

    checker = attach_validator(system) if validate else None
    injector = FaultInjector(seed=seed, max_phys_bits=config.max_phys_bits)
    manager = None
    if policy is not None:
        from repro.recovery.manager import RecoveryManager

        manager = RecoveryManager(kernel, policy)

    cell = SiegeCell(
        intensity=intensity,
        faults_per_window=faults_per_window,
        windows=windows,
        seed=seed,
        workload=workload,
        recovery_policy=policy.name if policy is not None else None,
    )
    outcomes = {klass: 0 for klass in OUTCOME_CLASSES}
    memory = system.memory
    controller = system.controller
    first_panic_window: Optional[int] = None

    for window in range(windows):
        cell.exposure_cycles += TRIAL_WINDOW_CYCLES
        window_down = 0
        for burst in range(faults_per_window):
            trial = window * faults_per_window + burst
            spec = injector.generate(_SIEGE_SCENARIO, trial, pte_lines, [])
            snapshot = memory.read_line(spec.line_address)
            epoch_before = system.guard.epoch if system.guard else 0
            original_protected = pattern.mask_unprotected(
                snapshot, config.max_phys_bits
            )
            system.dram.inject_fault(
                spec.line_address, spec.bit_offsets, scenario="siege"
            )
            cell.injections += 1
            try:
                response = controller.read_access(spec.line_address, is_pte=True)
            except Exception:  # noqa: BLE001 — any escape is a simulator crash
                outcomes["sim_crash"] += 1
            else:
                klass = _classify(
                    response, True, snapshot, original_protected,
                    config.max_phys_bits,
                )
                if klass == "detected_uncorrectable" and manager is not None:
                    event = manager.handle_pte_check_failed(spec.line_address)
                    if event.recovered:
                        klass = (
                            "recovered_retired"
                            if event.retired
                            else "recovered_reconstructed"
                        )
                        cell.recovery_latency_cycles.append(event.latency_cycles)
                        window_down += event.latency_cycles
                    else:
                        klass = "panic"
                        window_down = TRIAL_WINDOW_CYCLES
                elif klass == "detected_uncorrectable":
                    # No policy attached: the seed behaviour is terminal.
                    klass = "panic"
                    window_down = TRIAL_WINDOW_CYCLES
                if klass == "panic":
                    cell.panics += 1
                    if first_panic_window is None:
                        first_panic_window = window
                outcomes[klass] += 1
            finally:
                if (
                    manager is not None
                    and system.guard is not None
                    and system.guard.epoch != epoch_before
                ):
                    logical = (
                        pattern.strip_metadata(snapshot)
                        if config.identifier_enabled
                        else pattern.strip_mac(snapshot)
                    )
                    controller.write_access(spec.line_address, logical)
                else:
                    memory.write_line(spec.line_address, snapshot)
        cell.downtime_cycles += min(window_down, TRIAL_WINDOW_CYCLES)
        if checker is not None:
            checker.run_all(context=f"siege {intensity} window {window}")

    cell.survived_windows = (
        windows if first_panic_window is None else first_panic_window
    )
    if manager is not None:
        cell.rows_retired = manager.stats.get("rows_retired")
        cell.adaptive_rekeys = manager.stats.get("adaptive_rekeys")
        cell.spare_rows_left = system.dram.spare_rows_free
    if checker is not None:
        cell.invariant_sweeps = checker.stats.get("sweeps")
    cell.outcomes = outcomes
    return cell


# -- the closed-loop adaptive siege -------------------------------------------


@dataclass
class AdaptiveSiegeCell:
    """Outcome of one (strategy, policy, seed) closed-loop siege."""

    strategy: str
    windows: int
    seed: int
    workload: str
    recovery_policy: Optional[str] = None
    injections: int = 0
    hammer_ops: int = 0
    throttled_ops: int = 0
    walks_issued: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    survived_windows: int = 0
    panics: int = 0
    exposure_cycles: int = 0
    downtime_cycles: int = 0
    #: downtime attribution; the four parts always sum to
    #: ``downtime_cycles`` (a panic forfeits its whole window to
    #: ``downtime_panic_cycles``, discarding that window's partial costs)
    downtime_recovery_cycles: int = 0
    downtime_migration_cycles: int = 0
    downtime_rekey_cycles: int = 0
    downtime_panic_cycles: int = 0
    recovery_latency_cycles: List[int] = field(default_factory=list)
    rows_retired: int = 0
    adaptive_rekeys: int = 0
    rekeys_suppressed: int = 0
    spare_rows_left: int = 0
    retirements_exhausted: int = 0
    invariant_sweeps: int = 0
    final_strategy: str = ""
    #: per-window defense-visible telemetry (the ObservationChannel
    #: trace, as plain dicts so cells stay JSON round-trippable)
    observations: List[Dict[str, int]] = field(default_factory=list)
    #: controller decisions, in order (escalate mode only)
    strategy_switches: List[Dict[str, object]] = field(default_factory=list)

    outcome = SiegeCell.outcome
    availability = SiegeCell.availability
    survival_fraction = SiegeCell.survival_fraction
    latency_percentile = SiegeCell.latency_percentile

    @property
    def downtime_attribution(self) -> Dict[str, int]:
        return {
            "recovery": self.downtime_recovery_cycles,
            "migration": self.downtime_migration_cycles,
            "rekey": self.downtime_rekey_cycles,
            "panic": self.downtime_panic_cycles,
        }


def run_adaptive_siege_cell(
    strategy: str,
    windows: int,
    seed: int,
    workload: str = "povray",
    validate: bool = False,
    recovery: Optional[dict] = None,
) -> AdaptiveSiegeCell:
    """One closed-loop siege: observe → adapt → hammer, per window.

    ``strategy`` is a :data:`repro.attacks.adaptive.STRATEGY_ORDER` name
    (the attacker is pinned to it) or ``"escalate"`` (the deterministic
    switching controller runs the whole ladder). Pure function of its
    parameters, like every other cell.
    """
    from repro.attacks.adaptive import (
        ObservationChannel,
        craft_bit_offsets,
        make_attacker,
    )
    from repro.attacks.defenses import BlockhammerThrottle
    from repro.common.config import PAGE_BYTES, PTGuardConfig
    from repro.core import pattern
    from repro.faults.campaign import (
        OUTCOME_CLASSES,
        TRIAL_WINDOW_CYCLES,
        _classify,
    )
    from repro.faults.inject import deterministic_choice
    from repro.faults.invariants import attach_validator
    from repro.recovery.policy import policy_from_params

    policy = policy_from_params(recovery)
    config = PTGuardConfig(correction_enabled=True)
    system, process, pte_lines = _siege_boot(workload, seed, config, policy, validate)
    kernel = system.kernel
    warm_vpns = sorted(process.frames)

    checker = attach_validator(system) if validate else None
    manager = None
    if policy is not None:
        from repro.recovery.manager import RecoveryManager

        manager = RecoveryManager(kernel, policy)

    # Deterministic row inventory: insertion order follows the sorted
    # pte_lines; the heat order ranks rows by how many walked PTE lines
    # they host (where implicit walker pressure concentrates).
    mapper = system.dram.mapper
    rows: Dict[tuple, List[int]] = {}
    for line in pte_lines:
        rows.setdefault(mapper.row_key_of(line), []).append(line)
    row_list = list(rows)
    heat_list = sorted(rows, key=lambda key: (-len(rows[key]), rows[key][0]))

    throttle = BlockhammerThrottle()
    channel = ObservationChannel(system, manager=manager, throttle=throttle)
    attacker = make_attacker(strategy, seed)
    protected = pattern.protected_bit_positions(config.max_phys_bits)

    cell = AdaptiveSiegeCell(
        strategy=strategy,
        windows=windows,
        seed=seed,
        workload=workload,
        recovery_policy=policy.name if policy is not None else None,
    )
    outcomes = {klass: 0 for klass in OUTCOME_CLASSES}
    controller = system.controller
    ledger = channel.ledger
    first_panic_window: Optional[int] = None

    for window in range(windows):
        cell.exposure_cycles += TRIAL_WINDOW_CYCLES
        throttle.begin_window()
        plan = attacker.plan(window, n_rows=len(row_list))
        strategy_name = attacker.active.name
        window_recovery = window_migration = window_rekey = 0
        panic_in_window = False

        # Implicit phase: PThammer pressure is page-walk traffic. The
        # TLB and MMU caches are flushed (eviction, in the real attack)
        # so every translation re-walks through the controller.
        if plan.walks and warm_vpns:
            kernel.walker.tlb.flush()
            kernel.walker.mmu_cache.flush()
            for step in range(plan.walks):
                vpn = warm_vpns[(window * plan.walks + step) % len(warm_vpns)]
                try:
                    kernel.access_virtual(process, vpn * PAGE_BYTES)
                except Exception:  # noqa: BLE001 — clean lines never throw
                    outcomes["sim_crash"] += 1
                    break
                cell.walks_issued += 1

        for op_index, op in enumerate(plan.ops):
            order = heat_list if op.hot else row_list
            row_key = order[op.row_index % len(order)]
            if not op.implicit and not throttle.request(row_key, op.cost):
                cell.throttled_ops += 1
                continue
            lines = rows[row_key]
            line = lines[
                deterministic_choice(
                    seed,
                    f"adaptive:target:{strategy_name}",
                    f"{window}:{op_index}",
                    len(lines),
                )
            ]
            offsets = craft_bit_offsets(
                seed,
                op.kind,
                f"adaptive:{strategy_name}:{op.kind}",
                f"{window}:{op_index}",
                protected,
            )
            cell.hammer_ops += 1
            # An adaptive attacker re-templates after a retirement: the
            # victim's cells moved to a spare row, and the attacker
            # re-locates them (timing side channels, in the real attack)
            # and disturbs the *current* backing cells. This is the key
            # capability difference from the fixed-intensity siege,
            # where disturbance keeps landing on the original (now
            # unread) cells — there, retirement is a full cure; here it
            # only buys the migration it paid for.
            backing = system.dram.remap_address(line)
            snapshot = system.dram.read_line(line)
            epoch_before = system.guard.epoch if system.guard else 0
            original_protected = pattern.mask_unprotected(
                snapshot, config.max_phys_bits
            )
            system.dram.inject_fault(backing, offsets, scenario="adaptive_siege")
            cell.injections += 1
            try:
                response = controller.read_access(line, is_pte=True)
            except Exception:  # noqa: BLE001 — any escape is a simulator crash
                outcomes["sim_crash"] += 1
            else:
                klass = _classify(
                    response, True, snapshot, original_protected,
                    config.max_phys_bits,
                )
                if klass == "detected_corrected":
                    ledger["corrected"] += 1
                if klass == "detected_uncorrectable":
                    ledger["uncorrectable"] += 1
                if klass == "detected_uncorrectable" and manager is not None:
                    event = manager.handle_pte_check_failed(line)
                    if event.recovered:
                        klass = (
                            "recovered_retired"
                            if event.retired
                            else "recovered_reconstructed"
                        )
                        cell.recovery_latency_cycles.append(
                            event.latency_cycles
                        )
                        migrate = event.stage_cycles.get("migrate", 0)
                        rekey = event.stage_cycles.get("rekey", 0)
                        window_migration += migrate
                        window_rekey += rekey
                        window_recovery += (
                            event.latency_cycles - migrate - rekey
                        )
                    else:
                        klass = "panic"
                elif klass == "detected_uncorrectable":
                    klass = "panic"
                if klass == "panic":
                    panic_in_window = True
                    cell.panics += 1
                    ledger["panics"] += 1
                    if first_panic_window is None:
                        first_panic_window = window
                outcomes[klass] += 1
            finally:
                if (
                    manager is not None
                    and system.guard is not None
                    and system.guard.epoch != epoch_before
                ):
                    logical = (
                        pattern.strip_metadata(snapshot)
                        if config.identifier_enabled
                        else pattern.strip_mac(snapshot)
                    )
                    controller.write_access(line, logical)
                else:
                    # Restore through the remap-aware path: a retirement
                    # inside this very event moves the backing row, and
                    # the snapshot must land wherever reads now go.
                    system.dram.write_line(line, snapshot)
            if panic_in_window:
                # The machine is rebooting: the window is forfeit and the
                # rest of the plan never executes.
                break

        if panic_in_window:
            cell.downtime_cycles += TRIAL_WINDOW_CYCLES
            cell.downtime_panic_cycles += TRIAL_WINDOW_CYCLES
        else:
            # Sequential clamp keeps the attribution identity exact even
            # if a window ever saturates: parts are taken in stage order
            # until the window is full.
            taken = 0
            for attr, part in (
                ("downtime_recovery_cycles", window_recovery),
                ("downtime_migration_cycles", window_migration),
                ("downtime_rekey_cycles", window_rekey),
            ):
                take = min(part, TRIAL_WINDOW_CYCLES - taken)
                setattr(cell, attr, getattr(cell, attr) + take)
                taken += take
            cell.downtime_cycles += taken
        ledger["downtime_cycles"] = cell.downtime_cycles

        observation = channel.snapshot(window)
        cell.observations.append(observation.as_dict())
        attacker.observe(observation)
        if checker is not None:
            checker.run_all(context=f"adaptive {strategy} window {window}")

    cell.survived_windows = (
        windows if first_panic_window is None else first_panic_window
    )
    cell.final_strategy = attacker.active.name
    cell.strategy_switches = [switch.as_dict() for switch in attacker.switches]
    if manager is not None:
        cell.rows_retired = manager.stats.get("rows_retired")
        cell.adaptive_rekeys = manager.stats.get("adaptive_rekeys")
        cell.spare_rows_left = system.dram.spare_rows_free
    if system.guard is not None:
        cell.rekeys_suppressed = system.guard.stats.get(
            "adaptive_rekeys_suppressed"
        )
    cell.retirements_exhausted = controller.stats.get(
        "row_retirements_exhausted"
    )
    if checker is not None:
        cell.invariant_sweeps = checker.stats.get("sweeps")
    cell.outcomes = outcomes
    return cell


def adaptive_siege_cell_job(
    strategy: str,
    windows: int,
    seed: int,
    workload: str,
    validate: bool,
    recovery: Optional[dict],
    label: Optional[str] = None,
):
    """The :class:`SimJob` form of one adaptive siege cell."""
    from repro.harness.parallel import SimJob

    return SimJob(
        kind="adaptive_siege_cell",
        params={
            "strategy": strategy,
            "windows": windows,
            "seed": seed,
            "workload": workload,
            "validate": validate,
            "recovery": recovery,
        },
        label=label or f"adaptive-siege/{strategy}",
    )


# -- fabric integration --------------------------------------------------------


def siege_cell_job(
    intensity: str,
    faults_per_window: int,
    windows: int,
    seed: int,
    workload: str,
    validate: bool,
    recovery: Optional[dict],
):
    """The :class:`SimJob` form of one siege cell (content-addressed)."""
    from repro.harness.parallel import SimJob

    return SimJob(
        kind="siege_cell",
        params={
            "intensity": intensity,
            "faults_per_window": faults_per_window,
            "windows": windows,
            "seed": seed,
            "workload": workload,
            "validate": validate,
            "recovery": recovery,
        },
        label=f"siege/{intensity}",
    )


def run_siege(
    windows: int = 48,
    seed: int = 17,
    workload: str = "povray",
    validate: bool = False,
    recovery: Optional[dict] = None,
    intensities: Optional[Dict[str, int]] = None,
    workers: Optional[int] = None,
    cache=None,
) -> List[SiegeCell]:
    """Run the siege at every intensity, one fabric job per cell."""
    from repro.harness.parallel import run_jobs
    from repro.recovery.policy import RecoveryPolicy

    if recovery is None:
        recovery = RecoveryPolicy().as_params()
    chosen = intensities if intensities is not None else SIEGE_INTENSITIES
    jobs = [
        siege_cell_job(
            name, faults, windows, seed, workload, validate, recovery
        )
        for name, faults in sorted(chosen.items(), key=lambda kv: kv[1])
    ]
    return run_jobs(jobs, workers=workers, cache=cache)


# -- reporting -----------------------------------------------------------------


def format_siege_report(cells: Sequence[SiegeCell]) -> str:
    """Render the availability report (byte-identical across runs)."""
    lines: List[str] = []
    lines.append("Siege: availability under sustained Rowhammer")
    if cells:
        head = cells[0]
        lines.append(
            f"policy={head.recovery_policy or 'none'}  workload={head.workload}  "
            f"windows={head.windows}  seed={head.seed}"
        )
    lines.append("")
    header = (
        f"{'intensity':<10} {'faults/win':>10} {'survived':>9} "
        f"{'surv%':>7} {'avail':>8} {'p50':>8} {'p95':>8} {'max':>9} "
        f"{'retired':>8} {'rekeys':>7} {'panics':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cell in cells:
        lines.append(
            f"{cell.intensity:<10} {cell.faults_per_window:>10} "
            f"{cell.survived_windows:>6}/{cell.windows:<2} "
            f"{cell.survival_fraction * 100:>6.1f} "
            f"{cell.availability:>8.5f} "
            f"{cell.latency_percentile(0.50):>8} "
            f"{cell.latency_percentile(0.95):>8} "
            f"{cell.latency_percentile(1.00):>9} "
            f"{cell.rows_retired:>8} {cell.adaptive_rekeys:>7} "
            f"{cell.panics:>7}"
        )
    lines.append("")
    silent = sum(cell.outcome("silent_corruption") for cell in cells)
    injections = sum(cell.injections for cell in cells)
    lines.append(f"injections: {injections}")
    lines.append(
        f"silent corruptions: {silent} "
        f"({'zero-silent-corruption guarantee holds' if silent == 0 else 'GUARANTEE VIOLATED'})"
    )
    recovered = sum(
        cell.outcome("recovered_reconstructed") + cell.outcome("recovered_retired")
        for cell in cells
    )
    lines.append(f"recovered: {recovered}  panics: {sum(c.panics for c in cells)}")
    return "\n".join(lines)
