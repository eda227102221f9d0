"""Fault-injection campaigns with an eight-class outcome taxonomy.

Every injected fault is driven to ground through the real read path —
memory controller, PT-Guard MAC verify, best-effort correction — and the
observable result is classified:

==========================  ===================================================
``detected_corrected``      MAC check failed, correction recovered the exact
                            protected content (and scrubbed DRAM).
``detected_uncorrectable``  MAC check failed, correction gave up —
                            ``PTECheckFailed`` reaches the OS (paper Sec
                            IV-F) and no recovery policy is attached: the
                            fault is terminal (the seed behaviour).
``recovered_reconstructed`` uncorrectable, but the OS rebuilt the line from
                            its shadow reverse map and it verifies again
                            (:mod:`repro.recovery`).
``recovered_retired``       uncorrectable; recovered *and* the victim DRAM
                            row crossed its fault threshold and was migrated
                            to a spare row.
``panic``                   uncorrectable and the recovery state machine ran
                            out of options (policy gates closed, spare
                            budget exhausted, or stale shadow): terminal
                            after all — availability accounting charges a
                            full outage window.
``silent_corruption``       protected content reached the consumer changed
                            with no failure signalled — a defense miss (or a
                            miscorrection). The paper's detection guarantee
                            says this never happens for PTE faults under a
                            96-bit MAC; data-line faults land here by design
                            (they are outside the protection boundary).
``masked_benign``           only unprotected bits changed; the guard verifies
                            clean and forwards intact protected content.
``sim_crash``               the simulator itself raised while processing the
                            fault — a reproduction bug, never hidden.
==========================  ===================================================

A campaign cell is one ``(scenario, workload, seed)`` triple; cells run
as ``fault_campaign_cell`` jobs through :mod:`repro.harness.parallel`, so
labels, content-addressed caching, retries and ``--resume`` all apply.
Faults are generated by :class:`repro.faults.inject.FaultInjector` — pure
functions of the seed — and each trial restores the pre-fault line, so
the outcome histogram is deterministic regardless of worker layout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.stats import TaxonomyCounter

OUTCOME_CLASSES = (
    "detected_corrected",
    "detected_uncorrectable",
    "recovered_reconstructed",
    "recovered_retired",
    "panic",
    "silent_corruption",
    "masked_benign",
    "sim_crash",
)

#: Scenarios injecting exactly one bit into a protected/PTE target — the
#: population the paper's detection guarantee (zero SDC) covers.
SINGLE_BIT_PTE_SCENARIOS = (
    "pte_single",
    "mac_single",
    "global_bit",
    "pfn_only",
    "flags_only",
)

_VALIDATE_EVERY = 32  # trials between invariant sweeps
_WARM_TRANSLATIONS = 64  # VPNs touched so the TLB/MMU cache have substance

#: Availability accounting: each trial represents one attack-exposure
#: window of this many cycles (~0.7 ms at 3 GHz — an aggressive hammering
#: cadence). Recovery latency counts as downtime inside the window; a
#: panic forfeits the whole window (machine down until "reboot").
TRIAL_WINDOW_CYCLES = 2_000_000


@dataclass
class CampaignCell:
    """Outcome histogram for one (scenario, workload, seed) cell."""

    scenario: str
    target: str  # "pte" | "data"
    workload: str
    seed: int
    trials: int = 0
    bits_injected: int = 0
    protected_tampered: int = 0  # trials whose protected content changed
    outcomes: Dict[str, int] = field(default_factory=dict)
    winning_steps: Dict[str, int] = field(default_factory=dict)
    invariant_sweeps: int = 0
    # Recovery / availability accounting (None policy = seed behaviour).
    recovery_policy: Optional[str] = None
    exposure_cycles: int = 0
    downtime_cycles: int = 0
    recovery_latency_cycles: List[int] = field(default_factory=list)
    rows_retired: int = 0
    adaptive_rekeys: int = 0
    spare_rows_left: int = 0

    def outcome(self, klass: str) -> int:
        return self.outcomes.get(klass, 0)

    @property
    def detected(self) -> int:
        return self.outcome("detected_corrected") + self.outcome(
            "detected_uncorrectable"
        )

    @property
    def recovered(self) -> int:
        return self.outcome("recovered_reconstructed") + self.outcome(
            "recovered_retired"
        )

    @property
    def availability(self) -> float:
        """Uptime fraction across the cell's exposure windows."""
        if not self.exposure_cycles:
            return 1.0
        return 1.0 - self.downtime_cycles / self.exposure_cycles

    @property
    def erroneous(self) -> int:
        """Trials the guard had to act on: every non-benign, non-crash
        outcome. Includes MAC-field flips (the stored tag changed even
        though the protected data bits did not)."""
        return (
            self.outcome("detected_corrected")
            + self.outcome("detected_uncorrectable")
            + self.recovered
            + self.outcome("panic")
            + self.outcome("silent_corruption")
        )

    @property
    def corrected_fraction(self) -> float:
        """Corrected share of erroneous trials — the same denominator
        Fig 9 uses (erroneous lines)."""
        if not self.erroneous:
            return 0.0
        return self.outcome("detected_corrected") / self.erroneous


@dataclass
class CampaignResult:
    """All cells of one campaign run."""

    cells: List[CampaignCell]

    def histogram(self) -> Dict[str, int]:
        """Aggregate outcome histogram in declared class order."""
        total = {klass: 0 for klass in OUTCOME_CLASSES}
        for cell in self.cells:
            for klass in OUTCOME_CLASSES:
                total[klass] += cell.outcome(klass)
        return total

    def cell(self, scenario: str) -> Optional[CampaignCell]:
        for candidate in self.cells:
            if candidate.scenario == scenario:
                return candidate
        return None

    @property
    def total_trials(self) -> int:
        return sum(cell.trials for cell in self.cells)

    @property
    def availability(self) -> float:
        """Aggregate uptime fraction (1.0 when no cell tracked exposure)."""
        exposure = sum(cell.exposure_cycles for cell in self.cells)
        if not exposure:
            return 1.0
        downtime = sum(cell.downtime_cycles for cell in self.cells)
        return 1.0 - downtime / exposure

    def single_bit_pte_cells(self) -> List[CampaignCell]:
        return [
            cell
            for cell in self.cells
            if cell.scenario in SINGLE_BIT_PTE_SCENARIOS
        ]


def _classify(response, is_pte: bool, snapshot: bytes,
              original_protected: bytes, max_phys_bits: int) -> str:
    """Map one read response to an outcome class (see module doc)."""
    from repro.core import pattern

    if not is_pte:
        # Outside the protection boundary: the guard forwards whatever
        # DRAM holds. Unchanged bytes are benign; anything else is SDC.
        return "masked_benign" if response.data == snapshot else "silent_corruption"
    if response.pte_check_failed:
        return "detected_uncorrectable"
    forwarded = pattern.mask_unprotected(response.data, max_phys_bits)
    if response.corrected:
        if forwarded == original_protected:
            return "detected_corrected"
        return "silent_corruption"  # miscorrection
    # MAC verified clean: either the flips never touched protected bits
    # (benign) or — cryptographically negligible — a collision let real
    # corruption through.
    if forwarded == original_protected:
        return "masked_benign"
    return "silent_corruption"


def run_campaign_cell(
    scenario: str,
    trials: int,
    seed: int,
    workload: str = "povray",
    validate: bool = False,
    guard_config=None,
    mac_algorithm: str = "blake2",
    recovery: Optional[dict] = None,
) -> CampaignCell:
    """Run one campaign cell in-process and classify every fault.

    ``recovery`` is a :meth:`repro.recovery.RecoveryPolicy.as_params`
    dict (JSON-able so it rides in fabric job params); when given, a
    :class:`repro.recovery.RecoveryManager` handles every
    ``detected_uncorrectable`` fault and the trial is reclassified by
    what the response achieved, with downtime charged per window.
    """
    from repro.analysis.correction_eval import walked_pte_lines, workload_process
    from repro.common.config import PAGE_BYTES, PTGuardConfig
    from repro.core import pattern
    from repro.faults.inject import DATA_SCENARIOS, FaultInjector
    from repro.faults.invariants import attach_validator
    from repro.harness import snapshot as boot_snapshot
    from repro.harness.system import build_system
    from repro.recovery.policy import policy_from_params

    policy = policy_from_params(recovery)
    config = guard_config or PTGuardConfig(correction_enabled=True)
    # Spares are only carved out when retirement can use them, so
    # non-retiring policies keep the seed memory layout exactly.
    spare_rows = (
        policy.spare_rows
        if policy is not None and policy.retire_enabled
        else 0
    )

    def boot():
        system = build_system(
            ptguard=config,
            mac_algorithm=mac_algorithm,
            seed=seed,
            spare_rows=spare_rows,
        )
        process = workload_process(system, workload, seed)

        # Warm a slice of translations so the validator's TLB/MMU-cache
        # checks exercise real state, not empty structures.
        for vpn in sorted(process.frames)[:_WARM_TRANSLATIONS]:
            system.kernel.access_virtual(process, vpn * PAGE_BYTES)

        pte_lines = walked_pte_lines(system, process)
        data_lines = _seed_data_lines(system, process, seed)
        # Pull a few lines through the cache hierarchy so the validator's
        # cache-consistency sweep inspects resident lines, not empty sets
        # (the kernel warm path above fills only the TLB/MMU cache).
        for address in data_lines[:8] + pte_lines[:8]:
            system.hierarchy.read(address)
        return system, pte_lines, data_lines

    # The whole boot — build, map, warm, pick fault-target lines — is a
    # pure function of these params, so cells sharing them deep-restore
    # a snapshot (repro.harness.snapshot) instead of re-booting. Every
    # boot input enters the key (no exclusions: campaign timing is not
    # swept, so there is nothing to share across). A validating cell
    # always boots cold so the checker watches the machine from birth.
    if validate:
        system, pte_lines, data_lines = boot()
    else:
        system, pte_lines, data_lines = boot_snapshot.cached_boot(
            "fault_campaign_cell",
            {
                "workload": workload,
                "seed": seed,
                "mac_algorithm": mac_algorithm,
                "config": asdict(config),
                "spare_rows": spare_rows,
            },
            boot,
        )
    kernel = system.kernel

    checker = attach_validator(system) if validate else None
    injector = FaultInjector(seed=seed, max_phys_bits=config.max_phys_bits)
    taxonomy = TaxonomyCounter(f"fault_outcomes[{scenario}]", OUTCOME_CLASSES)
    manager = None
    if policy is not None:
        from repro.recovery.manager import RecoveryManager

        manager = RecoveryManager(kernel, policy)
    cell = CampaignCell(
        scenario=scenario,
        target="data" if scenario in DATA_SCENARIOS else "pte",
        workload=workload,
        seed=seed,
        recovery_policy=policy.name if policy is not None else None,
    )

    memory = system.memory
    controller = system.controller
    for trial in range(trials):
        spec = injector.generate(scenario, trial, pte_lines, data_lines)
        snapshot = memory.read_line(spec.line_address)
        epoch_before = system.guard.epoch if system.guard is not None else 0
        original_protected = pattern.mask_unprotected(
            snapshot, config.max_phys_bits
        )
        system.dram.inject_fault(
            spec.line_address, spec.bit_offsets, scenario=scenario
        )
        faulty = memory.read_line(spec.line_address)
        cell.trials += 1
        cell.bits_injected += len(spec.bit_offsets)
        if manager is not None:
            cell.exposure_cycles += TRIAL_WINDOW_CYCLES
        if spec.is_pte:
            tampered = (
                pattern.mask_unprotected(faulty, config.max_phys_bits)
                != original_protected
            )
        else:
            tampered = faulty != snapshot
        if tampered:
            cell.protected_tampered += 1

        try:
            response = controller.read_access(
                spec.line_address, is_pte=spec.is_pte
            )
        except Exception:  # noqa: BLE001 — any escape is a simulator crash
            taxonomy.increment("sim_crash")
        else:
            klass = _classify(
                response,
                spec.is_pte,
                snapshot,
                original_protected,
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
                    cell.downtime_cycles += min(
                        event.latency_cycles, TRIAL_WINDOW_CYCLES
                    )
                else:
                    klass = "panic"
                    cell.downtime_cycles += TRIAL_WINDOW_CYCLES
            taxonomy.increment(klass)
            outcome = response.guard_outcome
            if (
                klass == "detected_corrected"
                and outcome is not None
                and outcome.correction is not None
                and outcome.correction.winning_step
            ):
                step = outcome.correction.winning_step
                cell.winning_steps[step] = cell.winning_steps.get(step, 0) + 1
        finally:
            # Scrub the fault so the next trial (and the invariant sweep)
            # starts from pristine state; raw write bypasses the guard.
            if (
                manager is not None
                and spec.is_pte
                and system.guard is not None
                and system.guard.epoch != epoch_before
            ):
                # A mid-trial rekey invalidated the raw snapshot (its MAC
                # belongs to the old key epoch): restore the *logical*
                # content through the controller write path instead, so a
                # fresh current-epoch MAC is embedded.
                logical = (
                    pattern.strip_metadata(snapshot)
                    if config.identifier_enabled
                    else pattern.strip_mac(snapshot)
                )
                controller.write_access(spec.line_address, logical)
            else:
                memory.write_line(spec.line_address, snapshot)

        if checker is not None and (
            trial % _VALIDATE_EVERY == _VALIDATE_EVERY - 1
            or trial == trials - 1
        ):
            checker.run_all(context=f"{scenario} trial {trial}")

    if checker is not None:
        cell.invariant_sweeps = checker.stats.get("sweeps")
    if manager is not None:
        cell.rows_retired = manager.stats.get("rows_retired")
        cell.adaptive_rekeys = manager.stats.get("adaptive_rekeys")
        cell.spare_rows_left = system.dram.spare_rows_free
    cell.outcomes = taxonomy.as_dict()
    return cell


def _seed_data_lines(system, process, seed: int, count: int = 64) -> List[int]:
    """Fill ``count`` data-page lines with random bytes via the real write
    path (guard pattern-match included) and return their addresses."""
    import random

    from repro.common.config import CACHELINE_BYTES, PAGE_BYTES

    rng = random.Random(("fault-data-lines", seed).__str__())
    lines: List[int] = []
    for vpn in sorted(process.frames)[:count]:
        address = process.frames[vpn] * PAGE_BYTES
        payload = bytes(rng.randrange(256) for _ in range(CACHELINE_BYTES))
        system.controller.write_access(address, payload)
        lines.append(address)
    return lines


# -- fabric integration --------------------------------------------------------


def campaign_cell_job(
    scenario: str,
    trials: int,
    seed: int,
    workload: str,
    validate: bool,
    mac_algorithm: str = "blake2",
    recovery: Optional[dict] = None,
):
    """The :class:`SimJob` form of one campaign cell.

    The seed (and every fault-relevant parameter, the recovery policy
    included) sits in the params and hence in the content-addressed
    cache key; the label is display-only.
    """
    from repro.harness.parallel import SimJob

    return SimJob(
        kind="fault_campaign_cell",
        params={
            "scenario": scenario,
            "trials": trials,
            "seed": seed,
            "workload": workload,
            "validate": validate,
            "mac_algorithm": mac_algorithm,
            "recovery": recovery,
        },
        label=f"campaign/{scenario}",
    )


def run_campaign(
    scenarios: Optional[Sequence[str]] = None,
    trials_per_cell: int = 120,
    seed: int = 11,
    workload: str = "povray",
    validate: bool = False,
    mac_algorithm: str = "blake2",
    workers: Optional[int] = None,
    cache=None,
    recovery: Optional[dict] = None,
) -> CampaignResult:
    """Run a full campaign, one fabric job per scenario cell."""
    from repro.faults.inject import ALL_SCENARIOS
    from repro.harness.parallel import run_jobs

    chosen = tuple(scenarios) if scenarios else ALL_SCENARIOS
    unknown = sorted(set(chosen) - set(ALL_SCENARIOS))
    if unknown:
        raise ValueError(
            f"unknown campaign scenario(s) {unknown}; "
            f"available: {', '.join(ALL_SCENARIOS)}"
        )
    jobs = [
        campaign_cell_job(
            scenario,
            trials_per_cell,
            seed,
            workload,
            validate,
            mac_algorithm,
            recovery,
        )
        for scenario in chosen
    ]
    return CampaignResult(cells=run_jobs(jobs, workers=workers, cache=cache))
