"""The attack-response state machine: uncorrectable fault -> degraded mode.

:class:`RecoveryManager` is the OS-side handler behind the
``PTECheckFailed`` exception. Where the seed simulator killed the victim
process and called the trial terminal, the manager walks a strictly
ordered sequence of degraded modes gated by :class:`RecoveryPolicy`:

1. **reconstruct** the corrupted page-table cacheline from the kernel's
   shadow reverse map (:meth:`repro.os.kernel.Kernel.reconstruct_pte_line`),
   re-MACed through the real controller write path and re-verified
   through the real isPTE read path;
2. **retire** the victim DRAM row once it has produced
   ``retire_threshold`` uncorrectable faults, migrating its contents to
   a spare row (:meth:`repro.mem.controller.MemoryController.retire_row_of`)
   — bounded by the spare budget;
3. **rekey** adaptively: every incident ticks the guard's sliding
   window; when it recommends a rotation the manager drives the full
   Sec VII-B memory sweep (:meth:`repro.os.kernel.Kernel.rekey_memory`);
4. **panic** when the line still fails verification — the terminal
   outcome availability accounting charges downtime for.

Latency accounting is honest: every event carries the *actual*
controller cycles its stages consumed (reconstruction write+verify,
migration derived from the DRAM timing config, the rekey sweep) plus the
policy's fixed OS trap overhead. All decisions are deterministic —
counters and thresholds only, no clocks, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.stats import StatGroup
from repro.recovery.policy import RecoveryPolicy

RowKey = Tuple[int, int, int, int]


@dataclass
class RecoveryEvent:
    """One uncorrectable fault and everything the response did about it."""

    line_address: int
    row_key: RowKey
    #: terminal classification: "reconstructed" | "retired" | "panic"
    action: str
    #: stages that ran, in order (e.g. ("reconstruct", "retire", "rekey"))
    stages: Tuple[str, ...]
    #: OS trap overhead + actual controller cycles of every stage
    latency_cycles: int
    #: True when the line verifies again (action != "panic")
    recovered: bool
    retired: bool = False
    rekeyed: bool = False
    #: guard key epoch after the response completed
    epoch: int = 0
    #: per-stage cycle attribution ("trap" / "reconstruct" / "migrate" /
    #: "rekey"); values always sum to ``latency_cycles``, so downtime is
    #: attributable without double counting
    stage_cycles: Dict[str, int] = field(default_factory=dict)


class RecoveryManager:
    """Policy-driven responder to detected-uncorrectable PTE faults."""

    def __init__(self, kernel, policy: Optional[RecoveryPolicy] = None):
        self.kernel = kernel
        self.controller = kernel.controller
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.stats = StatGroup("recovery")
        self.events: List[RecoveryEvent] = []
        self._row_faults: Dict[RowKey, int] = {}
        # Latched on the first failed retirement: once the spare budget
        # is gone it never refills, so later events fall straight back to
        # reconstruction instead of re-attempting (and re-counting) an
        # exhausted migration. Keeps ``row_retirements_exhausted`` an
        # edge counter, not a per-fault drumbeat, under sustained attack.
        self._spares_exhausted = False
        guard = self.controller.ptguard
        if guard is not None and self.policy.rekey_enabled:
            guard.arm_adaptive_rekey(
                self.policy.rekey_threshold,
                self.policy.rekey_window,
                self.policy.rekey_cooldown,
            )

    # -- the handler ---------------------------------------------------------

    def handle_pte_check_failed(self, line_address: int) -> RecoveryEvent:
        """Run the full response to one uncorrectable PTE-line fault."""
        policy = self.policy
        dram = self.controller.dram
        row_key = dram.mapper.row_key_of(line_address)
        self._row_faults[row_key] = self._row_faults.get(row_key, 0) + 1
        cycles = policy.trap_overhead_cycles
        stage_cycles: Dict[str, int] = {"trap": policy.trap_overhead_cycles}
        stages: List[str] = []
        recovered = False

        if policy.reconstruct_enabled:
            stages.append("reconstruct")
            recovered, reconstruct_cycles = self.kernel.reconstruct_pte_line(
                line_address
            )
            cycles += reconstruct_cycles
            stage_cycles["reconstruct"] = reconstruct_cycles

        # Stage order is load-bearing: the retire fallback (including the
        # exhausted-budget verdict) resolves *before* any rekey
        # accounting, so a spare-exhaustion and a rekey trigger landing
        # in the same window attribute deterministically and never
        # charge the same cycles twice.
        retired = False
        if (
            policy.retire_enabled
            and not self._spares_exhausted
            and self._row_faults[row_key] >= policy.retire_threshold
        ):
            stages.append("retire")
            if self.controller.retire_row_of(line_address) is not None:
                retired = True
                migration = self._migration_cycles()
                cycles += migration
                stage_cycles["migrate"] = migration
                # The spare starts with a clean slate of fault history.
                self._row_faults.pop(row_key, None)
            else:
                self._spares_exhausted = True
                self.stats.increment("retire_fallbacks")

        rekeyed = False
        guard = self.controller.ptguard
        if guard is not None and policy.rekey_enabled:
            # Every incident ticks the window, recovered or not: a storm
            # of *successfully* reconstructed faults is still an attack.
            if guard.record_incident():
                stages.append("rekey")
                self.kernel.rekey_memory()
                cycles += self.kernel.last_rekey_cycles
                stage_cycles["rekey"] = self.kernel.last_rekey_cycles
                rekeyed = True

        if recovered:
            action = "retired" if retired else "reconstructed"
        else:
            action = "panic"
        event = RecoveryEvent(
            line_address=line_address,
            row_key=row_key,
            action=action,
            stages=tuple(stages),
            latency_cycles=cycles,
            recovered=recovered,
            retired=retired,
            rekeyed=rekeyed,
            epoch=guard.epoch if guard is not None else 0,
            stage_cycles=stage_cycles,
        )
        self.events.append(event)
        self.stats.increment(f"events_{action}")
        if retired:
            self.stats.increment("rows_retired")
        if rekeyed:
            self.stats.increment("adaptive_rekeys")
        return event

    def _migration_cycles(self) -> int:
        """Cost of a row migration, derived from the DRAM timing config.

        One activation each of source and spare row, then a read + write
        per cacheline at row-hit latency. The copy itself runs below the
        controller (raw beats, MACs preserved), so this is modelled from
        the same timing parameters every other access pays.
        """
        timing = self.controller.dram.config.timing
        lines = self.controller.dram.mapper.lines_per_row
        return 2 * timing.row_miss_cycles + 2 * lines * timing.row_hit_cycles

    # -- accounting ----------------------------------------------------------

    def row_fault_count(self, row_key: RowKey) -> int:
        return self._row_faults.get(row_key, 0)
