"""PT-Guard: the memory-controller-resident integrity mechanism (Sec IV-V).

:class:`PTGuard` transforms lines crossing the DRAM boundary:

* **Writes** (:meth:`process_write`): lines matching the bit pattern (96
  zeroed PFN bits; 152 bits with the identifier extension) get the 96-bit
  MAC embedded — all PTE lines and pattern-matching data lines. Lines
  *not* matching are checked for MAC collisions and tracked in the CTB.
* **Reads** (:meth:`process_read`): CTB hits are forwarded untouched. Page
  -table-walk reads (``is_pte``) always verify the MAC; a mismatch either
  enters best-effort correction (Sec VI) or raises the ``PTECheckFailed``
  outcome the CPU turns into an OS exception. Regular reads strip the MAC
  when it matches and are forwarded untouched otherwise. Optimized
  PT-Guard skips MAC work entirely for reads whose identifier field does
  not carry the identifier, and serves all-zero lines from the
  pre-computed MAC-zero without a MAC-unit pass.

Timing: the guard reports ``latency_cycles`` per operation (MAC-unit
delay on the read critical path); the memory controller adds it to the
DRAM latency. Write-side MAC work is off the critical path (write buffer)
and contributes no latency, matching the paper's model.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, NamedTuple, Optional

from repro.common.config import CACHELINE_BYTES, PTGuardConfig
from repro.common.errors import CollisionBufferOverflow
from repro.common.stats import StatGroup
from repro.core import pattern
from repro.core.correction import CorrectionEngine, CorrectionResult
from repro.core.ctb import CollisionTrackingBuffer
from repro.core.engine import MACEngine
from repro.crypto.mac import make_line_mac

MAC_KEY_SRAM_BYTES = 32  # 256-bit QARMA key
IDENTIFIER_SRAM_BYTES = 7  # 56-bit identifier
MAC_ZERO_SRAM_BYTES = 12  # 96-bit pre-computed MAC-zero


class WriteOutcome(NamedTuple):
    """Result of pushing one line through the guard on its way to DRAM."""

    stored_line: bytes
    embedded: bool  # MAC (and identifier) were embedded
    collision: bool  # line tracked in the CTB
    zero_line: bool  # MAC-zero fast path used


class ReadOutcome(NamedTuple):
    """Result of pulling one line through the guard on its way from DRAM."""

    line: bytes  # what is forwarded to the caches / TLB
    latency_cycles: int  # MAC-unit delay on the critical path
    mac_checked: bool
    mac_matched: bool
    stripped: bool
    ctb_hit: bool
    pte_check_failed: bool  # the PTECheckFailed response-bus bit
    corrected: bool = False
    correction: Optional[CorrectionResult] = None
    corrected_stored_line: Optional[bytes] = None  # write back to DRAM if set


class PTGuard:
    """The PT-Guard mechanism, parameterised by :class:`PTGuardConfig`."""

    def __init__(
        self,
        config: PTGuardConfig,
        mac_algorithm: str = "blake2",
        secret: Optional[bytes] = None,
        seed: int = 2023,
    ):
        self.config = config
        self.mac_algorithm = mac_algorithm
        self._secret = secret if secret is not None else seed.to_bytes(16, "little")
        self._epoch = 0
        self.engine = MACEngine(
            make_line_mac(mac_algorithm, self._secret, config.mac_bits, epoch=0),
            max_phys_bits=config.max_phys_bits,
            soft_match_k=config.soft_match_k,
        )
        self.ctb = CollisionTrackingBuffer(config.ctb_entries)
        # The 56-bit identifier is a random value fixed at boot (Sec V-A).
        self.identifier = random.Random(seed).getrandbits(pattern.ID_BITS_PER_LINE)
        self._mac_zero = self.engine.compute_zero_mac() if config.mac_zero_enabled else None
        self.correction: Optional[CorrectionEngine] = None
        if config.correction_enabled:
            self.correction = CorrectionEngine(
                self.engine,
                almost_zero_threshold=config.almost_zero_threshold,
                identifier=self.identifier if config.identifier_enabled else None,
            )
        # Differential-oracle sampling period (None = disarmed). Kept on
        # the guard, not the engine, so re-arming survives rekey().
        self._oracle_period: Optional[int] = None
        # Adaptive rekeying (Sec VII-B, repro.recovery): sliding window of
        # integrity-incident ticks; disarmed until arm_adaptive_rekey().
        self._rekey_threshold: Optional[int] = None
        self._rekey_window = 0
        self._rekey_cooldown = 0
        self._incident_ticks: Deque[int] = deque()
        self._incident_clock = 0
        self._last_adaptive_tick: Optional[int] = None
        self.stats = StatGroup("ptguard")

    # -- write path ---------------------------------------------------------

    def process_write(self, address: int, line: bytes) -> WriteOutcome:
        """Transform a line leaving the memory controller for DRAM."""
        self.stats.increment("writes")
        # The stored contents of this address are about to change: drop any
        # bulk-tag hint so later reads re-validate against the new bytes.
        self.engine.drop_hint(address)
        value = int.from_bytes(line, "little")
        fields = pattern.MAC_FIELDS_LINE_MASK
        if self.config.identifier_enabled:
            fields = pattern.METADATA_LINE_MASK
        if not value & fields:  # the bit-pattern match
            stored, zero_line = self._embed(address, value)
            self.stats.increment("embedded_writes")
            if zero_line:
                self.stats.increment("zero_line_writes")
            # A protected line cannot collide; clear any stale CTB entry.
            self.ctb.remove(address)
            return WriteOutcome(
                stored_line=stored, embedded=True, collision=False, zero_line=zero_line
            )

        collision = self._is_colliding(address, value)
        if collision:
            self.stats.increment("collisions")
            self.ctb.insert(address)  # may raise CollisionBufferOverflow
        else:
            self.ctb.remove(address)
        return WriteOutcome(
            stored_line=line, embedded=False, collision=collision, zero_line=False
        )

    def _embed(self, address: int, value: int) -> tuple[bytes, bool]:
        """Embed MAC (+identifier) into a pattern-matching line value."""
        zero_line = False
        if self.config.mac_zero_enabled and self._mac_zero is not None and not value:
            tag = self._mac_zero
            zero_line = True
        else:
            tag = self.engine.compute_masked(value & self.engine.protected_mask, address)
            self.stats.increment("mac_computations_write")
        stored = pattern.with_mac(value, self._fit_tag(tag))
        if self.config.identifier_enabled:
            stored = pattern.with_identifier(stored, self.identifier)
        return stored.to_bytes(CACHELINE_BYTES, "little"), zero_line

    def _fit_tag(self, tag: int) -> int:
        """Left-pad a narrower-than-96-bit MAC into the 96-bit field."""
        if self.engine.mac_bits < pattern.MAC_BITS_PER_LINE:
            return tag & ((1 << self.engine.mac_bits) - 1)
        return tag

    def _is_colliding(self, address: int, value: int) -> bool:
        """Would this non-pattern line be misread as MAC-embedded?"""
        if self.config.identifier_enabled:
            # With the identifier, a read only strips when the identifier
            # matches too; lines without it are never misinterpreted.
            if pattern.identifier_of(value) != self.identifier:
                return False
        engine = self.engine
        computed = engine.compute_masked(value & engine.protected_mask, address)
        self.stats.increment("mac_computations_write")
        return pattern.mac_of(value) == self._fit_tag(computed)

    # -- read path -------------------------------------------------------------

    def process_read(self, address: int, stored_line: bytes, is_pte: bool) -> ReadOutcome:
        """Transform a line arriving from DRAM before it reaches the caches."""
        self.stats.increment("reads")
        value = int.from_bytes(stored_line, "little")
        if is_pte:
            self.stats.increment("pte_reads")
            return self._read_pte(address, stored_line, value)
        return self._read_data(address, stored_line, value)

    def _mac_matches(self, address: int, value: int) -> bool:
        """Exact check of the embedded MAC against one over ``value``."""
        engine = self.engine
        computed = engine.compute_masked(value & engine.protected_mask, address)
        self.stats.increment("mac_computations_read")
        return computed == self._fit_tag_stored(pattern.mac_of(value))

    def _read_pte(self, address: int, stored_line: bytes, value: int) -> ReadOutcome:
        """Page-table-walk read: the MAC check is mandatory (Sec IV-C)."""
        # Zero-line fast path: a never-written (all-zero) or MAC-zero line.
        fast = self._zero_fast_path(stored_line, value)
        if fast is not None:
            return fast

        latency = self.config.mac_latency_cycles
        if self._mac_matches(address, value):
            return ReadOutcome(
                line=self._strip(value),
                latency_cycles=latency,
                mac_checked=True,
                mac_matched=True,
                stripped=True,
                ctb_hit=False,
                pte_check_failed=False,
            )

        self.stats.increment("pte_integrity_failures")
        if self.correction is not None:
            correction = self.correction.correct(stored_line, address)
            corrected = correction.corrected_line
            if corrected is not None:
                self.stats.increment("pte_corrections")
                return ReadOutcome(
                    line=self._strip(int.from_bytes(corrected, "little")),
                    latency_cycles=latency,
                    mac_checked=True,
                    mac_matched=False,
                    stripped=True,
                    ctb_hit=False,
                    pte_check_failed=False,
                    corrected=True,
                    correction=correction,
                    corrected_stored_line=corrected,
                )
            self.stats.increment("pte_uncorrectable")
            return ReadOutcome(
                line=stored_line,
                latency_cycles=latency,
                mac_checked=True,
                mac_matched=False,
                stripped=False,
                ctb_hit=False,
                pte_check_failed=True,
                corrected=False,
                correction=correction,
            )
        return ReadOutcome(
            line=stored_line,
            latency_cycles=latency,
            mac_checked=True,
            mac_matched=False,
            stripped=False,
            ctb_hit=False,
            pte_check_failed=True,
        )

    def _read_data(self, address: int, stored_line: bytes, value: int) -> ReadOutcome:
        """Regular data read: strip opportunistically, never fault."""
        if self.ctb.contains(address):
            self.stats.increment("ctb_forwards")
            return ReadOutcome(
                line=stored_line,
                latency_cycles=0,
                mac_checked=False,
                mac_matched=False,
                stripped=False,
                ctb_hit=True,
                pte_check_failed=False,
            )

        if self.config.identifier_enabled:
            if pattern.identifier_of(value) != self.identifier:
                # Identifier absent: no MAC was embedded; skip the MAC unit.
                self.stats.increment("identifier_filtered")
                return ReadOutcome(
                    line=stored_line,
                    latency_cycles=0,
                    mac_checked=False,
                    mac_matched=False,
                    stripped=False,
                    ctb_hit=False,
                    pte_check_failed=False,
                )
            fast = self._zero_fast_path(stored_line, value)
            if fast is not None:
                return fast

        latency = self.config.mac_latency_cycles
        if self._mac_matches(address, value):
            return ReadOutcome(
                line=self._strip(value),
                latency_cycles=latency,
                mac_checked=True,
                mac_matched=True,
                stripped=True,
                ctb_hit=False,
                pte_check_failed=False,
            )
        # Mismatch on a data read: either an unprotected line or a flipped
        # protected one — forwarded unchanged, no new failure mode (Sec IV-E).
        return ReadOutcome(
            line=stored_line,
            latency_cycles=latency,
            mac_checked=True,
            mac_matched=False,
            stripped=False,
            ctb_hit=False,
            pte_check_failed=False,
        )

    def _zero_fast_path(self, stored_line: bytes, value: int) -> Optional[ReadOutcome]:
        """MAC-zero optimisation (Sec V-B): serve zero lines without the MAC unit."""
        if not self.config.mac_zero_enabled or self._mac_zero is None:
            return None
        if not value:
            # Never written through the guard; nothing to strip.
            self.stats.increment("zero_line_fastpath")
            return ReadOutcome(
                line=stored_line,
                latency_cycles=0,
                mac_checked=False,
                mac_matched=True,
                stripped=False,
                ctb_hit=False,
                pte_check_failed=False,
            )
        if (
            not value & ~pattern.METADATA_LINE_MASK
            and pattern.mac_of(value) == self._fit_tag(self._mac_zero)
            and (
                not self.config.identifier_enabled
                or pattern.identifier_of(value) == self.identifier
            )
        ):
            self.stats.increment("zero_line_fastpath")
            return ReadOutcome(
                line=self._strip(value),
                latency_cycles=0,
                mac_checked=False,
                mac_matched=True,
                stripped=True,
                ctb_hit=False,
                pte_check_failed=False,
            )
        return None

    def _fit_tag_stored(self, stored_mac: int) -> int:
        if self.engine.mac_bits < pattern.MAC_BITS_PER_LINE:
            return stored_mac & ((1 << self.engine.mac_bits) - 1)
        return stored_mac

    def _strip(self, value: int) -> bytes:
        fields = pattern.MAC_FIELDS_LINE_MASK
        if self.config.identifier_enabled:
            fields = pattern.METADATA_LINE_MASK
        return (value & ~fields).to_bytes(CACHELINE_BYTES, "little")

    # -- re-keying (Sec VII-B) -------------------------------------------------

    def rekey(self) -> None:
        """Rotate to a fresh MAC key epoch and clear the CTB.

        The system embedding the guard is responsible for walking memory
        (read-under-old-key, write-under-new-key) around this call; see
        :meth:`repro.harness.system.System.rekey_memory`.
        """
        self._epoch += 1
        self.stats.increment("rekeys")
        # A fresh engine also starts with no bulk-tag hints: tags computed
        # under the previous key epoch can never be served again.
        self.engine = MACEngine(
            make_line_mac(
                self.mac_algorithm, self._secret, self.config.mac_bits, epoch=self._epoch
            ),
            max_phys_bits=self.config.max_phys_bits,
            soft_match_k=self.config.soft_match_k,
        )
        self._mac_zero = (
            self.engine.compute_zero_mac() if self.config.mac_zero_enabled else None
        )
        if self.correction is not None:
            self.correction = CorrectionEngine(
                self.engine,
                almost_zero_threshold=self.config.almost_zero_threshold,
                identifier=self.identifier if self.config.identifier_enabled else None,
            )
        if self._oracle_period is not None:
            # The retired engine took its oracle with it; arm the new one
            # against a reference MAC of the *new* epoch.
            self.engine.attach_oracle(
                self.build_reference_mac().compute, self._oracle_period
            )
        self.ctb.clear()

    # -- adaptive rekeying (repro.recovery) -------------------------------------

    def arm_adaptive_rekey(
        self, threshold: int, window: int, cooldown: int = 0
    ) -> None:
        """Arm the incident-rate rekey trigger.

        ``threshold`` incidents inside a sliding window of ``window``
        incident ticks recommend a rekey; ``cooldown`` ticks must then
        pass before another adaptive rekey may fire (the storm brake —
        without it a sustained attack turns the defence itself into a
        denial of service, one key-sweep per fault).
        """
        if threshold < 1 or window < 1 or cooldown < 0:
            raise ValueError("adaptive rekey parameters out of range")
        self._rekey_threshold = threshold
        self._rekey_window = window
        self._rekey_cooldown = cooldown
        self._incident_ticks.clear()
        self._last_adaptive_tick = None

    def disarm_adaptive_rekey(self) -> None:
        self._rekey_threshold = None
        self._incident_ticks.clear()

    def record_incident(self) -> bool:
        """Advance the incident clock by one detected-uncorrectable fault.

        Returns True when the caller should perform an epoch rekey now
        (window crossed the threshold and the cooldown has expired). The
        guard only *recommends*: the memory sweep around :meth:`rekey`
        is the OS's job (:meth:`repro.os.kernel.Kernel.rekey_memory`).
        """
        if self._rekey_threshold is None:
            return False
        self._incident_clock += 1
        tick = self._incident_clock
        ticks = self._incident_ticks
        ticks.append(tick)
        floor = tick - self._rekey_window
        while ticks and ticks[0] <= floor:
            ticks.popleft()
        self.stats.increment("incidents")
        if len(ticks) < self._rekey_threshold:
            return False
        if (
            self._last_adaptive_tick is not None
            and tick - self._last_adaptive_tick < self._rekey_cooldown
        ):
            # Storm: the window is saturated but we just rekeyed. Count
            # it — a high suppressed count is the rekey-storm signal.
            self.stats.increment("adaptive_rekeys_suppressed")
            return False
        self._last_adaptive_tick = tick
        ticks.clear()  # the window restarts under the new key
        self.stats.increment("adaptive_rekey_triggers")
        return True

    @property
    def incident_clock(self) -> int:
        return self._incident_clock

    # -- runtime validation (repro.faults.invariants) ---------------------------

    def build_reference_mac(self):
        """An independently constructed MAC for the differential oracle.

        Same algorithm, secret, width and epoch as the live engine, but
        built via the reference path (for qarma: the cell-by-cell cipher
        instead of the lookup tables).
        """
        return make_line_mac(
            self.mac_algorithm,
            self._secret,
            self.config.mac_bits,
            epoch=self._epoch,
            reference=True,
        )

    def arm_differential_oracle(self, sample_period: int = 64) -> None:
        """Cross-check one in ``sample_period`` MAC computations against
        the reference path; stays armed across :meth:`rekey`."""
        self._oracle_period = sample_period
        self.engine.attach_oracle(self.build_reference_mac().compute, sample_period)

    def disarm_differential_oracle(self) -> None:
        self._oracle_period = None
        self.engine.detach_oracle()

    @property
    def epoch(self) -> int:
        return self._epoch

    # -- cost accounting (Sec V-E) ------------------------------------------------

    @property
    def sram_bytes(self) -> int:
        """Total SRAM in the memory controller: 52 B baseline, 71 B optimized."""
        total = MAC_KEY_SRAM_BYTES + self.ctb.sram_bytes
        if self.config.identifier_enabled:
            total += IDENTIFIER_SRAM_BYTES
        if self.config.mac_zero_enabled:
            total += MAC_ZERO_SRAM_BYTES
        return total
