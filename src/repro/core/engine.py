"""MAC engine: computes and verifies the PTE-line MAC (paper Sec IV-F, VI-C).

Wraps a :class:`repro.crypto.mac.LineMAC` with the PT-Guard specifics:

* the MAC input is the line with unprotected bits masked out
  (:func:`repro.core.pattern.mask_unprotected`), bound to the line address;
* verification supports *soft matching* — accepting a stored MAC within
  Hamming distance ``k`` of the computed one — which tolerates up to ``k``
  bit-flips in the MAC itself (Section VI-C) at a quantified security cost
  (Section VI-E, see :mod:`repro.core.security`).

Callers work on a line as one 512-bit little-endian integer (see
:mod:`repro.core.pattern`): the guard parses each line once and the
correction search derives its guesses from that integer, so the single
entry point is :meth:`MACEngine.compute_masked`, which takes the
*already masked* value (``value & engine.protected_mask``). It is the one
path for every tag: the backend's ``compute``, then the
differential-oracle countdown. Every call ticks ``computations`` — the
simulated MAC-unit invocation count used for energy accounting — and
computes the tag afresh: there is no host-side tag reuse, so a flipped
protected bit always reaches the honest computation.
:meth:`MACEngine.compute` and :meth:`MACEngine.verify` are the
bytes-domain wrappers over it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.bitops import hamming_distance
from repro.common.config import CACHELINE_BYTES
from repro.common.errors import InvariantViolation
from repro.common.stats import StatGroup
from repro.crypto.mac import LineMAC
from repro.core import pattern


class VerifyResult(NamedTuple):
    """Outcome of a MAC verification."""

    ok: bool
    distance: int  # Hamming distance between stored and computed MAC
    soft: bool  # True when the match needed the soft-match allowance


class MACEngine:
    """Computes/verifies PTE-line MACs for the memory controller.

    Oracle activity is observable through :attr:`stats`.
    """

    def __init__(
        self,
        line_mac: LineMAC,
        max_phys_bits: int,
        soft_match_k: int = 0,
    ):
        self.line_mac = line_mac
        self.max_phys_bits = max_phys_bits
        self.protected_mask = pattern.protected_line_mask(max_phys_bits)
        self.soft_match_k = soft_match_k
        self.computations = 0  # MAC-unit invocations (for energy accounting)
        # Differential oracle (repro.faults.invariants): every
        # ``_oracle_period``-th fresh computation is recomputed through an
        # independent reference path and must agree bit-for-bit.
        self._oracle = None
        self._oracle_period = 0
        self._oracle_countdown = 0
        self.stats = StatGroup("mac_engine")

    @property
    def mac_bits(self) -> int:
        return self.line_mac.mac_bits

    def compute(self, line: bytes, address: int) -> int:
        """MAC over the protected bits of ``line``, bound to ``address``."""
        return self.compute_masked(
            int.from_bytes(line, "little") & self.protected_mask, address
        )

    def compute_masked(self, masked: int, address: int) -> int:
        """MAC of a line value whose unprotected bits are already zero."""
        self.computations += 1
        tag = self.line_mac.compute(
            masked.to_bytes(CACHELINE_BYTES, "little"), address
        )
        if self._oracle is not None:
            self._oracle_countdown -= 1
            if self._oracle_countdown <= 0:
                self._oracle_countdown = self._oracle_period
                self._check_oracle(masked, address, tag)
        return tag

    def attach_oracle(self, reference_compute, sample_period: int = 64) -> None:
        """Arm the differential oracle (``--validate``).

        ``reference_compute(masked_line, address)`` must be an
        independently constructed MAC (for qarma: the cell-by-cell
        reference path; see :func:`repro.crypto.mac.make_line_mac` with
        ``reference=True``). One in ``sample_period`` fresh computations
        is cross-checked; divergence raises
        :class:`~repro.common.errors.InvariantViolation`.
        """
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        self._oracle = reference_compute
        self._oracle_period = sample_period
        self._oracle_countdown = 1  # check the very next computation

    def detach_oracle(self) -> None:
        self._oracle = None
        self._oracle_period = 0
        self._oracle_countdown = 0

    def _check_oracle(self, masked: int, address: int, tag: int) -> None:
        expected = self._oracle(masked.to_bytes(CACHELINE_BYTES, "little"), address)
        self.stats.increment("oracle_checks")
        if expected != tag:
            self.stats.increment("oracle_divergences")
            raise InvariantViolation(
                f"MAC differential oracle diverged at line {address:#x}: "
                f"fast path {tag:#x} != reference {expected:#x}"
            )

    def compute_zero_mac(self) -> int:
        """The pre-computed MAC of an all-zero line *without* address binding.

        Stored on-chip (12 bytes) by the MAC-zero optimisation (Sec V-B) so
        zero cachelines never pay MAC-computation latency.
        """
        return self.line_mac.compute(bytes(64), 0)

    def verify(self, line: bytes, address: int, stored_mac: int, soft: bool = False) -> VerifyResult:
        """Check ``stored_mac`` against the MAC computed over ``line``.

        With ``soft=True`` the check passes when the Hamming distance is at
        most ``soft_match_k`` (fault-tolerant MAC, Sec VI-C).
        """
        distance = hamming_distance(self.compute(line, address), stored_mac)
        if distance == 0:
            return VerifyResult(ok=True, distance=0, soft=False)
        if soft and distance <= self.soft_match_k:
            return VerifyResult(ok=True, distance=distance, soft=True)
        return VerifyResult(ok=False, distance=distance, soft=False)


def register_invariants(checker, engine_fn, reference_fn) -> None:
    """Register the MAC differential check with an invariant checker.

    ``engine_fn``/``reference_fn`` are zero-argument callables resolving
    the *current* engine and a fresh reference MAC — callables, not
    objects, because :meth:`PTGuard.rekey` replaces the engine wholesale
    and a captured instance would silently check a retired key.
    """

    def check():
        engine = engine_fn()
        reference = reference_fn()
        probe = bytes(64)
        expected = reference.compute(probe, 0)
        actual = engine.line_mac.compute(probe, 0)
        if expected != actual:
            return [
                f"MAC fast path diverges from reference on the zero line: "
                f"{actual:#x} != {expected:#x}"
            ]
        return []

    checker.register("mac_differential_oracle", check)
