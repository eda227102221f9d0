"""Deterministic, seed-addressed fault injection.

Two layers live here:

* **Decision primitives** — :func:`deterministic_fraction`,
  :func:`deterministic_choice` and :func:`garble_payload`, plus
  :func:`parse_policy_spec`, the one ``name=value`` grammar both chaos
  policies are configured with. These are the single source of truth
  for seeded corruption decisions; the chaos harness
  (:mod:`repro.harness.chaos`) delegates to them so that harness-level
  and simulator-level corruption share one decision function. The
  digest format — ``sha256(f"{seed}:{channel}:{key}")`` —
  is load-bearing: chaos replay guarantees in ``tests/test_chaos.py``
  assert byte-identical fault patterns across runs and platforms.

* **Scenario generators** — :class:`FaultInjector` turns
  ``(scenario, trial)`` into a :class:`FaultSpec` naming a DRAM line and
  the exact bit offsets to flip. Scenarios cover the threat surface
  beyond the Rowhammer physics model: single/double PTE data bits,
  embedded-MAC bits, GbHammer-style global-bit flips, PFN-only and
  flags-only flips, multi-bit bursts, uniform per-bit flips at a Fig-9
  probability, and non-PT data lines (the protection boundary).

Bit addressing: a 64-byte line holds eight PTEs; bit ``b`` of PTE ``i``
is line bit ``64*i + b``, matching :mod:`repro.core.pattern`.
"""

from __future__ import annotations

import hashlib
import random
import typing
from dataclasses import dataclass, fields
from typing import Any, Sequence, Tuple

from repro.core import pattern

LINE_BITS = 512
PTE_BITS = 64
PTES_PER_LINE = 8

#: Scenarios that target page-table lines (protected by PT-Guard).
PTE_SCENARIOS: Tuple[str, ...] = (
    "pte_single",
    "pte_double",
    "mac_single",
    "burst",
    "global_bit",
    "pfn_only",
    "flags_only",
    "uniform",
)

#: Scenarios that target ordinary data lines (outside the protection
#: boundary — the taxonomy documents what PT-Guard does *not* cover).
DATA_SCENARIOS: Tuple[str, ...] = ("data_single",)

ALL_SCENARIOS: Tuple[str, ...] = PTE_SCENARIOS + DATA_SCENARIOS

#: x86 "global page" bit — the PTE bit GbHammer flips to splice a page
#: into another process's address space.
GLOBAL_BIT = 8

_BURST_WIDTH = 4


def _digest(seed: int, channel: str, key: str) -> bytes:
    """The shared decision digest. Format is frozen — see module doc."""
    material = f"{seed}:{channel}:{key}".encode("utf-8")
    return hashlib.sha256(material).digest()


def deterministic_fraction(seed: int, channel: str, key: str) -> float:
    """A uniform [0, 1) draw addressed by (seed, channel, key).

    Byte-compatible with the chaos harness's historical inline formula:
    the first 8 digest bytes as a big-endian integer over 2**64.
    """
    digest = _digest(seed, channel, key)
    return int.from_bytes(digest[:8], "big") / 2**64


def deterministic_choice(seed: int, channel: str, key: str, n: int) -> int:
    """A uniform index in [0, n) addressed by (seed, channel, key).

    Uses digest bytes 8:16 so a fraction and a choice drawn from the
    same address are independent.
    """
    if n <= 0:
        raise ValueError(f"deterministic_choice needs n >= 1, got {n}")
    digest = _digest(seed, channel, key)
    return int.from_bytes(digest[8:16], "big") % n


def parse_policy_spec(policy_class: Any, spec: str, what: str = "chaos") -> Any:
    """Parse a ``name=value,...`` spec into a ``policy_class`` dataclass.

    The grammar is read off the dataclass's fields: a float field is a
    probability in [0, 1], ``seed`` is any int, and every other field is
    an int count >= 1. Raises ``ValueError`` on unknown fields,
    malformed values or out-of-range numbers; ``what`` names the policy
    in those messages (``"chaos"``, ``"service chaos"``).
    """
    names = {f.name for f in fields(policy_class)}
    hints = typing.get_type_hints(policy_class)
    values: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, separator, raw = part.partition("=")
        name, raw = name.strip(), raw.strip()
        if not separator or not raw:
            raise ValueError(f"bad {what} field {part!r} (want name=value)")
        if name not in names:
            raise ValueError(f"unknown {what} field {name!r}")
        if hints[name] is float:
            probability = float(raw)
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{name} probability {probability} outside [0, 1]")
            values[name] = probability
        elif name == "seed":
            values[name] = int(raw)
        else:
            count = int(raw)
            if count < 1:
                raise ValueError(f"{name} must be >= 1")
            values[name] = count
    return policy_class(**values)


def garble_payload(data: bytes) -> bytes:
    """Corrupt a serialized payload the way the chaos harness does.

    Prepends junk and truncates — guaranteed to break both JSON framing
    and the payload digest, never to accidentally produce a valid entry.
    The exact bytes are frozen (chaos byte-identity guarantees).
    """
    return b'{"chaos": "corrupt", ' + data[: max(1, len(data) // 2)]


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: which line, which bits, what it models."""

    scenario: str
    line_address: int
    bit_offsets: Tuple[int, ...]  # offsets in [0, 512) within the line
    is_pte: bool
    description: str = ""

    def __post_init__(self) -> None:
        for offset in self.bit_offsets:
            if not 0 <= offset < LINE_BITS:
                raise ValueError(f"bit offset {offset} outside 64-byte line")


def _pte_offsets(pte_index: int, bit_positions: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sorted(pte_index * PTE_BITS + b for b in bit_positions))


class FaultInjector:
    """Seed-addressed generator of :class:`FaultSpec` per scenario.

    Every draw is a pure function of ``(seed, scenario, field, trial)``
    via :func:`deterministic_choice`, so a campaign regenerates the
    identical fault sequence on every run, platform, and worker layout.
    """

    def __init__(self, seed: int, max_phys_bits: int = 40,
                 flip_probability: float = 1.0 / 256.0):
        self.seed = seed
        self.max_phys_bits = max_phys_bits
        self.flip_probability = flip_probability
        # Protected positions per PTE, ascending (flags, OS bits, PFN,
        # protection keys / NX) — the bits the MAC covers.
        self._protected = pattern.protected_bit_positions(max_phys_bits)
        self._mac_positions = list(
            range(pattern.MAC_FIELD_LOW, pattern.MAC_FIELD_HIGH + 1)
        )
        self._pfn_positions = [
            b for b in self._protected if 12 <= b < max_phys_bits
        ]
        self._flag_positions = [b for b in self._protected if b < 12]

    # -- draw helpers -------------------------------------------------

    def _choice(self, scenario: str, field: str, trial: int, n: int) -> int:
        return deterministic_choice(
            self.seed, f"fault:{scenario}:{field}", str(trial), n
        )

    def _pick_line(self, scenario: str, trial: int,
                   lines: Sequence[int]) -> int:
        if not lines:
            raise ValueError(f"scenario {scenario!r} has no candidate lines")
        return lines[self._choice(scenario, "line", trial, len(lines))]

    def _pick_pte(self, scenario: str, trial: int) -> int:
        return self._choice(scenario, "pte", trial, PTES_PER_LINE)

    def _single_from(self, scenario: str, trial: int,
                     positions: Sequence[int]) -> Tuple[int, ...]:
        pte = self._pick_pte(scenario, trial)
        bit = positions[self._choice(scenario, "bit", trial, len(positions))]
        return _pte_offsets(pte, [bit])

    # -- scenario generators ------------------------------------------

    def generate(self, scenario: str, trial: int,
                 pte_lines: Sequence[int],
                 data_lines: Sequence[int]) -> FaultSpec:
        """Build the fault for ``trial`` of ``scenario``.

        ``pte_lines`` are line addresses holding live page-table entries;
        ``data_lines`` are ordinary (unprotected) lines. Both must be in
        a deterministic order — the injector indexes into them.
        """
        if scenario in DATA_SCENARIOS:
            line = self._pick_line(scenario, trial, data_lines)
            is_pte = False
        elif scenario in PTE_SCENARIOS:
            line = self._pick_line(scenario, trial, pte_lines)
            is_pte = True
        else:
            raise ValueError(f"unknown fault scenario {scenario!r}")

        if scenario == "pte_single":
            offsets = self._single_from(scenario, trial, self._protected)
            note = "single protected data bit"
        elif scenario == "pte_double":
            offsets = self._double_protected(trial)
            note = "two protected data bits"
        elif scenario == "mac_single":
            offsets = self._single_from(scenario, trial, self._mac_positions)
            note = "single embedded-MAC bit"
        elif scenario == "burst":
            start = self._choice(
                scenario, "start", trial, LINE_BITS - _BURST_WIDTH + 1
            )
            offsets = tuple(range(start, start + _BURST_WIDTH))
            note = f"{_BURST_WIDTH}-bit burst"
        elif scenario == "global_bit":
            pte = self._pick_pte(scenario, trial)
            offsets = _pte_offsets(pte, [GLOBAL_BIT])
            note = "GbHammer-style global-bit flip"
        elif scenario == "pfn_only":
            offsets = self._single_from(scenario, trial, self._pfn_positions)
            note = "single PFN bit"
        elif scenario == "flags_only":
            offsets = self._single_from(scenario, trial, self._flag_positions)
            note = "single protected flag bit"
        elif scenario == "uniform":
            offsets = self._uniform_offsets(trial)
            note = f"uniform p={self.flip_probability:g} per bit"
        else:  # data_single
            offsets = (self._choice(scenario, "bit", trial, LINE_BITS),)
            note = "single bit in an unprotected data line"

        return FaultSpec(
            scenario=scenario,
            line_address=line,
            bit_offsets=offsets,
            is_pte=is_pte,
            description=note,
        )

    def _double_protected(self, trial: int) -> Tuple[int, ...]:
        """Two distinct protected (pte, bit) positions in one line."""
        combos = PTES_PER_LINE * len(self._protected)
        first = self._choice("pte_double", "first", trial, combos)
        second = self._choice("pte_double", "second", trial, combos - 1)
        if second >= first:
            second += 1

        def to_offset(combo: int) -> int:
            pte, idx = divmod(combo, len(self._protected))
            return pte * PTE_BITS + self._protected[idx]

        return tuple(sorted((to_offset(first), to_offset(second))))

    def _uniform_offsets(self, trial: int) -> Tuple[int, ...]:
        """Per-bit coin flips at ``flip_probability`` (Fig-9 regime).

        Re-salts until at least one bit flips so every campaign trial
        injects a real fault; the redraw is itself deterministic.
        """
        for attempt in range(64):
            rng = random.Random(
                _digest(self.seed, f"fault:uniform:{attempt}", str(trial))
            )
            offsets = tuple(
                b for b in range(LINE_BITS)
                if rng.random() < self.flip_probability
            )
            if offsets:
                return offsets
        # p >= 1/512 makes 64 consecutive empty draws vanishingly rare;
        # fall back to a single deterministic bit rather than loop on.
        return (deterministic_choice(
            self.seed, "fault:uniform:fallback", str(trial), LINE_BITS
        ),)
