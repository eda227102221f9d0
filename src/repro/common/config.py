"""System configuration dataclasses (paper Table III).

The defaults reproduce the paper's baseline system: a 3 GHz in-order x86_64
core, 64-entry fully-associative TLB, 8 KB MMU cache, 32 KB L1, 256 KB L2,
2 MB L3 and 4 GB of DDR4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.common.bitops import is_pow2
from repro.common.errors import ConfigurationError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

CACHELINE_BYTES = 64
PAGE_BYTES = 4 * KIB
PTE_BYTES = 8
PTES_PER_LINE = CACHELINE_BYTES // PTE_BYTES  # 8

DEFAULT_BATCH_SIZE = 4096


def batch_size(default: int = DEFAULT_BATCH_SIZE) -> int:
    """Execution batch size from the ``REPRO_BATCH`` environment variable.

    :meth:`repro.cpu.core.InOrderCore.run` replays trace records in
    batches of this many accesses through the fused loop
    (:mod:`repro.cpu.batch_core`); ``0`` or ``1`` selects the scalar
    reference loop (also forced when numpy is unavailable). The two paths
    are bit-identical — the knob exists for differential testing
    (``--batch-size`` on the CLI, the CI ``batch-equivalence-smoke``
    job) and for bisecting, not for tuning results. Unset or invalid
    values fall back to ``default``.
    """
    raw = os.environ.get("REPRO_BATCH")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else 0


def boot_snapshot_enabled() -> bool:
    """``REPRO_BOOT_SNAPSHOT`` gate for the post-boot snapshot cache.

    On by default: fabric cells that share a boot configuration restore
    a deep copy of a memoized fully-booted machine instead of re-booting
    (:mod:`repro.harness.snapshot`), which is what makes cold campaign
    sweeps cheap. ``0``/``false``/``off``/``no`` force every cell to
    boot from scratch — the reference behaviour the CI
    ``snapshot-equivalence-smoke`` job byte-compares against. Runs under
    ``--validate`` bypass snapshots regardless of this setting.
    """
    raw = os.environ.get("REPRO_BOOT_SNAPSHOT", "").strip().lower()
    return raw not in {"0", "false", "off", "no"}


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    hit_latency: int  # cycles
    line_bytes: int = CACHELINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.associativity}*{self.line_bytes})"
            )
        if not is_pow2(self.num_sets):
            raise ConfigurationError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class DRAMTimingConfig:
    """Simplified DDR4 bank timing, expressed in CPU cycles at 3 GHz.

    The absolute values approximate DDR4-2400 (tRCD=tCL=tRP ~ 14.16 ns)
    scaled to a 3 GHz core clock, plus a fixed on-chip/queueing component so
    an LLC-miss round trip lands near 200 CPU cycles — the regime in which
    the paper's 10-cycle MAC latency produces its reported slowdowns.
    """

    row_hit_cycles: int = 130
    row_miss_cycles: int = 175  # precharged bank: tRCD + tCL
    row_conflict_cycles: int = 220  # open other row: tRP + tRCD + tCL
    refresh_interval_cycles: int = 192_000  # tREFI = 64 us / 8192 rows @3GHz
    refresh_window_ms: float = 64.0


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM organisation. Defaults model a 4 GB single-channel DDR4 part."""

    size_bytes: int = 4 * GIB
    channels: int = 1
    ranks: int = 1
    banks: int = 16
    row_bytes: int = 8 * KIB
    timing: DRAMTimingConfig = field(default_factory=DRAMTimingConfig)

    def __post_init__(self) -> None:
        for name in ("size_bytes", "channels", "ranks", "banks", "row_bytes"):
            if not is_pow2(getattr(self, name)):
                raise ConfigurationError(f"DRAM {name} must be a power of two")

    @property
    def rows_per_bank(self) -> int:
        per_bank = self.size_bytes // (self.channels * self.ranks * self.banks)
        return per_bank // self.row_bytes


@dataclass(frozen=True)
class TLBConfig:
    entries: int = 64  # fully associative
    mmu_cache_bytes: int = 8 * KIB
    mmu_cache_assoc: int = 4


@dataclass(frozen=True)
class PTGuardConfig:
    """Parameters of the PT-Guard mechanism itself.

    ``max_phys_bits`` is *M* in Table IV: the number of bits of the maximum
    physical address. With the paper's 1 TB bound, M = 40, leaving PFN bits
    51:40 (12 per PTE, 96 per line) free for the MAC.
    """

    max_phys_bits: int = 40
    mac_bits: int = 96
    mac_latency_cycles: int = 10
    identifier_enabled: bool = False  # Optimized PT-Guard (Sec V-A)
    mac_zero_enabled: bool = False  # Sec V-B
    correction_enabled: bool = False  # Sec VI
    soft_match_k: int = 4  # MAC bit-faults tolerated (Sec VI-C)
    ctb_entries: int = 4
    almost_zero_threshold: int = 4  # <=4 set bits => guess zero-PTE

    def __post_init__(self) -> None:
        if not 28 <= self.max_phys_bits <= 52:
            raise ConfigurationError("max_phys_bits must lie in [28, 52]")
        if self.mac_bits != 12 * PTES_PER_LINE:
            # The design pools 12 bits from each of the 8 PTEs in a line.
            if self.mac_bits not in (64, 96):
                raise ConfigurationError("mac_bits must be 64 or 96")
        if self.soft_match_k < 0 or self.soft_match_k >= self.mac_bits:
            raise ConfigurationError("soft_match_k must lie in [0, mac_bits)")


@dataclass(frozen=True)
class SystemConfig:
    """Full single-core system configuration (paper Table III)."""

    frequency_hz: int = 3_000_000_000
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * KIB, 8, hit_latency=4)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * KIB, 8, hit_latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * KIB, 16, hit_latency=14)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 2 * MIB, 16, hit_latency=34)
    )
    tlb: TLBConfig = field(default_factory=TLBConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    ptguard: PTGuardConfig | None = None  # None => unprotected baseline

    def with_ptguard(self, guard: PTGuardConfig) -> "SystemConfig":
        """Return a copy of this configuration with PT-Guard enabled."""
        from dataclasses import replace

        return replace(self, ptguard=guard)


def default_system_config() -> SystemConfig:
    """Return the paper's Table III baseline configuration."""
    return SystemConfig()


def optimized_ptguard_config(mac_latency_cycles: int = 10) -> PTGuardConfig:
    """Return the Optimized PT-Guard configuration (Section V)."""
    return PTGuardConfig(
        mac_latency_cycles=mac_latency_cycles,
        identifier_enabled=True,
        mac_zero_enabled=True,
    )
