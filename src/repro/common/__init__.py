"""Shared utilities: bit manipulation, configuration, errors, statistics,
record logs."""

from repro.common.bitops import (
    bit,
    bits,
    clear_bits,
    extract_bits,
    hamming_distance,
    insert_bits,
    mask,
    popcount,
)
from repro.common.config import (
    CacheConfig,
    DRAMTimingConfig,
    SystemConfig,
    default_system_config,
)
from repro.common.errors import (
    AllocationError,
    ConfigurationError,
    IntegrityError,
    PTGuardError,
    PageFaultError,
    TranslationError,
)
from repro.common.stats import StatCounter, StatGroup

__all__ = [
    "bit",
    "bits",
    "clear_bits",
    "extract_bits",
    "hamming_distance",
    "insert_bits",
    "mask",
    "popcount",
    "CacheConfig",
    "DRAMTimingConfig",
    "SystemConfig",
    "default_system_config",
    "AllocationError",
    "ConfigurationError",
    "IntegrityError",
    "PTGuardError",
    "PageFaultError",
    "TranslationError",
    "StatCounter",
    "StatGroup",
]
