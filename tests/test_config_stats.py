"""Tests for configuration dataclasses and statistics counters."""

import pytest

from repro.common.config import (
    CacheConfig,
    DRAMConfig,
    PTGuardConfig,
    SystemConfig,
    optimized_ptguard_config,
)
from repro.common.errors import ConfigurationError
from repro.common.stats import StatGroup, per_kilo, ratio


class TestTable3Defaults:
    """The baseline configuration of paper Table III."""

    def test_core(self):
        config = SystemConfig()
        assert config.frequency_hz == 3_000_000_000

    def test_tlb(self):
        config = SystemConfig()
        assert config.tlb.entries == 64
        assert config.tlb.mmu_cache_bytes == 8 * 1024
        assert config.tlb.mmu_cache_assoc == 4

    def test_caches(self):
        config = SystemConfig()
        assert config.l1d.size_bytes == 32 * 1024 and config.l1d.associativity == 8
        assert config.l2.size_bytes == 256 * 1024 and config.l2.associativity == 16
        assert config.l3.size_bytes == 2 * 1024 * 1024 and config.l3.associativity == 16

    def test_dram(self):
        config = SystemConfig()
        assert config.dram.size_bytes == 4 * 2**30

    def test_baseline_has_no_guard(self):
        assert SystemConfig().ptguard is None

    def test_with_ptguard(self):
        config = SystemConfig().with_ptguard(PTGuardConfig())
        assert config.ptguard is not None


class TestPTGuardConfig:
    def test_defaults_match_paper(self):
        config = PTGuardConfig()
        assert config.max_phys_bits == 40  # 1 TB client bound
        assert config.mac_bits == 96
        assert config.mac_latency_cycles == 10
        assert config.soft_match_k == 4
        assert config.ctb_entries == 4
        assert config.almost_zero_threshold == 4

    def test_optimized_factory(self):
        config = optimized_ptguard_config()
        assert config.identifier_enabled and config.mac_zero_enabled

    def test_phys_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            PTGuardConfig(max_phys_bits=20)

    def test_mac_bits_restricted(self):
        with pytest.raises(ConfigurationError):
            PTGuardConfig(mac_bits=17)
        PTGuardConfig(mac_bits=64)  # the Sec VII-A option

    def test_soft_match_bounds(self):
        with pytest.raises(ConfigurationError):
            PTGuardConfig(soft_match_k=96)


class TestDRAMConfig:
    def test_rows_per_bank(self):
        config = DRAMConfig()
        expected = 4 * 2**30 // (16 * 8192)
        assert config.rows_per_bank == expected

    def test_pow2_enforced(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(banks=12)


class TestCacheConfig:
    def test_num_sets(self):
        assert CacheConfig("x", 32 * 1024, 8, 4).num_sets == 64

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("x", 3 * 64 * 2, 2, 1)


class TestStats:
    def test_lazy_counters(self):
        group = StatGroup("g")
        assert group.get("missing") == 0
        group.increment("hits")
        group.increment("hits", 4)
        assert group.get("hits") == 5

    def test_as_dict_sorted(self):
        group = StatGroup("g")
        group.increment("b")
        group.increment("a")
        assert list(group.as_dict()) == ["a", "b"]

    def test_reset(self):
        group = StatGroup("g")
        group.increment("x", 7)
        group.reset()
        assert group.get("x") == 0

    def test_ratio_helpers(self):
        assert ratio(1, 2) == 0.5
        assert ratio(1, 0) == 0.0
        assert per_kilo(5, 1000) == 5.0
