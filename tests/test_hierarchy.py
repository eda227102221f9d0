"""Tests for the three-level cache hierarchy over the controller."""

import pytest

from repro.common.config import DRAMConfig, PTGuardConfig, SystemConfig
from repro.core import pattern
from repro.core.guard import PTGuard
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy, SharedLLCAdapter
from repro.dram.device import DRAMDevice
from repro.mem.controller import MemoryController
from repro.mem.memory import PhysicalMemory
from repro.mmu.pte import make_x86_pte


def make_hierarchy(guard_config=None):
    config = SystemConfig()
    memory = PhysicalMemory(config.dram.size_bytes)
    device = DRAMDevice(config.dram, memory)
    guard = PTGuard(guard_config, mac_algorithm="blake2") if guard_config else None
    controller = MemoryController(device, guard)
    hierarchy = CacheHierarchy(config, controller)
    controller.attach_coherent_cache(hierarchy)
    return hierarchy, controller, memory


class TestReadPath:
    def test_first_read_goes_to_dram(self):
        hierarchy, _, _ = make_hierarchy()
        result = hierarchy.read(0x1000)
        assert result.hit_level == "DRAM"
        assert hierarchy.llc_misses == 1

    def test_second_read_hits_l1(self):
        hierarchy, _, _ = make_hierarchy()
        hierarchy.read(0x1000)
        result = hierarchy.read(0x1000)
        assert result.hit_level == "L1"
        assert result.latency_cycles == hierarchy.config.l1d.hit_latency

    def test_latency_monotone_across_levels(self):
        hierarchy, _, _ = make_hierarchy()
        dram = hierarchy.read(0x1000).latency_cycles
        l1 = hierarchy.read(0x1000).latency_cycles
        assert l1 < dram

    def test_unaligned_read_aligned_down(self):
        hierarchy, _, memory = make_hierarchy()
        memory.write_line(0x1000, bytes(range(64)))
        result = hierarchy.read(0x1010)
        assert result.data == bytes(range(64))


class TestWritePath:
    def test_write_read_roundtrip(self):
        hierarchy, _, _ = make_hierarchy()
        hierarchy.write(0x2000, b"x" * 64)
        assert hierarchy.read(0x2000).data == b"x" * 64

    def test_dirty_data_reaches_dram_on_flush(self):
        hierarchy, _, memory = make_hierarchy()
        hierarchy.write(0x2000, b"x" * 64)
        assert memory.read_line(0x2000) == bytes(64)  # still only cached
        hierarchy.flush()
        assert memory.read_line(0x2000) == b"x" * 64

    def test_partial_write(self):
        hierarchy, _, _ = make_hierarchy()
        hierarchy.write(0x2000, b"a" * 64)
        hierarchy.write_partial(0x2000, 10, b"ZZ")
        data = hierarchy.read(0x2000).data
        assert data[10:12] == b"ZZ" and data[0] == ord("a")

    def test_partial_write_cannot_cross_line(self):
        hierarchy, _, _ = make_hierarchy()
        with pytest.raises(ValueError):
            hierarchy.write_partial(0x2000, 60, b"12345")


class TestEvictionWriteback:
    def test_capacity_eviction_writes_back(self):
        hierarchy, controller, memory = make_hierarchy()
        # Write far more distinct lines than total cache capacity.
        lines = (32 * 1024 + 256 * 1024 + 2 * 1024 * 1024) // 64
        base = 0x100000
        for i in range(lines + 2048):
            hierarchy.write(base + i * 64, i.to_bytes(8, "little") * 8)
        assert hierarchy.stats.get("writebacks") > 0
        hierarchy.flush()
        for i in range(0, lines, 777):
            expected = i.to_bytes(8, "little") * 8
            assert memory.read_line(base + i * 64) == expected


class TestPTEIntegration:
    def test_pte_check_failure_not_installed(self):
        hierarchy, controller, memory = make_hierarchy(PTGuardConfig())
        line = pattern.join_ptes([make_x86_pte(0x2E5F3 + i) for i in range(8)])
        controller.write_line(0x4000, line)
        memory.flip_bit(0x4000, 13)
        result = hierarchy.read(0x4000, is_pte=True)
        assert result.pte_check_failed
        # Sec IV-F: the line must not be installed in any cache level.
        assert not hierarchy.l1.contains(0x4000)
        assert not hierarchy.l3.contains(0x4000)

    def test_clean_pte_read_installs_stripped(self):
        hierarchy, controller, _ = make_hierarchy(PTGuardConfig())
        line = pattern.join_ptes([make_x86_pte(0x2E5F3 + i) for i in range(8)])
        controller.write_line(0x4000, line)
        result = hierarchy.read(0x4000, is_pte=True)
        assert result.data == line  # MAC stripped before install
        cached = hierarchy.l1.lookup(0x4000)
        assert cached.data == line


class TestCoherenceDiscard:
    def test_controller_write_invalidates_cached_copy(self):
        hierarchy, controller, _ = make_hierarchy()
        hierarchy.read(0x5000)  # cache the zero line
        controller.write_line(0x5000, b"n" * 64)  # kernel-style store
        assert hierarchy.read(0x5000).data == b"n" * 64


class TestSharedLLCAdapter:
    def test_private_hierarchy_over_shared_llc(self):
        config = SystemConfig()
        memory = PhysicalMemory(config.dram.size_bytes)
        controller = MemoryController(DRAMDevice(config.dram, memory))
        adapter = SharedLLCAdapter(Cache(config.l3), controller,
                                   hit_latency=config.l3.hit_latency)
        private_a = CacheHierarchy(config, adapter, private_levels_only=True)
        private_b = CacheHierarchy(config, adapter, private_levels_only=True)
        assert private_a.l3 is None

        private_a.write(0x6000, b"s" * 64)
        private_a.flush()  # dirty line lands in the shared LLC
        dram_reads_before = controller.stats.get("reads")
        result = private_b.read(0x6000)
        assert result.data == b"s" * 64
        # b's fill came from the shared LLC, not DRAM:
        assert controller.stats.get("reads") == dram_reads_before
