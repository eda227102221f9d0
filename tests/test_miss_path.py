"""The one miss path below L1 and the zero-page burst match what they replaced.

``CacheHierarchy.read_below_l1`` probes L2 and L3, reads DRAM through the
controller's ``read`` and installs the line through one fill-and-victim
cascade (``CacheHierarchy._fill``). These tests keep the per-level path it
replaced -- ``Cache.lookup``/``Cache.fill`` per level, the recursive
``_handle_victim`` and ``controller.read_access`` -- as the reference
(:class:`ReferenceHierarchy`, :class:`ReferenceSharedLLC`) and drive twin
machines with seeded streams on shrunken cache geometries, so dirty
victims cascade all the way to DRAM. Each twin pair compares every
level's lines in LRU order (``dirty`` included), every
stat group, DRAM contents and open rows, and the ordered write-backs.

``Kernel.zero_page`` writes a page in one controller burst
(``MemoryController.zero_lines``); its reference is one ``write_line`` of
zeros per line.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

import pytest

from repro.attacks.defenses import PARA
from repro.cache.cache import Cache, EvictedLine
from repro.cache.hierarchy import AccessResult, CacheHierarchy, SharedLLCAdapter
from repro.common.config import (
    CacheConfig,
    PTGuardConfig,
    SystemConfig,
    optimized_ptguard_config,
)
from repro.core import pattern
from repro.core.guard import PTGuard
from repro.cpu.multicore import MulticoreSimulator
from repro.cpu.workloads import get_workload
from repro.dram.device import DRAMDevice
from repro.dram.rowhammer import RowhammerProfile
from repro.harness.system import build_system
from repro.mem.controller import MemoryController, MemoryResponse
from repro.mem.memory import PhysicalMemory
from repro.mmu.pte import make_x86_pte

#: Tiny caches: 4-set L1, 8-set L2, 8-set L3, so a few dozen lines evict
#: at every level and dirty victims reach DRAM.
SMALL = replace(
    SystemConfig(),
    l1d=CacheConfig("L1D", 512, 2, hit_latency=4),
    l2=CacheConfig("L2", 1024, 2, hit_latency=14),
    l3=CacheConfig("L3", 2048, 4, hit_latency=34),
)
GUARDS = {
    "baseline": None,
    "ptguard": PTGuardConfig(),
    "optimized": optimized_ptguard_config(),
}
BASE = 0x40_0000
POOL = [BASE + index * 64 for index in range(96)]


class ReferenceHierarchy(CacheHierarchy):
    """The per-level miss path and recursive victim cascade that
    ``read_below_l1``/``_fill`` replaced, kept verbatim as the reference."""

    def read_below_l1(self, address: int, is_pte: bool) -> AccessResult:
        latency = self._lat1 + self._latencies[1]
        line = self.l2.lookup(address)
        if line is not None:
            data = line.data
            victim = self.l1.fill(address, data)
            if victim is not None and victim.dirty:
                self._handle_victim(victim, level=0)
            return AccessResult(data, latency, "L2")
        return self._read_below_l2(address, is_pte, latency)

    def _read_below_l2(self, address: int, is_pte: bool, latency: int) -> AccessResult:
        counters = self._counters
        l3 = self.l3
        if l3 is not None:
            latency += self._latencies[2]
            line = l3.lookup(address)
            if line is not None:
                data = line.data
                self._fill_upper(2, address, data)
                return AccessResult(data, latency, "L3")
        try:
            counters["llc_misses"] += 1
        except KeyError:
            counters["llc_misses"] = 1
        response = self.controller.read_access(address, is_pte, self.cycle)
        latency += response.latency_cycles
        data = response.data if response.data is not None else bytes(64)
        if response.pte_check_failed:
            return AccessResult(
                data=data, latency_cycles=latency, hit_level="DRAM", pte_check_failed=True
            )
        self._fill_all(address, data)
        return AccessResult(data, latency, "DRAM")

    def write(self, address: int, data: bytes) -> AccessResult:
        address = self._align(address)
        if len(data) != 64:
            raise ValueError("hierarchy writes are full-line")
        self.stats.increment("writes")
        latency = self._latencies[0]
        if self.l1.write_hit(address, data):
            return AccessResult(data=data, latency_cycles=latency, hit_level="L1")
        result = self.read(address)
        victim = self.l1.fill(address, data, dirty=True)
        self._handle_victim(victim, level=0)
        return AccessResult(
            data=data,
            latency_cycles=latency + result.latency_cycles,
            hit_level=result.hit_level,
        )

    def _fill(self, address, data, dirty, bottom, top=0) -> None:
        # The core loop's write-allocate calls _fill(line, payload, True,
        # 0); it used to run l1.fill and push a dirty victim down.
        for index in range(bottom, top - 1, -1):
            victim = self._levels[index].fill(address, data, dirty=dirty)
            if victim is not None and victim.dirty:
                self._handle_victim(victim, level=index)

    def _fill_upper(self, hit_index: int, address: int, data: bytes) -> None:
        for index in range(hit_index - 1, -1, -1):
            victim = self._levels[index].fill(address, data)
            self._handle_victim(victim, level=index)

    def _fill_all(self, address: int, data: bytes) -> None:
        for index in range(len(self._levels) - 1, -1, -1):
            victim = self._levels[index].fill(address, data)
            self._handle_victim(victim, level=index)

    def _handle_victim(self, victim: Optional[EvictedLine], level: int) -> None:
        if victim is None or not victim.dirty:
            return
        if level + 1 < len(self._levels):
            lower_victim = self._levels[level + 1].fill(
                victim.address, victim.data, dirty=True
            )
            self._handle_victim(lower_victim, level=level + 1)
        else:
            self.stats.increment("writebacks")
            self.controller.write_access(victim.address, victim.data, self.cycle, self)

    def flush(self) -> None:
        for index, cache in enumerate(self._levels):
            for victim in cache.flush_all():
                if index + 1 < len(self._levels):
                    lower_victim = self._levels[index + 1].fill(
                        victim.address, victim.data, dirty=True
                    )
                    self._handle_victim(lower_victim, level=index + 1)
                else:
                    self.controller.write_access(
                        victim.address, victim.data, self.cycle, self
                    )

    def invalidate(self, address: int) -> None:
        address = self._align(address)
        for index, cache in enumerate(self._levels):
            victim = cache.invalidate(address)
            if victim is not None:
                if index + 1 < len(self._levels):
                    lower_victim = self._levels[index + 1].fill(
                        victim.address, victim.data, dirty=True
                    )
                    self._handle_victim(lower_victim, level=index + 1)
                else:
                    self.controller.write_access(
                        victim.address, victim.data, self.cycle, self
                    )


class ReferenceSharedLLC(SharedLLCAdapter):
    """The shared LLC's ``read_access`` the reference hierarchy reads through."""

    def read_access(self, address: int, is_pte: bool = False, cycle: int = 0):
        self.stats.increment("pte_reads" if is_pte else "reads")
        line = self.llc.lookup(address)
        if line is not None:
            return MemoryResponse(data=line.data, latency_cycles=self.hit_latency)
        response = self.controller.read_access(address, is_pte, cycle)
        if response.data is not None and not response.pte_check_failed:
            victim = self.llc.fill(address, response.data)
            if victim is not None and victim.dirty:
                self.controller.write_access(victim.address, victim.data, cycle, self)
        return MemoryResponse(
            data=response.data,
            latency_cycles=self.hit_latency + response.latency_cycles,
            pte_check_failed=response.pte_check_failed,
        )


# -- state capture -----------------------------------------------------------


def _cache_state(cache: Cache):
    """Every set in creation order, every line in LRU order."""
    return [
        (set_index, [(tag, line.data, line.dirty) for tag, line in lines.items()])
        for set_index, lines in cache._sets.items()
    ]


def _counters(group):
    """A stat group's counters in creation order."""
    return list(group._counters.items())


def _log_writes(target, roles):
    """Record every ``write_access`` on ``target`` as (address, data, cycle,
    role of the origin); ``roles`` maps an agent's id to its role."""
    log = []
    original = target.write_access

    def write_access(address, data, cycle=0, origin=None):
        log.append((address, data, cycle, roles.get(id(origin))))
        return original(address, data, cycle, origin)

    target.write_access = write_access
    return log


def _machine_state(controller, hierarchies, adapter=None):
    guard = controller.ptguard
    dram = controller.dram
    state = {
        "memory": list(dram.memory._lines.items()),
        "open_rows": list(dram._open_rows.items()),
        "dram": _counters(dram.stats),
        "controller": _counters(controller.stats),
        "levels": [
            [_cache_state(cache) for cache in hierarchy._levels] for hierarchy in hierarchies
        ],
        "level_stats": [
            [_counters(cache.stats) for cache in hierarchy._levels]
            for hierarchy in hierarchies
        ],
        "hierarchy": [_counters(hierarchy.stats) for hierarchy in hierarchies],
    }
    if guard is not None:
        state["guard"] = _counters(guard.stats)
        state["ctb"] = (list(guard.ctb._entries), _counters(guard.ctb.stats))
        state["engine"] = (guard.engine.computations, _counters(guard.engine.stats))
    if adapter is not None:
        state["llc"] = _cache_state(adapter.llc)
        state["llc_stats"] = _counters(adapter.llc.stats)
        state["adapter"] = _counters(adapter.stats)
    return state


# -- twin machines -----------------------------------------------------------


def _controller(guard_config):
    memory = PhysicalMemory(SMALL.dram.size_bytes)
    guard = PTGuard(guard_config, mac_algorithm="blake2") if guard_config else None
    return MemoryController(DRAMDevice(SMALL.dram, memory), guard)


def _pte_line(seed: int) -> bytes:
    return pattern.join_ptes([make_x86_pte(0x2E5F3 + seed * 8 + i) for i in range(8)])


class Twin:
    """One machine: a controller under one or two hierarchies."""

    def __init__(self, guard_config, private: bool, reference: bool):
        self.controller = _controller(guard_config)
        hierarchy_class = ReferenceHierarchy if reference else CacheHierarchy
        roles = {}
        self.adapter = None
        if private:
            adapter_class = ReferenceSharedLLC if reference else SharedLLCAdapter
            self.adapter = adapter_class(Cache(SMALL.l3), self.controller, hit_latency=34)
            self.controller.attach_coherent_cache(self.adapter)
            roles[id(self.adapter)] = "llc"
            self.hierarchies = [
                hierarchy_class(SMALL, self.adapter, private_levels_only=True)
                for _ in range(2)
            ]
        else:
            self.hierarchies = [hierarchy_class(SMALL, self.controller)]
        for index, hierarchy in enumerate(self.hierarchies):
            self.controller.attach_coherent_cache(hierarchy)
            roles[id(hierarchy)] = f"h{index}"
        self.writes = _log_writes(self.controller, roles)
        if self.adapter is not None:
            self.llc_writes = _log_writes(self.adapter, roles)
        # Protected page-table lines, one of them corrupted in DRAM: a
        # walk-style read of it must fail its check and stay uncached.
        for index in range(8):
            self.controller.write_line(POOL[index * 11], _pte_line(index))
        self.controller.dram.memory.flip_bit(POOL[0], 13)

    def state(self):
        state = _machine_state(self.controller, self.hierarchies, self.adapter)
        state["writes"] = list(self.writes)
        if self.adapter is not None:
            state["llc_writes"] = list(self.llc_writes)
        return state


def _op(rng: random.Random, hierarchies):
    """One seeded operation on one of ``hierarchies``."""
    hierarchy_index = rng.randrange(len(hierarchies))
    address = rng.choice(POOL) + rng.randrange(64)
    roll = rng.random()
    if roll < 0.35:
        return ("read", hierarchy_index, address, False)
    if roll < 0.50:
        return ("read", hierarchy_index, address, True)
    if roll < 0.80:
        data = _pte_line(rng.randrange(64)) if rng.random() < 0.5 else rng.randbytes(64)
        return ("write", hierarchy_index, address, data)
    if roll < 0.85:
        return ("partial", hierarchy_index, address, rng.randrange(56), rng.randbytes(8))
    if roll < 0.90:
        return ("invalidate", hierarchy_index, address)
    if roll < 0.93:
        return ("store", hierarchy_index, address & ~63, rng.randbytes(64))
    if roll < 0.95:
        return ("flush", hierarchy_index)
    return ("cycle", hierarchy_index, rng.randrange(1, 5000))


def _apply(twin: Twin, op):
    kind, hierarchy = op[0], twin.hierarchies[op[1]]
    if kind == "read":
        return hierarchy.read(op[2], is_pte=op[3])
    if kind == "write":
        return hierarchy.write(op[2], op[3])
    if kind == "partial":
        return hierarchy.write_partial(op[2], op[3], op[4])
    if kind == "invalidate":
        return hierarchy.invalidate(op[2])
    if kind == "store":
        return twin.controller.write_line(op[2], op[3])
    if kind == "flush":
        return hierarchy.flush()
    hierarchy.cycle += op[2]
    return None


@pytest.mark.parametrize("private", [False, True], ids=["three-level", "private-levels"])
@pytest.mark.parametrize("guard", sorted(GUARDS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_miss_path_matches_the_per_level_reference(guard, private, seed):
    new = Twin(GUARDS[guard], private, reference=False)
    reference = Twin(GUARDS[guard], private, reference=True)
    assert new.state() == reference.state()
    rng = random.Random(seed)
    failed_reads = 0
    for step in range(1500):
        op = _op(rng, new.hierarchies)
        result = _apply(new, op)
        assert result == _apply(reference, op), (step, op)
        if op[0] == "read" and result.pte_check_failed:
            # Sec IV-F: a line that failed its check is not installed.
            failed_reads += 1
            line = op[2] & ~63
            reader = new.hierarchies[op[1]]
            assert not any(cache.contains(line) for cache in reader._levels)
            if new.adapter is not None:
                assert not new.adapter.llc.contains(line)
        if step % 100 == 99:
            assert new.state() == reference.state(), step
    final = new.state()
    assert final == reference.state()
    # The stream exercised what the twins were built for.
    assert len(final["writes"] if not private else final["llc_writes"]) > 50
    for stats in final["level_stats"][0]:
        assert dict(stats).get("dirty_evictions", 0) > 0
    if guard != "baseline":
        assert failed_reads > 0
    if private:
        assert final["writes"], "the shared LLC spilled dirty lines to DRAM"


def test_out_of_range_fill_still_raises():
    """A flipped PFN can name a line past the end of memory: the read
    path keeps the controller's alignment check and the backing store's
    bounds check."""
    new = Twin(PTGuardConfig(), private=False, reference=False)
    hierarchy = new.hierarchies[0]
    with pytest.raises(ValueError, match="outside memory"):
        hierarchy.read(SMALL.dram.size_bytes + 64)
    with pytest.raises(ValueError, match="not line-aligned"):
        hierarchy.read_below_l1(BASE + 8, False)
    with pytest.raises(ValueError, match="not line-aligned"):
        new.controller.read(BASE + 8)


# -- the core loop and the multicore model over the reference ----------------


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_core_loop_matches_over_the_reference_hierarchy(guard):
    def run(reference: bool):
        system = build_system(config=SMALL, ptguard=GUARDS[guard], mac_algorithm="pseudo")
        if reference:
            system.hierarchy.__class__ = ReferenceHierarchy
        process, trace = system.workload_process(get_workload("mcf"), seed=4)
        core = system.new_core(process)
        result = core.run(trace, mem_ops=1500, warmup_ops=500)
        return result, _machine_state(system.controller, [system.hierarchy])

    new_result, new_state = run(False)
    reference_result, reference_state = run(True)
    assert new_result == reference_result
    assert new_state == reference_state
    assert dict(new_state["hierarchy"][0]).get("writebacks", 0) > 0


def test_multicore_matches_over_the_reference_hierarchy():
    def run(reference: bool):
        config = replace(SMALL, l3=CacheConfig("L3", 4096, 4, hit_latency=38))
        simulator = MulticoreSimulator(
            [get_workload(name) for name in ("mcf", "lbm", "xz", "povray")],
            PTGuardConfig(),
            config=config,
        )
        if reference:
            simulator.shared_llc.__class__ = ReferenceSharedLLC
            for core in simulator.cores:
                core.hierarchy.__class__ = ReferenceHierarchy
        result = simulator.run(mem_ops_per_core=300, warmup_ops=200)
        state = _machine_state(
            simulator.system.controller,
            [core.hierarchy for core in simulator.cores],
            simulator.shared_llc,
        )
        return result, simulator.channel.total_wait, state

    assert run(False) == run(True)


# -- zero_page: one burst versus one write per line -------------------------


def _colliding_line(engine, address: int, seed: int) -> bytes:
    """A non-pattern line whose MAC field equals ``engine``'s tag over it."""
    base = bytearray(random.Random(seed).randbytes(64))
    for index in range(8):
        base[index * 8 + 5] = 0
        base[index * 8 + 6] &= 0xF0
    line = pattern.embed_mac(bytes(base), engine.compute(bytes(base), address))
    assert not pattern.matches_pattern(line)
    return line


def _zeroing_machine(guard_config):
    """A machine whose next zeroed page has cached lines, clean and dirty,
    a CTB entry, and sits in a row that Rowhammer and PARA act on."""
    system = build_system(
        ptguard=guard_config,
        seed=3,
        rowhammer=RowhammerProfile.scaled(threshold=4, flip_probability=0.002),
        mitigation=PARA(0.05, rows_per_bank=SystemConfig().dram.rows_per_bank, seed=5),
    )
    kernel = system.kernel
    process = kernel.create_process("p")
    kernel.mmap(process, 16, populate=True)
    pfn = kernel.allocator.alloc_page()
    base = pfn * 4096
    controller = system.controller
    rng = random.Random(7)
    for offset in range(0, 4096, 256):
        controller.write_line(base + offset, rng.randbytes(64))
    if system.guard is not None:
        # Collides without the identifier (ptguard), not with it (optimized).
        controller.write_line(base + 64, _colliding_line(system.guard.engine, base + 64, 1))
    for offset in range(0, 1024, 64):
        system.hierarchy.read(base + offset)
    system.hierarchy.write(base + 128, bytes(range(64)))
    # Hammer the page's row against another row of its bank (flipping
    # bits nearby) and leave the other one open: the zeroing burst then
    # re-activates the page's row.
    mapper = system.dram.mapper
    row_key = mapper.row_key_of(base)
    other = mapper.translate_row(base, row_key[:3] + (row_key[3] ^ 8,))
    for _ in range(3):
        controller.read_line(other)
        controller.read_line(base)
    controller.read_line(other)
    return system, pfn


def _zeroing_state(system):
    state = _machine_state(system.controller, [system.hierarchy])
    state["flips"] = list(system.dram.bit_flips)
    return state


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_zero_page_burst_matches_per_line_writes(guard):
    reference, reference_pfn = _zeroing_machine(GUARDS[guard])
    burst, pfn = _zeroing_machine(GUARDS[guard])
    assert pfn == reference_pfn
    before = _zeroing_state(burst)
    assert before == _zeroing_state(reference)

    base = pfn * 4096
    for offset in range(0, 4096, 64):
        reference.controller.write_line(base + offset, bytes(64))
    burst.kernel.zero_page(pfn)

    want = _zeroing_state(reference)
    assert _zeroing_state(burst) == want
    # Every cached line of the page was discarded, dirty ones included.
    for cache in burst.hierarchy._levels:
        assert not any(cache.contains(base + offset) for offset in range(0, 4096, 64))
    assert before["levels"] != want["levels"]
    assert dict(want["dram"])["activations"] > dict(before["dram"])["activations"]
    assert want["flips"]
    if guard == "ptguard":
        # The colliding line's CTB entry goes when its line is zeroed.
        assert before["ctb"][0] and not want["ctb"][0]
    if guard != "baseline":
        assert dict(want["guard"])["embedded_writes"] > dict(before["guard"])["embedded_writes"]


def test_zero_lines_checks_alignment_and_bounds():
    system = build_system(ptguard=PTGuardConfig())
    with pytest.raises(ValueError, match="not line-aligned"):
        system.controller.zero_lines([0x10008])
    with pytest.raises(ValueError, match="outside memory"):
        system.controller.zero_lines([system.config.dram.size_bytes])
    counters = _counters(system.controller.stats)
    system.controller.zero_lines([])
    assert _counters(system.controller.stats) == counters
