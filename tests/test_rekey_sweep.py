"""The re-key sweep is the per-line rekey loop, done in one burst.

:meth:`repro.os.kernel.Kernel.rekey_memory` drives
:meth:`repro.mem.controller.MemoryController.rekey_sweep`, which reads
every touched line in one DRAM burst, re-keys the guard and writes the
lines back in a second burst (:meth:`repro.dram.device.DRAMDevice.sweep`).
These tests keep the per-line loop it replaced as the reference and run
both on twin machines built to make every side effect observable: a
retired row (remapped accesses), a low-threshold Rowhammer module with a
PARA mitigation (flips and victim refreshes during the sweep), lines in
all three cache levels (coherence discards), CTB collisions under both
keys (a CTB forward before the rotation, an overflow after it) and the
differential MAC oracle (its countdown must advance identically).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.correction_eval import walked_pte_lines, workload_process
from repro.attacks.defenses import PARA
from repro.common.config import PTGuardConfig, SystemConfig
from repro.core import pattern
from repro.core.guard import PTGuard
from repro.dram.rowhammer import RowhammerProfile
from repro.harness.system import build_system

SEED = 3


def reference_rekey(kernel) -> int:
    """The per-line rekey loop ``Kernel.rekey_memory`` used to run."""
    controller = kernel.controller
    guard = controller.ptguard
    cycles = 0
    logical = {}
    for line_address in list(controller.dram.memory.touched_lines()):
        response = controller.read_line(line_address)
        logical[line_address] = response.data
        cycles += response.latency_cycles
    guard.rekey()
    for line_address, data in logical.items():
        cycles += controller.write_line(line_address, data).latency_cycles
    kernel.stats.increment("rekeys")
    kernel.last_rekey_cycles = cycles
    return len(logical)


def _colliding_line(engine, address: int, seed: int) -> bytes:
    """A non-pattern line whose MAC field equals ``engine``'s tag over it."""
    base = bytearray(random.Random(seed).randbytes(64))
    for index in range(8):
        base[index * 8 + 5] = 0
        base[index * 8 + 6] &= 0xF0
    line = pattern.embed_mac(bytes(base), engine.compute(bytes(base), address))
    assert not pattern.matches_pattern(line)
    return line


def _machine():
    """A booted machine on which a rekey exercises every side effect."""
    config = PTGuardConfig(correction_enabled=True, ctb_entries=2)
    system = build_system(
        ptguard=config,
        seed=SEED,
        spare_rows=2,
        rowhammer=RowhammerProfile.scaled(threshold=4, flip_probability=0.002),
        mitigation=PARA(0.05, rows_per_bank=SystemConfig().dram.rows_per_bank, seed=5),
    )
    kernel = system.kernel
    process = kernel.create_process("p")
    vma = kernel.mmap(process, 64, populate=True)
    rng = random.Random(1)
    for page in range(0, 64, 3):
        kernel.write_virtual(process, vma.start + page * 4096, rng.randbytes(200))
    data_lines = sorted(
        {kernel.access_virtual(process, vma.start + page * 4096) & ~63 for page in range(64)}
    )
    # Retire the row of one page-table page: its lines are then swept
    # through the remap.
    system.controller.retire_row_of(max(process.page_table.table_pfns) * 4096)

    # CTB: one line colliding under the current key (forwarded raw on the
    # sweep's read), three under the next key (the third overflows the
    # two-entry CTB on the sweep's write).
    data_base = 0x80000  # inside the kernel-reserved first megabyte
    controller = system.controller
    controller.write_line(data_base, _colliding_line(system.guard.engine, data_base, 1))
    next_key = PTGuard(config, seed=SEED)
    next_key.rekey()
    for index in range(3):
        address = data_base + 64 * (index + 1)
        controller.write_line(address, _colliding_line(next_key.engine, address, index + 2))

    # Lines in L1, L2 and L3, clean and dirty.
    for address in data_lines[:6]:
        system.hierarchy.read(address)
    system.hierarchy.write(data_lines[6], bytes(range(64)))
    system.guard.arm_differential_oracle(sample_period=7)
    return system


def _cache_contents(cache):
    return {
        set_index: [(tag, line.data, line.dirty) for tag, line in lines.items()]
        for set_index, lines in cache._sets.items()
    }


def _state(system):
    engine = system.guard.engine
    return {
        "lines": list(system.memory._lines.items()),
        "last_rekey_cycles": system.kernel.last_rekey_cycles,
        "open_rows": dict(system.dram._open_rows),
        "flips": list(system.dram.bit_flips),
        "caches": [_cache_contents(cache) for cache in system.hierarchy._levels],
        "dram": system.dram.stats.as_dict(),
        "controller": system.controller.stats.as_dict(),
        "guard": system.guard.stats.as_dict(),
        "ctb": (list(system.guard.ctb._entries), system.guard.ctb.stats.as_dict()),
        "engine": engine.stats.as_dict(),
        "computations": engine.computations,
        "oracle_countdown": engine._oracle_countdown,
        "kernel": system.kernel.stats.as_dict(),
    }


def test_rekey_memory_matches_the_per_line_loop():
    reference, swept = _machine(), _machine()
    before = _state(reference)
    assert before == _state(swept)
    assert reference_rekey(reference.kernel) == swept.kernel.rekey_memory()
    want = _state(reference)
    assert _state(swept) == want
    # The twins really exercised what they were built for.
    assert len(want["flips"]) > len(before["flips"])
    assert want["dram"]["mitigation_refreshes"] > before["dram"].get("mitigation_refreshes", 0)
    assert want["controller"]["ctb_overflows"] == 1
    assert want["guard"]["ctb_forwards"] == 1
    assert want["engine"]["oracle_checks"] > 0
    assert swept.dram.retired_rows
    assert before["caches"] != want["caches"]
    # A second rekey starts from the state the first one left.
    assert reference_rekey(reference.kernel) == swept.kernel.rekey_memory()
    assert _state(swept) == _state(reference)


def test_dram_sweep_matches_per_line_accesses():
    reference, swept = _machine(), _machine()
    addresses = list(reference.memory.touched_lines())
    lines = [bytes([index % 251]) * 64 for index in range(len(addresses))]

    cycles = 0
    read = []
    for address in addresses:
        cycles += reference.dram.access(address, is_write=False)
        read.append(reference.dram.read_line(address))
    assert swept.dram.sweep(addresses) == (cycles, read)

    cycles = 0
    for address, line in zip(addresses, lines):
        cycles += reference.dram.access(address, is_write=True)
        reference.dram.write_line(address, line)
    assert swept.dram.sweep(addresses, lines) == (cycles, lines)
    assert _state(swept) == _state(reference)


def test_read_fault_hook_sees_every_swept_line():
    system = build_system(ptguard=PTGuardConfig())
    process = system.kernel.create_process("p")
    system.kernel.mmap(process, 4, populate=True)
    calls = []
    system.controller.install_read_fault_hook(
        lambda address, is_pte: calls.append((address, is_pte))
    )
    addresses = list(system.memory.touched_lines())
    assert system.kernel.rekey_memory() == len(addresses)
    assert calls == [(address, False) for address in addresses]


def test_empty_sweep_adds_no_counters():
    system = build_system(ptguard=PTGuardConfig())
    counters = system.dram.stats.as_dict()
    assert system.dram.sweep([]) == (0, [])
    assert system.dram.stats.as_dict() == counters


@pytest.mark.xfail(
    strict=True,
    reason="a rekey after a row retirement sweeps both the victim alias and "
    "the spare's physical lines; the spare's line keeps its old-key MAC "
    "(bound to the victim address) and is written back raw over the "
    "alias's freshly tagged line",
)
def test_rekey_after_row_retirement_keeps_pte_lines_valid():
    system = build_system(ptguard=PTGuardConfig(correction_enabled=True), spare_rows=2, seed=1)
    process = workload_process(system, "povray", 1)
    walked = walked_pte_lines(system, process)
    assert system.controller.retire_row_of(walked[0]) is not None
    system.kernel.rekey_memory()
    failed = [
        line
        for line in walked
        if system.controller.read_line(line, is_pte=True).pte_check_failed
    ]
    assert failed == []
