"""Page-table-entry formats: x86_64 (Table I) and ARMv8 (Table II).

These mirror the architectural layouts the paper reproduces in its
background section. The x86_64 format is the default throughout the
simulator ("without loss of generality", Sec IV-F); the ARMv8 format is
provided to demonstrate ISA-independence of the mechanism and is
exercised by dedicated tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.bitops import bit, bits, insert_bits, mask

# --- x86_64 (Intel SDM Vol 3A, paper Table I) -------------------------------

X86_FLAG_PRESENT = 0
X86_FLAG_WRITABLE = 1
X86_FLAG_USER = 2
X86_FLAG_WRITE_THROUGH = 3
X86_FLAG_CACHE_DISABLE = 4
X86_FLAG_ACCESSED = 5
X86_FLAG_DIRTY = 6
X86_FLAG_HUGE_PAGE = 7  # 2 MB page (PS bit)
X86_FLAG_GLOBAL = 8
X86_OS_BITS = (11, 9)  # usable by OS
X86_PFN_BITS = (51, 12)
X86_IGNORED_BITS = (58, 52)
X86_MPK_BITS = (62, 59)  # memory protection keys
X86_FLAG_NX = 63


@dataclass(frozen=True)
class X86PageTableEntry:
    """A decoded x86_64 PTE. ``raw`` is authoritative; fields are views."""

    raw: int

    @property
    def present(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_PRESENT))

    @property
    def writable(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_WRITABLE))

    @property
    def user_accessible(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_USER))

    @property
    def write_through(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_WRITE_THROUGH))

    @property
    def accessed(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_ACCESSED))

    @property
    def dirty(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_DIRTY))

    @property
    def huge_page(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_HUGE_PAGE))

    @property
    def global_page(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_GLOBAL))

    @property
    def os_bits(self) -> int:
        return bits(self.raw, *X86_OS_BITS)

    @property
    def pfn(self) -> int:
        return bits(self.raw, *X86_PFN_BITS)

    @property
    def protection_key(self) -> int:
        return bits(self.raw, *X86_MPK_BITS)

    @property
    def no_execute(self) -> bool:
        return bool(bit(self.raw, X86_FLAG_NX))


def make_x86_pte(
    pfn: int,
    present: bool = True,
    writable: bool = True,
    user: bool = False,
    accessed: bool = False,
    dirty: bool = False,
    global_page: bool = False,
    no_execute: bool = False,
    protection_key: int = 0,
    os_bits: int = 0,
) -> int:
    """Compose a raw x86_64 PTE value from its fields."""
    value = 0
    if present:
        value |= 1 << X86_FLAG_PRESENT
    if writable:
        value |= 1 << X86_FLAG_WRITABLE
    if user:
        value |= 1 << X86_FLAG_USER
    if accessed:
        value |= 1 << X86_FLAG_ACCESSED
    if dirty:
        value |= 1 << X86_FLAG_DIRTY
    if global_page:
        value |= 1 << X86_FLAG_GLOBAL
    value = insert_bits(value, *X86_OS_BITS, os_bits)
    value = insert_bits(value, *X86_PFN_BITS, pfn & mask(40))
    value = insert_bits(value, *X86_MPK_BITS, protection_key)
    if no_execute:
        value |= 1 << X86_FLAG_NX
    return value


# --- ARMv8 (ARM ARM, paper Table II) ------------------------------------------

ARM_FLAG_VALID = 0
ARM_FLAG_BLOCK = 1  # block (huge page) descriptor at non-leaf levels
ARM_ATTR_BITS = (5, 2)  # memory attributes (MAIR index etc.)
ARM_AP_BITS = (7, 6)  # access permissions
ARM_PFN_HIGH_BITS = (9, 8)  # PFN[39:38]
ARM_FLAG_ACCESSED = 10
ARM_FLAG_CACHING = 11
ARM_PFN_LOW_BITS = (49, 12)  # PFN[37:0]
ARM_FLAG_DIRTY = 51
ARM_FLAG_CONTIGUOUS = 52
ARM_XN_BITS = (54, 53)  # execute-never (privileged/unprivileged)
ARM_IGNORED_BITS = (58, 55)
ARM_HW_ATTR_BITS = (62, 59)

ARM_AP_RW_EL1 = 0b00  # kernel read/write, no EL0 access
ARM_AP_RW_ALL = 0b01  # read/write at any level
ARM_AP_RO_EL1 = 0b10
ARM_AP_RO_ALL = 0b11


@dataclass(frozen=True)
class ArmPageTableEntry:
    """A decoded ARMv8 stage-1 descriptor (4 KB granule)."""

    raw: int

    @property
    def valid(self) -> bool:
        return bool(bit(self.raw, ARM_FLAG_VALID))

    @property
    def block(self) -> bool:
        return bool(bit(self.raw, ARM_FLAG_BLOCK))

    @property
    def memory_attributes(self) -> int:
        return bits(self.raw, *ARM_ATTR_BITS)

    @property
    def access_permissions(self) -> int:
        return bits(self.raw, *ARM_AP_BITS)

    @property
    def accessed(self) -> bool:
        return bool(bit(self.raw, ARM_FLAG_ACCESSED))

    @property
    def pfn(self) -> int:
        low = bits(self.raw, *ARM_PFN_LOW_BITS)
        high = bits(self.raw, *ARM_PFN_HIGH_BITS)
        return (high << 38) | low

    @property
    def dirty(self) -> bool:
        return bool(bit(self.raw, ARM_FLAG_DIRTY))

    @property
    def contiguous(self) -> bool:
        return bool(bit(self.raw, ARM_FLAG_CONTIGUOUS))

    @property
    def execute_never(self) -> int:
        return bits(self.raw, *ARM_XN_BITS)

    @property
    def user_accessible(self) -> bool:
        return self.access_permissions in (ARM_AP_RW_ALL, ARM_AP_RO_ALL)


def make_arm_pte(
    pfn: int,
    valid: bool = True,
    access_permissions: int = ARM_AP_RW_EL1,
    accessed: bool = False,
    dirty: bool = False,
    contiguous: bool = False,
    execute_never: int = 0,
    memory_attributes: int = 0,
) -> int:
    """Compose a raw ARMv8 page descriptor from its fields."""
    value = 0
    if valid:
        value |= 1 << ARM_FLAG_VALID
        value |= 1 << ARM_FLAG_BLOCK  # table/page descriptor bit for leaves
    value = insert_bits(value, *ARM_ATTR_BITS, memory_attributes)
    value = insert_bits(value, *ARM_AP_BITS, access_permissions)
    value = insert_bits(value, *ARM_PFN_LOW_BITS, pfn & mask(38))
    value = insert_bits(value, *ARM_PFN_HIGH_BITS, (pfn >> 38) & 0b11)
    if accessed:
        value |= 1 << ARM_FLAG_ACCESSED
    if dirty:
        value |= 1 << ARM_FLAG_DIRTY
    if contiguous:
        value |= 1 << ARM_FLAG_CONTIGUOUS
    value = insert_bits(value, *ARM_XN_BITS, execute_never)
    return value


# --- format descriptors used by documentation/benches ---------------------------

X86_64_LAYOUT: Dict[str, Tuple[int, int]] = {
    "present": (0, 0),
    "writable": (1, 1),
    "user_accessible": (2, 2),
    "write_through": (3, 3),
    "cache_disable": (4, 4),
    "accessed": (5, 5),
    "dirty": (6, 6),
    "huge_page": (7, 7),
    "global": (8, 8),
    "os_usable": (11, 9),
    "pfn": (51, 12),
    "ignored": (58, 52),
    "protection_keys": (62, 59),
    "no_execute": (63, 63),
}

ARMV8_LAYOUT: Dict[str, Tuple[int, int]] = {
    "valid": (0, 0),
    "block": (1, 1),
    "memory_attributes": (5, 2),
    "access_permissions": (7, 6),
    "pfn_high": (9, 8),
    "accessed": (10, 10),
    "caching": (11, 11),
    "pfn_low": (49, 12),
    "reserved_50": (50, 50),
    "dirty": (51, 51),
    "contiguous": (52, 52),
    "execute_never": (54, 53),
    "ignored": (58, 55),
    "hardware_attributes": (62, 59),
    "reserved_63": (63, 63),
}
