"""DDR4-like DRAM device model: banks, row buffers, refresh, Rowhammer.

The device sits below the memory controller. It models:

* per-bank open-row state (row hit / closed-bank miss / row conflict
  latencies from :class:`repro.common.config.DRAMTimingConfig`);
* activation accounting feeding the :class:`RowhammerModel`, with bit
  flips *materialised* into the backing :class:`PhysicalMemory` the moment
  a victim row crosses the threshold — subsequent reads observe tampered
  data just like on real hardware;
* periodic auto-refresh (the 64 ms retention window), which restores
  charge and re-arms the fault model;
* an optional in-DRAM mitigation hook (e.g. TRR) consulted on every
  activation, whose victim refreshes feed back into the fault model —
  which is precisely what Half-Double exploits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.common.config import DRAMConfig
from repro.common.stats import StatGroup
from repro.dram.geometry import AddressMapper, DRAMCoordinate
from repro.dram.rowhammer import BitFlip, RowhammerModel, RowhammerProfile, RowKey
from repro.mem.memory import PhysicalMemory

BankKey = Tuple[int, int, int]


class MitigationPolicy(Protocol):
    """In-DRAM / in-controller Rowhammer mitigation interface (e.g. TRR).

    ``on_activation`` is called for every row activation and returns the
    rows the mitigation wants refreshed ("victim refreshes").
    """

    name: str

    def on_activation(self, row_key: RowKey, cycle: int) -> List[RowKey]:
        ...

    def on_refresh_window(self) -> None:
        ...


class DRAMDevice:
    """Functional + timing model of one DRAM sub-system."""

    def __init__(
        self,
        config: DRAMConfig,
        memory: PhysicalMemory,
        rowhammer_profile: Optional[RowhammerProfile] = None,
        mitigation: Optional[MitigationPolicy] = None,
        seed: int = 2023,
    ):
        if memory.size_bytes != config.size_bytes:
            raise ValueError("backing memory size must match DRAM config size")
        self.config = config
        self.memory = memory
        self.mapper = AddressMapper(config)
        self.mitigation = mitigation
        profile = rowhammer_profile or RowhammerProfile.invulnerable()
        self.rowhammer = RowhammerModel(
            profile,
            lines_per_row=self.mapper.lines_per_row,
            neighbor_fn=self.mapper.neighbor_rows,
            seed=seed,
        )
        self.stats = StatGroup("dram")
        self._counters = self.stats.raw()  # inlined hot-path updates
        timing = config.timing
        self._row_hit_cycles = timing.row_hit_cycles
        self._row_miss_cycles = timing.row_miss_cycles
        self._row_conflict_cycles = timing.row_conflict_cycles
        # Skip fault-model bookkeeping entirely for invulnerable modules
        # (pure timing runs) — it is per-activation overhead.
        self._rowhammer_active = profile.flip_probability > 0.0
        self._open_rows: Dict[BankKey, int] = {}
        self._flips_log: List[BitFlip] = []
        self._last_refresh_cycle = 0
        # Row retirement (repro.recovery): spare rows carved off the top
        # of the address space, and the victim -> spare remap applied to
        # every controller-side access. Modelled after DRAM post-package
        # repair: the redirect lives *inside* the device, so disturbance
        # (Rowhammer physics, injected faults) still lands in the retired
        # physical cells — which nobody reads any more.
        self._spare_rows: List[RowKey] = []
        self._reserved_spare_bytes = 0
        self._row_remap: Dict[RowKey, RowKey] = {}
        self._retired_rows: List[RowKey] = []

    # -- row retirement (repro.recovery) --------------------------------------

    def reserve_spare_rows(self, count: int) -> List[RowKey]:
        """Carve ``count`` spare rows off the top of the address space.

        Returns the reserved row keys. The kernel's allocator must treat
        the covered pages as off-limits (see ``reserved_spare_pages``);
        :func:`repro.harness.system.build_system` reserves before the
        kernel is constructed so the two never disagree.
        """
        if count < 0:
            raise ValueError("spare-row count must be >= 0")
        reserved: List[RowKey] = []
        base = self.config.size_bytes - self._reserved_spare_bytes
        for _ in range(count):
            base -= self.config.row_bytes
            if base < 0:
                raise ValueError("spare-row reservation exceeds DRAM size")
            reserved.append(self.mapper.row_key_of(base))
        self._reserved_spare_bytes += count * self.config.row_bytes
        self._spare_rows.extend(reserved)
        self.stats.increment("spare_rows_reserved", count)
        return reserved

    @property
    def reserved_spare_pages(self) -> int:
        """Pages the spare-row reservation makes unavailable to the OS."""
        from repro.common.config import PAGE_BYTES

        return -(-self._reserved_spare_bytes // PAGE_BYTES)

    @property
    def spare_rows_free(self) -> int:
        return len(self._spare_rows)

    @property
    def retired_rows(self) -> List[RowKey]:
        return list(self._retired_rows)

    def is_retired(self, row_key: RowKey) -> bool:
        return row_key in self._row_remap

    def remap_address(self, address: int) -> int:
        """The physical beat an access to ``address`` actually lands on."""
        if not self._row_remap:
            return address
        target = self._row_remap.get(self.mapper.row_key_of(address))
        if target is None:
            return address
        return self.mapper.translate_row(address, target)

    def retire_row(self, row_key: RowKey) -> Optional[RowKey]:
        """Migrate a victim row to a spare and blacklist the victim.

        The current *backing* row's raw bytes (MACs included — the copy
        sits below the guard) move beat-for-beat to the spare, then the
        remap redirects every later access. Returns the spare's row key,
        or None when the budget is exhausted (the caller's cue to degrade
        to panic). Retiring an already-retired row re-retires its backing
        spare — the chained-failure case of a spare that faults too.
        """
        if not self._spare_rows:
            self.stats.increment("retire_budget_exhausted")
            return None
        spare = self._spare_rows.pop(0)
        backing = self._row_remap.get(row_key, row_key)
        for source in self.mapper.row_addresses(backing):
            target = self.mapper.translate_row(source, spare)
            self.memory.write_line(target, self.memory.read_line(source))
        self._row_remap[row_key] = spare
        self._retired_rows.append(backing)
        self._open_rows.pop(row_key[:3], None)  # force re-activation
        self.stats.increment("rows_retired")
        return spare

    # -- timing + activation path -------------------------------------------

    def access(self, address: int, is_write: bool, cycle: int = 0) -> int:
        """Perform one cacheline access; returns the DRAM latency in cycles.

        Opening a row (on miss/conflict) is an activation and feeds the
        Rowhammer model; row hits do not re-activate (the basis of many
        hammering patterns being *activation*-bound, not access-bound).
        """
        if self._row_remap:
            address = self.remap_address(address)
        row_key = self.mapper.row_key_of(address)
        bank = row_key[:3]
        row = row_key[3]
        counters = self._counters
        open_row = self._open_rows.get(bank)

        if open_row == row:
            try:
                counters["row_hits"] += 1
            except KeyError:
                counters["row_hits"] = 1
            latency = self._row_hit_cycles
        else:
            if open_row is None:
                try:
                    counters["row_misses"] += 1
                except KeyError:
                    counters["row_misses"] = 1
                latency = self._row_miss_cycles
            else:
                try:
                    counters["row_conflicts"] += 1
                except KeyError:
                    counters["row_conflicts"] = 1
                latency = self._row_conflict_cycles
            self._open_rows[bank] = row
            self._activate(row_key, cycle)

        name = "writes" if is_write else "reads"
        try:
            counters[name] += 1
        except KeyError:
            counters[name] = 1
        return latency

    def sweep(
        self, addresses: Sequence[int], lines: Optional[Sequence[bytes]] = None
    ) -> Tuple[int, List[bytes]]:
        """Access ``addresses`` in order as one burst; returns ``(cycles, lines)``.

        Reads every line when ``lines`` is None, else writes ``lines[i]``
        to ``addresses[i]``. Each line costs what :meth:`access` followed
        by :meth:`read_line` / :meth:`write_line` costs, and in the same
        order: row-buffer timing, then every activation through
        :meth:`_activate` (so Rowhammer flips and mitigation refreshes
        land exactly where per-line accesses put them), then the data
        transfer. Counters are added once at the end. Activations are
        issued at cycle 0, as for the OS's own line reads and writes.
        """
        remap = self._row_remap
        mapper = self.mapper
        row_key_of = mapper.row_key_of
        open_rows = self._open_rows
        activate = self._activate
        memory = self.memory
        reading = lines is None
        out: List[bytes] = [] if reading else list(lines)
        hits = misses = conflicts = 0
        for index, address in enumerate(addresses):
            row_key = row_key_of(address)
            if remap:
                target = remap.get(row_key)
                if target is not None:
                    address = mapper.translate_row(address, target)
                    row_key = target
            bank = row_key[:3]
            open_row = open_rows.get(bank)
            if open_row == row_key[3]:
                hits += 1
            else:
                if open_row is None:
                    misses += 1
                else:
                    conflicts += 1
                open_rows[bank] = row_key[3]
                activate(row_key, 0)
            if reading:
                out.append(memory.read_line(address))
            else:
                memory.write_line(address, out[index])
        stats = self.stats
        for name, count in (
            ("row_hits", hits),
            ("row_misses", misses),
            ("row_conflicts", conflicts),
            ("reads" if reading else "writes", len(out)),
        ):
            if count:
                stats.increment(name, count)
        cycles = (
            hits * self._row_hit_cycles
            + misses * self._row_miss_cycles
            + conflicts * self._row_conflict_cycles
        )
        return cycles, out

    def _activate(self, row_key: RowKey, cycle: int) -> None:
        self.stats.increment("activations")
        if self._rowhammer_active:
            self.rowhammer.record_activation(row_key)
            self._materialise_flips_near(row_key)
        if self.mitigation is not None:
            for victim in self.mitigation.on_activation(row_key, cycle):
                self.refresh_row(victim, mitigation=True)

    def _materialise_flips_near(self, aggressor: RowKey) -> None:
        """Apply bit flips to any neighbour the last activation pushed over RTH."""
        candidates = self.mapper.neighbor_rows(aggressor, 1) + self.mapper.neighbor_rows(
            aggressor, 2
        )
        for victim in candidates:
            if not self.rowhammer.over_threshold(victim):
                continue
            flips = self.rowhammer.compute_flips(
                victim,
                line_address_fn=lambda row, idx: self.mapper.row_addresses(row)[idx],
                read_bit=self.memory.read_bit,
            )
            for flip in flips:
                self.memory.flip_bit(flip.line_address, flip.bit_offset)
                self._flips_log.append(flip)
                self.stats.increment("bit_flips")

    # -- refresh ---------------------------------------------------------------

    def refresh_row(self, row_key: RowKey, mitigation: bool = False) -> None:
        """Refresh a single row (auto-refresh slice or victim refresh)."""
        self.stats.increment("mitigation_refreshes" if mitigation else "refreshes")
        if mitigation:
            self.rowhammer.record_mitigation_refresh(row_key)
            # The mitigation refresh itself may push *its* neighbours over
            # the threshold — the Half-Double mechanism.
            self._materialise_flips_near(row_key)
        else:
            self.rowhammer.record_refresh(row_key)

    def refresh_window(self) -> None:
        """A full 64 ms retention window elapsed: every row refreshed."""
        self.stats.increment("refresh_windows")
        self.rowhammer.refresh_window_elapsed()
        if self.mitigation is not None:
            self.mitigation.on_refresh_window()

    def tick(self, cycle: int) -> None:
        """Advance wall-clock maintenance; call periodically with the CPU cycle."""
        window_cycles = int(
            self.config.timing.refresh_window_ms * 1e-3 * 3e9
        )  # 64 ms at 3 GHz
        if cycle - self._last_refresh_cycle >= window_cycles:
            self._last_refresh_cycle = cycle
            self.refresh_window()

    # -- synthetic fault injection (repro.faults) ------------------------------

    def inject_fault(
        self, line_address: int, bit_offsets: Iterable[int],
        scenario: str = "injected",
    ) -> List[BitFlip]:
        """Flip ``bit_offsets`` of one line, bypassing the physics model.

        Models an arbitrary disturbance (fault-injection campaigns, GbHammer
        style attacks) landing directly in the cells. Flips are materialised
        in backing memory and logged alongside Rowhammer flips with
        ``distance=0`` so forensics and validators can tell them apart.

        The row remap is deliberately *not* applied: disturbance is
        physics, it hits the named physical cells. After retirement the
        victim row's cells still take damage — but no access reads them,
        which is precisely the retirement benefit.
        """
        row_key = self.mapper.row_key_of(line_address)
        flips: List[BitFlip] = []
        for bit_offset in bit_offsets:
            before = self.memory.read_bit(line_address, bit_offset)
            self.memory.flip_bit(line_address, bit_offset)
            flips.append(
                BitFlip(
                    row_key=row_key,
                    line_address=line_address,
                    bit_offset=bit_offset,
                    direction="1->0" if before else "0->1",
                    distance=0,
                )
            )
        self._flips_log.extend(flips)
        self.stats.increment("injected_flips", len(flips))
        return flips

    def tampered_lines(self) -> frozenset:
        """Line addresses with at least one recorded flip (any origin)."""
        return frozenset(flip.line_address for flip in self._flips_log)

    # -- functional data path (used by the memory controller) -------------------

    def read_line(self, address: int) -> bytes:
        if self._row_remap:
            address = self.remap_address(address)
        return self.memory.read_line(address)

    def write_line(self, address: int, data: bytes) -> None:
        if self._row_remap:
            address = self.remap_address(address)
        self.memory.write_line(address, data)

    # -- introspection ------------------------------------------------------------

    @property
    def bit_flips(self) -> List[BitFlip]:
        """All flips materialised so far (forensics for experiments)."""
        return list(self._flips_log)

    def row_of(self, address: int) -> RowKey:
        return self.mapper.decompose(address).row_key

    def addresses_in_row(self, row_key: RowKey) -> List[int]:
        return self.mapper.row_addresses(row_key)

    def open_row(self, bank: BankKey) -> Optional[int]:
        return self._open_rows.get(bank)
