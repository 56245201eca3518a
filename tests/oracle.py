"""Reference implementations the parity suites compare production against.

Production has one timing path (the config-batched replay of
:mod:`repro.core.replay`) over one cache engine (the numpy
:class:`~repro.memory.vector_cache.VectorCacheHierarchy`).  This module keeps
independent, straightforward versions of both, as executable specifications
for the tests:

* :class:`Cache` / :class:`DRAM` / :class:`CacheHierarchy` -- a per-line
  L2 / LLC / DRAM hierarchy: one Python object per cache line, one access
  at a time, one open-row lookup per DRAM access, with its own block-cycle
  arithmetic.  It shares only the configuration types with production;
* :class:`MVESimulator` / :func:`simulate_trace` -- the per-config
  simulator, which walks the trace one instruction at a time for one
  configuration, with its own scalar-block arithmetic.  It books energy
  per event through :class:`EngineEnergyModel`, which adds the in-cache
  engine's SRAM-compute, controller and TMU charges that production replay
  prices in bulk.

Both hierarchies answer the same ``walk(blocks, writes, dram_models)``
call -- production walks the whole block stream level by level, the
reference loops its own walk block by block and line by line -- so the Neon
baseline runs on either.  Results must match production bit for bit
(``SimulationResult.to_dict()`` equality), so any divergence is a bug in one
of the two, never noise.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.compiler.pipeline import CompiledKernel, compile_trace_cached
from repro.core.address_gen import cache_line_addresses
from repro.core.config import MachineConfig, default_config
from repro.core.controller import MVEControllerModel
from repro.core.energy import EnergyCoefficients, EnergyModel
from repro.core.results import SimulationResult
from repro.isa.instructions import (
    InstructionCategory,
    MemoryInstruction,
    MVEInstruction,
    ScalarBlock,
    TraceEntry,
)
from repro.isa.registers import PhysicalRegisterFile
from repro.memory.cache import CacheConfig, CacheStats, HierarchyConfig
from repro.memory.dram import DRAMConfig, DRAMStats
from repro.sram.schemes import ComputeScheme, get_scheme
from repro.sram.tmu import TransposeMemoryUnit

__all__ = [
    "Cache",
    "CacheHierarchy",
    "DRAM",
    "EngineEnergyModel",
    "MVESimulator",
    "dram_latency",
    "simulate_trace",
]


# ---------------------------------------------------------------------- #
#  Per-line cache hierarchy
# ---------------------------------------------------------------------- #


class _Line:
    __slots__ = ("tag", "valid", "dirty", "lru")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.lru = 0


class Cache:
    """One set-associative, write-back, LRU cache level (per-line reference)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._sets = [[_Line() for _ in range(config.ways)] for _ in range(config.num_sets)]
        self._tick = 0

    def reset(self) -> None:
        self.stats = CacheStats()
        for cache_set in self._sets:
            for line in cache_set:
                line.tag = -1
                line.valid = False
                line.dirty = False
                line.lru = 0
        self._tick = 0

    def _index_tag(self, address: int) -> tuple[int, int]:
        line_addr = address // self.config.line_bytes
        return line_addr % self.config.num_sets, line_addr // self.config.num_sets

    def lookup(self, address: int) -> Optional[_Line]:
        """Return the resident line for ``address`` without updating stats."""
        index, tag = self._index_tag(address)
        for line in self._sets[index]:
            if line.valid and line.tag == tag:
                return line
        return None

    def probe(self, address: int) -> bool:
        """True if the line holding ``address`` is resident."""
        return self.lookup(address) is not None

    def _select_victim(self, cache_set: list[_Line]) -> _Line:
        """Invalid ways are filled before any valid line is evicted; among
        valid lines the least-recently-used one goes."""
        for line in cache_set:
            if not line.valid:
                return line
        return min(cache_set, key=lambda candidate: candidate.lru)

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one cache line; returns True on hit.

        On a miss the line is installed (the caller models the fill latency
        through the next level).
        """
        self._tick += 1
        index, tag = self._index_tag(address)
        cache_set = self._sets[index]
        for line in cache_set:
            if line.valid and line.tag == tag:
                line.lru = self._tick
                if is_write:
                    line.dirty = True
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        victim = self._select_victim(cache_set)
        if victim.valid:
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
        victim.tag = tag
        victim.valid = True
        victim.dirty = is_write
        victim.lru = self._tick
        return False

    def dirty_line_count(self) -> int:
        return sum(
            1 for cache_set in self._sets for line in cache_set if line.valid and line.dirty
        )

    def valid_line_count(self) -> int:
        return sum(1 for cache_set in self._sets for line in cache_set if line.valid)


def dram_latency(config: DRAMConfig, row_hit: bool, size_bytes: int = 64) -> int:
    """Cycles of one DRAM access under ``config``'s timing parameters."""
    bursts = max(1, (size_bytes + config.burst_bytes - 1) // config.burst_bytes)
    base = config.row_hit_latency if row_hit else config.row_miss_latency
    return base + (bursts - 1) * config.t_burst


class DRAM:
    """Per-access bank / row-buffer DRAM: one open row per (channel, bank)."""

    def __init__(self, config: Optional[DRAMConfig] = None):
        self.config = config or DRAMConfig()
        self.stats = DRAMStats()
        self.open_rows: dict[tuple[int, int], int] = {}

    def reset(self) -> None:
        self.stats = DRAMStats()
        self.open_rows.clear()

    def access(self, address: int, is_write: bool = False, size_bytes: int = 64) -> bool:
        """Access DRAM, leaving the address's row open; returns True on a
        row-buffer hit (price it with :func:`dram_latency`)."""
        cfg = self.config
        row = address // cfg.row_size_bytes
        key = ((address // cfg.burst_bytes) % cfg.num_channels, row % cfg.num_banks)
        row_hit = self.open_rows.get(key) == row
        self.open_rows[key] = row
        if row_hit:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        self.stats.bytes_transferred += size_bytes
        bursts = max(1, (size_bytes + cfg.burst_bytes - 1) // cfg.burst_bytes)
        self.stats.busy_cycles += bursts * cfg.t_burst
        return row_hit


class CacheHierarchy:
    """Private L2 / shared LLC / DRAM on per-line :class:`Cache` levels, with
    vector blocks walked one line at a time."""

    VECTOR_LINES_PER_CYCLE = 2

    def __init__(self, config: Optional[HierarchyConfig] = None, l2_compute_ways: int = 4):
        self.config = config or HierarchyConfig()
        l2 = self.config.l2
        storage_ways = max(1, l2.ways - l2_compute_ways)
        self.l2 = Cache(
            replace(l2, size_bytes=l2.size_bytes * storage_ways // l2.ways, ways=storage_ways)
        )
        self.llc = Cache(self.config.llc)
        self.dram = DRAM(self.config.dram)
        self.line_bytes = self.config.l1d.line_bytes

    def reset(self) -> None:
        self.l2.reset()
        self.llc.reset()
        self.dram.reset()

    def reset_stats(self) -> None:
        self.l2.stats = CacheStats()
        self.llc.stats = CacheStats()
        self.dram.stats = DRAMStats()

    def walk(
        self, blocks: Sequence[Iterable[int]], writes: Sequence[bool], dram_models: Sequence
    ) -> tuple[list[list[int]], list[int], list[int], list[int]]:
        """The engine's ``walk`` call, answered one block at a time:
        ``(cycles, l2_hits, llc_hits, dram_accesses)`` with one entry per
        block, ``cycles`` holding one such list per model."""
        walked = [
            self.block_access(lines, is_write, dram_models)
            for lines, is_write in zip(blocks, writes)
        ]
        cycles = [[block[0][model] for block in walked] for model in range(len(dram_models))]
        l2_hits, llc_hits, dram_accesses = (
            [block[field] for block in walked] for field in (1, 2, 3)
        )
        return cycles, l2_hits, llc_hits, dram_accesses

    def block_access(
        self, line_addresses: Iterable[int], is_write: bool, dram_models: Sequence
    ) -> tuple[list[int], int, int, int]:
        """Walk one vector op's lines (first occurrence order) through
        L2 -> LLC -> DRAM, one line at a time.  Returns ``(cycles, l2_hits,
        llc_hits, dram_accesses)``, ``cycles`` holding the block priced under
        each model's ``config``."""
        l2_hits = llc_hits = 0
        # per L2 miss: None for an LLC hit, else the DRAM row-hit bit
        misses: list[Optional[bool]] = []
        for line in dict.fromkeys(int(address) for address in line_addresses):
            if self.l2.access(line, is_write):
                l2_hits += 1
            elif self.llc.access(line, is_write):
                llc_hits += 1
                misses.append(None)
            else:
                misses.append(self.dram.access(line, is_write, self.line_bytes))
        cycles = [self._block_cycles(l2_hits, misses, model.config) for model in dram_models]
        return cycles, l2_hits, llc_hits, len(misses) - llc_hits

    def _block_cycles(self, hits: int, misses: list[Optional[bool]], dram: DRAMConfig) -> int:
        """Hits stream after one L2 latency; misses overlap in windows of the
        L2's MSHR count, never faster than DRAM peak bandwidth."""
        l2, lanes = self.config.l2, self.VECTOR_LINES_PER_CYCLE
        cycles = 0
        if hits:
            cycles = l2.hit_latency + math.ceil((hits - 1) / lanes)
        if not misses:
            return cycles
        base = l2.hit_latency + self.config.llc.hit_latency
        latencies = [
            base if row_hit is None else base + dram_latency(dram, row_hit, self.line_bytes)
            for row_hit in misses
        ]
        windows = 0
        for start in range(0, len(latencies), l2.mshr_entries):
            window = latencies[start : start + l2.mshr_entries]
            windows += max(window) + math.ceil((len(window) - 1) / lanes)
        floor = math.ceil(len(misses) * self.line_bytes / dram.peak_bytes_per_cycle)
        return cycles + max(windows, floor)


# ---------------------------------------------------------------------- #
#  Per-config simulator
# ---------------------------------------------------------------------- #


class EngineEnergyModel(EnergyModel):
    """Production's event accumulator plus the in-cache engine's per-event
    charges, which only this one-instruction-at-a-time reference books."""

    def add_sram_compute(self, sram_cycles: float, active_lanes: int, energy_factor: float = 1.0) -> None:
        self.breakdown.compute_nj += (
            sram_cycles * active_lanes * self.c.sram_cycle_per_lane_pj * energy_factor / 1000.0
        )

    def add_controller(self, instructions: int) -> None:
        self.breakdown.compute_nj += instructions * self.c.controller_instruction_pj / 1000.0

    def add_tmu(self, elements: int) -> None:
        self.breakdown.data_access_nj += elements * self.c.tmu_element_pj / 1000.0


class MVESimulator:
    """End-to-end timing and energy simulator for one MVE-enabled core,
    walking the trace one instruction at a time for one configuration, over
    the per-line :class:`CacheHierarchy`."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        scheme: Optional[ComputeScheme] = None,
        energy_coefficients: Optional[EnergyCoefficients] = None,
    ):
        self.config = config or default_config()
        self.scheme = scheme or get_scheme(self.config.scheme_name)
        self.hierarchy = CacheHierarchy(
            self.config.hierarchy, l2_compute_ways=self.config.l2_compute_ways
        )
        self.controller = MVEControllerModel(self.config.engine, self.scheme)
        self.tmu = TransposeMemoryUnit(self.config.tmu)
        self.energy_coefficients = energy_coefficients or EnergyCoefficients()
        # Cache-line footprints are pure functions of the (immutable) memory
        # instruction, so they are memoized per instruction object: warm-cache
        # runs replay the same trace and skip the address expansion entirely.
        # The instruction is kept in the value to pin its id() against reuse.
        # Footprints stay ndarrays end-to-end: address generation, the memo
        # and the cache engine's block access all speak int64 arrays.
        self._line_memo: dict[int, tuple[MemoryInstruction, np.ndarray]] = {}

    # ------------------------------------------------------------------ #

    def run(self, trace: Sequence[TraceEntry], reset_state: bool = True) -> SimulationResult:
        """Simulate an already-compiled trace and return the result.

        With ``reset_state=False`` the cache contents from a previous run are
        kept (only statistics are cleared), which models the steady-state,
        warm-cache behaviour of repeatedly-invoked library kernels.
        """
        config = self.config
        energy = EngineEnergyModel(self.energy_coefficients, config.frequency_ghz)
        if reset_state:
            self.hierarchy.reset()
        else:
            self.hierarchy.reset_stats()

        core_time = 0.0
        engine_free = 0.0
        idle = 0.0
        compute = 0.0
        data_access = 0.0

        queue: deque[float] = deque()
        queue_capacity = config.instruction_queue_entries
        dispatch = config.controller_dispatch_cycles

        vector_counts: dict[str, int] = {c.value: 0 for c in InstructionCategory}
        spills = 0
        scalar_instructions = 0

        lane_util_weight = 0.0
        cb_util_weight = 0.0
        util_weight_total = 0.0

        dram_bytes_start = self.hierarchy.dram.stats.bytes_transferred

        for entry in trace:
            if isinstance(entry, ScalarBlock):
                # Scalar loads and stores stay in the core: half a cycle
                # each, never a cache-model access.
                core_time += entry.count / config.scalar_ipc + (entry.loads + entry.stores) * 0.5
                scalar_instructions += entry.count
                energy.add_scalar(entry.count)
                energy.add_l1_accesses(entry.loads + entry.stores)
                continue

            instruction: MVEInstruction = entry
            category = instruction.category
            vector_counts[category.value] += 1
            if isinstance(instruction, MemoryInstruction) and instruction.is_spill:
                spills += 1

            # The core decodes/commits and issues the instruction.
            core_time += config.vector_issue_cycles
            energy.add_scalar(1)
            energy.add_controller(1)

            # Instruction-queue backpressure.
            while queue and queue[0] <= core_time:
                queue.popleft()
            if len(queue) >= queue_capacity:
                core_time = max(core_time, queue.popleft())

            if category is InstructionCategory.CONFIG:
                # Config instructions update controller CRs; they do not
                # occupy the SRAM arrays.
                queue.append(core_time + dispatch)
                continue

            issue_time = core_time + dispatch
            start = max(issue_time, engine_free)
            if start > engine_free:
                idle += start - engine_free

            element_bits = instruction.dtype.bits
            placement = self.controller.placement(instruction, element_bits)

            if category is InstructionCategory.MEMORY:
                duration = self._memory_duration(instruction, placement, energy)
                data_access += duration
            else:
                sram_cycles = self.controller.compute_sram_cycles(
                    instruction, element_bits, config.float_latency_factor, placement
                )
                duration = sram_cycles * config.sram_cycle_multiplier + dispatch
                compute += duration
                energy.add_sram_compute(
                    sram_cycles,
                    placement.active_lanes,
                    self.scheme.energy_per_cycle_factor,
                )

            engine_free = start + duration
            queue.append(engine_free)

            lane_util_weight += placement.lane_utilization * duration
            cb_util_weight += placement.cb_utilization * duration
            util_weight_total += duration

        total_cycles = max(core_time, engine_free)
        # Any time the control blocks are not computing or moving data is
        # idle time (waiting for the core to issue work), matching the
        # paper's classification.
        idle = max(idle, total_cycles - compute - data_access)
        energy.add_static(total_cycles)

        l2_stats = self.hierarchy.l2.stats
        result = SimulationResult(
            total_cycles=total_cycles,
            idle_cycles=idle,
            compute_cycles=compute,
            data_access_cycles=data_access,
            scalar_instructions=scalar_instructions,
            vector_instructions=vector_counts,
            spill_instructions=spills,
            lane_utilization=(lane_util_weight / util_weight_total) if util_weight_total else 0.0,
            cb_utilization=(cb_util_weight / util_weight_total) if util_weight_total else 0.0,
            energy=energy.breakdown,
            frequency_ghz=config.frequency_ghz,
            dram_bytes=self.hierarchy.dram.stats.bytes_transferred - dram_bytes_start,
            l2_hit_rate=l2_stats.hit_rate(),
        )
        return result

    # ------------------------------------------------------------------ #

    def _memory_duration(self, instruction: MemoryInstruction, placement, energy: EngineEnergyModel) -> float:
        """Cycles for one vector load/store through the cache, TMU and arrays."""
        config = self.config
        hierarchy = self.hierarchy
        memo = self._line_memo.get(id(instruction))
        if memo is None or memo[0] is not instruction:
            lines = cache_line_addresses(instruction, hierarchy.line_bytes)
            self._line_memo[id(instruction)] = (instruction, lines)
        else:
            lines = memo[1]
        (cache_cycles,), l2_hits, llc_hits, dram_accesses = hierarchy.block_access(
            lines, instruction.is_store, (hierarchy.dram,)
        )
        energy.add_cache_lines(l2_hits, llc_hits, dram_accesses)

        active_elements = instruction.active_elements()
        active_cbs = max(1, placement.active_control_blocks)
        elements_per_cb = (active_elements + active_cbs - 1) // active_cbs
        if instruction.is_store:
            tmu_cycles = self.tmu.drain_cycles(elements_per_cb, instruction.dtype.bits)
        else:
            tmu_cycles = self.tmu.fill_cycles(elements_per_cb, instruction.dtype.bits)
        energy.add_tmu(active_elements)

        sram_row_cycles = (
            self.controller.memory_row_cycles(instruction) * config.sram_cycle_multiplier
        )
        # Cache fetches and TMU routing overlap; the array write of the
        # transposed bit-slices follows.
        return max(cache_cycles, tmu_cycles) + sram_row_cycles + config.controller_dispatch_cycles


def simulate_trace(
    trace: Sequence[TraceEntry],
    config: Optional[MachineConfig] = None,
    scheme: Optional[ComputeScheme] = None,
    warm_cache: bool = True,
) -> tuple[SimulationResult, CompiledKernel]:
    """Reference for :func:`repro.core.simulator.simulate_trace`: compile
    through the same geometry-keyed memo, then run :class:`MVESimulator`
    (twice for ``warm_cache``, reporting the steady-state second run)."""
    config = config or default_config()
    register_file = PhysicalRegisterFile(
        num_arrays=config.engine.num_arrays,
        array_rows=config.engine.array.rows,
        array_cols=config.engine.array.cols,
    )
    compiled = compile_trace_cached(trace, register_file=register_file)
    simulator = MVESimulator(config=config, scheme=scheme)
    if warm_cache:
        simulator.run(compiled.trace)
        result = simulator.run(compiled.trace, reset_state=False)
    else:
        result = simulator.run(compiled.trace)
    return result, compiled
