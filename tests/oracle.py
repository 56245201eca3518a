"""Reference implementations the parity suites compare production against.

Production has one timing path (the config-batched replay of
:mod:`repro.core.replay`) over one cache engine (the numpy
:class:`~repro.memory.vector_cache.VectorCacheHierarchy`).  This module keeps
the straightforward versions they were derived from, as executable
specifications for the tests:

* :class:`Cache` / :class:`CacheHierarchy` -- the scalar, per-line cache
  hierarchy: one Python object per line, one access at a time (the
  single-line hierarchy logic is shared with production, so the two agree
  by construction there and the parity suites pin the batched paths);
* :class:`MVESimulator` / :func:`simulate_trace` -- the per-config
  simulator, which walks the trace one instruction at a time for one
  configuration.

Results must match production bit for bit (``SimulationResult.to_dict()``
equality), so any divergence is a bug in one of the two, never noise.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.compiler.pipeline import CompiledKernel, compile_trace_cached
from repro.core.address_gen import cache_line_addresses
from repro.core.config import MachineConfig, default_config
from repro.core.controller import MVEControllerModel
from repro.core.energy import EnergyCoefficients, EnergyModel
from repro.core.results import SimulationResult
from repro.core.scalar_core import ScalarCoreModel
from repro.isa.instructions import (
    InstructionCategory,
    MemoryInstruction,
    MVEInstruction,
    ScalarBlock,
    TraceEntry,
)
from repro.isa.registers import PhysicalRegisterFile
from repro.memory.cache import CacheConfig, CacheStats, aggregate_block_cycles, dedup_lines
from repro.memory.vector_cache import VectorCacheHierarchy
from repro.sram.schemes import ComputeScheme, get_scheme
from repro.sram.tmu import TransposeMemoryUnit

__all__ = ["Cache", "CacheHierarchy", "MVESimulator", "simulate_trace"]


# ---------------------------------------------------------------------- #
#  Scalar, per-line cache hierarchy
# ---------------------------------------------------------------------- #


class _Line:
    __slots__ = ("tag", "valid", "dirty", "present_in_l1", "lru")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.present_in_l1 = False
        self.lru = 0


class Cache:
    """One set-associative, write-back, LRU cache level (scalar reference)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._sets = [[_Line() for _ in range(config.ways)] for _ in range(config.num_sets)]
        self._tick = 0
        #: line-aligned address evicted by the most recent single ``access``
        #: (None when the access hit or filled an invalid way)
        self.last_eviction: Optional[int] = None

    def reset(self) -> None:
        self.stats = CacheStats()
        for cache_set in self._sets:
            for line in cache_set:
                line.tag = -1
                line.valid = False
                line.dirty = False
                line.present_in_l1 = False
                line.lru = 0
        self._tick = 0
        self.last_eviction = None

    def _index_tag(self, address: int) -> tuple[int, int]:
        line_addr = address // self.config.line_bytes
        return line_addr % self.config.num_sets, line_addr // self.config.num_sets

    def _line_address(self, index: int, tag: int) -> int:
        return (tag * self.config.num_sets + index) * self.config.line_bytes

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
        self.last_eviction = None
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
            self.last_eviction = self._line_address(index, victim.tag)
        victim.tag = tag
        victim.valid = True
        victim.dirty = is_write
        victim.present_in_l1 = False
        victim.lru = self._tick
        return False

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` (inclusive back-invalidation);
        returns True if a line was resident.  No statistics are updated."""
        line = self.lookup(address)
        if line is None:
            return False
        line.valid = False
        line.tag = -1
        line.dirty = False
        line.present_in_l1 = False
        line.lru = 0
        return True

    def mark_present_in_l1(self, address: int, present: bool = True) -> None:
        line = self.lookup(address)
        if line is not None:
            line.present_in_l1 = present

    def present_in_l1(self, address: int) -> bool:
        line = self.lookup(address)
        return bool(line and line.present_in_l1)

    def dirty_line_count(self) -> int:
        return sum(
            1 for cache_set in self._sets for line in cache_set if line.valid and line.dirty
        )

    def valid_line_count(self) -> int:
        return sum(1 for cache_set in self._sets for line in cache_set if line.valid)


class CacheHierarchy(VectorCacheHierarchy):
    """The hierarchy on scalar :class:`Cache` levels, with block accesses
    walked one line at a time through the single-line :meth:`l2_access`
    path (which it shares with the production hierarchy)."""

    cache_class = Cache

    def vector_block_access(
        self, line_addresses: Union[np.ndarray, Iterable[int]], is_write: bool = False
    ) -> int:
        """Access a set of cache lines on behalf of one vector memory op.

        Hits stream at :data:`VECTOR_LINES_PER_CYCLE`; misses overlap up to
        the L2 MSHR count.  The returned value is the estimated cycles until
        all lines are available at the Transpose Memory Unit's input.
        """
        lines = dedup_lines(line_addresses)
        if lines.size == 0:
            return 0
        hit_count = 0
        miss_latencies: list[int] = []
        for line_addr in lines.tolist():
            result = self.l2_access(line_addr, is_write, from_core=False)
            if result.hit_level == "L2":
                hit_count += 1
            else:
                miss_latencies.append(result.latency)
        return aggregate_block_cycles(
            hit_count,
            miss_latencies,
            self.config.l2.mshr_entries,
            self.config.l2.hit_latency,
            self.dram.bandwidth_cycles(len(miss_latencies) * self.line_bytes),
            self.VECTOR_LINES_PER_CYCLE,
        )


# ---------------------------------------------------------------------- #
#  Per-config simulator
# ---------------------------------------------------------------------- #


class MVESimulator:
    """End-to-end timing and energy simulator for one MVE-enabled core,
    walking the trace one instruction at a time for one configuration.

    ``hierarchy_class`` defaults to the scalar :class:`CacheHierarchy`;
    passing the production ``VectorCacheHierarchy`` checks only the replay's
    timing decomposition, at a fraction of the per-line cost.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        scheme: Optional[ComputeScheme] = None,
        energy_coefficients: Optional[EnergyCoefficients] = None,
        hierarchy_class: type = CacheHierarchy,
    ):
        self.config = config or default_config()
        self.scheme = scheme or get_scheme(self.config.scheme_name)
        self.hierarchy = hierarchy_class(
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
        scalar_core = ScalarCoreModel(config)
        energy = EnergyModel(self.energy_coefficients, config.frequency_ghz)
        if reset_state:
            self.hierarchy.reset()
        else:
            self.hierarchy.reset_stats()
        self.tmu.reset()

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
                core_time += scalar_core.scalar_block_cycles(entry)
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
            core_time += scalar_core.vector_issue_cycles()
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

            if isinstance(instruction, MemoryInstruction) and instruction.is_store:
                scalar_core.write_buffer.push(instruction, engine_free, core_time)

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

    def _memory_duration(self, instruction: MemoryInstruction, placement, energy: EnergyModel) -> float:
        """Cycles for one vector load/store through the cache, TMU and arrays."""
        config = self.config
        hierarchy = self.hierarchy

        l2_before = hierarchy.l2.stats.hits
        llc_before = hierarchy.llc.stats.hits
        dram_before = hierarchy.dram.stats.reads + hierarchy.dram.stats.writes

        memo = self._line_memo.get(id(instruction))
        if memo is None or memo[0] is not instruction:
            lines = cache_line_addresses(instruction, hierarchy.line_bytes)
            self._line_memo[id(instruction)] = (instruction, lines)
        else:
            lines = memo[1]
        cache_cycles = hierarchy.vector_block_access(lines, instruction.is_store)

        l2_hits = hierarchy.l2.stats.hits - l2_before
        llc_hits = hierarchy.llc.stats.hits - llc_before
        dram_accesses = hierarchy.dram.stats.reads + hierarchy.dram.stats.writes - dram_before
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
    hierarchy_class: type = CacheHierarchy,
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
    simulator = MVESimulator(config=config, scheme=scheme, hierarchy_class=hierarchy_class)
    if warm_cache:
        simulator.run(compiled.trace)
        result = simulator.run(compiled.trace, reset_state=False)
    else:
        result = simulator.run(compiled.trace)
    return result, compiled
