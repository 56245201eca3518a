"""Config-batched trace replay: the MVE timing and energy model.

A captured instruction stream is frozen, which makes every timing model a
pure function of the machine configuration.  :func:`simulate_trace_batch`
exploits that purity: it replays one trace for a whole *axis* of
configurations, sharing every piece of work that does not depend on the
axis.  A single configuration is a batch of one
(:func:`~repro.core.simulator.simulate_trace`); this is the only timing path.

The decomposition leans on three invariants of the timing models:

* **Cache and DRAM state evolution is timing-independent.**  Which lines hit,
  which victims are evicted and which DRAM rows are open depend only on the
  ordered memory footprints and the *structural* parameters (cache geometry,
  channel/bank/row/burst layout) -- never on latencies.  Configs sharing
  those replay one hierarchy; configs differing only in DRAM *timing*
  additionally share the row-buffer classification
  (:meth:`~repro.memory.dram.DRAMModel.classify_batch`) and only re-price it.
* **Placement and SRAM latencies are stateless.**  Per-instruction lane/CB
  placement, compute latencies and TMU fill/drain cycles are pure functions
  of (scheme, engine geometry, instruction), so one pass per distinct
  compute key covers every config using it.
* **The core/engine timeline is cheap.**  Given per-entry durations, the
  queue-backpressure recurrence is a small scalar loop, so it runs per
  config without dominating.

Float accumulation order (energy sums, utilization weights, the timeline
recurrence) follows a per-config walk of the trace, so results are
**bit-identical** to the per-config reference simulator that the parity
suites keep in ``tests/oracle.py``.

Axes that batch together: compute scheme, SRAM-cycle/float-latency knobs,
cache geometry, ``l2_compute_ways``, DRAM structure and timing, TMU and
queue/dispatch parameters.  Axes that split the batch: anything changing the
captured trace (kernel, scale, SIMD lanes) -- those are different
:class:`~repro.core.traces.TraceSpec` groups already -- and the register-file
geometry (array count/rows/cols), which changes the compiled kernel and its
spill traffic (see :func:`replay_group_key`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from ..compiler.pipeline import CompiledKernel, compile_trace_cached
from ..isa.instructions import (
    InstructionCategory,
    MemoryInstruction,
    MVEInstruction,
    ScalarBlock,
    TraceEntry,
)
from ..isa.registers import PhysicalRegisterFile
from ..memory.cache import aggregate_block_cycles, dedup_lines, make_hierarchy
from ..memory.dram import DRAMConfig, DRAMModel
from ..sram.schemes import ComputeScheme, get_scheme
from ..sram.tmu import TransposeMemoryUnit
from .address_gen import cache_line_addresses
from .config import MachineConfig
from .controller import MVEControllerModel
from .energy import EnergyBreakdown, EnergyCoefficients
from .results import SimulationResult

__all__ = [
    "register_file_for",
    "replay_group_key",
    "replay_trace",
    "simulate_trace_batch",
]


def replay_group_key(config: MachineConfig) -> tuple[int, int, int]:
    """The compiled-kernel identity of a config: register-file geometry.

    Configs with equal keys replay the same scheduled, register-allocated
    kernel (shared via :func:`compile_trace_cached`) and may therefore share
    one batched replay; configs with different keys see different spill
    traffic and must split.
    """
    engine = config.engine
    return (engine.num_arrays, engine.array.rows, engine.array.cols)


def register_file_for(config: MachineConfig) -> PhysicalRegisterFile:
    """The physical register file the compiler allocates for ``config``."""
    num_arrays, rows, cols = replay_group_key(config)
    return PhysicalRegisterFile(num_arrays=num_arrays, array_rows=rows, array_cols=cols)


# --------------------------------------------------------------------- #
#  Static trace decomposition (shared by every config of one compiled
#  kernel)
# --------------------------------------------------------------------- #

_OP_SCALAR = 0
_OP_CONFIG = 1
_OP_ENGINE = 2


class _StaticTrace:
    """Per-entry skeleton of one compiled trace, independent of any config."""

    def __init__(self, trace: Sequence[TraceEntry], coefficients: EnergyCoefficients):
        #: (op, index) per entry: scalar blocks index into ``scalar_blocks``,
        #: engine instructions into ``engine_entries``; config instructions
        #: carry no payload
        self.ops: list[tuple[int, int]] = []
        self.scalar_blocks: list[ScalarBlock] = []
        #: non-config MVE instructions in trace order, paired with their
        #: position among memory instructions (-1 for compute)
        self.engine_entries: list[tuple[MVEInstruction, int]] = []
        self.memory_instructions: list[MemoryInstruction] = []

        vector_counts = {category.value: 0 for category in InstructionCategory}
        spills = 0
        scalar_instructions = 0
        cpu_nj = 0.0

        for entry in trace:
            if isinstance(entry, ScalarBlock):
                self.ops.append((_OP_SCALAR, len(self.scalar_blocks)))
                self.scalar_blocks.append(entry)
                scalar_instructions += entry.count
                cpu_nj += entry.count * coefficients.scalar_instruction_pj / 1000.0
                continue
            instruction: MVEInstruction = entry
            category = instruction.category
            vector_counts[category.value] += 1
            if isinstance(instruction, MemoryInstruction) and instruction.is_spill:
                spills += 1
            cpu_nj += 1 * coefficients.scalar_instruction_pj / 1000.0
            if category is InstructionCategory.CONFIG:
                self.ops.append((_OP_CONFIG, 0))
                continue
            memory_index = -1
            if category is InstructionCategory.MEMORY:
                memory_index = len(self.memory_instructions)
                self.memory_instructions.append(instruction)
            self.ops.append((_OP_ENGINE, len(self.engine_entries)))
            self.engine_entries.append((instruction, memory_index))

        self.vector_counts = vector_counts
        self.spill_instructions = spills
        self.scalar_instructions = scalar_instructions
        self.cpu_nj = cpu_nj
        self._lines_by_width: dict[int, list[np.ndarray]] = {}

    def lines_for(self, line_bytes: int) -> list[np.ndarray]:
        """Cache-line footprints of every memory instruction, memoized per
        line size (they are pure functions of instruction and line size)."""
        lines = self._lines_by_width.get(line_bytes)
        if lines is None:
            lines = [
                cache_line_addresses(instruction, line_bytes)
                for instruction in self.memory_instructions
            ]
            self._lines_by_width[line_bytes] = lines
        return lines


# --------------------------------------------------------------------- #
#  Memory pass: one hierarchy replay per cache/DRAM-structure key
# --------------------------------------------------------------------- #


class _MemoryPass:
    """Timing and stats of the memory instructions under one hierarchy.

    ``cycles`` maps each DRAM timing variant to the per-memory-instruction
    block cycles; the hit/miss/access deltas, the final DRAM byte count and
    the L2 hit rate are shared because state evolution never depends on
    timing parameters.
    """

    def __init__(self) -> None:
        self.cycles: dict[DRAMConfig, list[int]] = {}
        self.l2_hits: list[int] = []
        self.llc_hits: list[int] = []
        self.dram_accesses: list[int] = []
        self.dram_bytes: int = 0
        self.l2_hit_rate: float = 0.0


def _run_memory_pass(
    static: _StaticTrace,
    hierarchy_config,
    l2_compute_ways: int,
    dram_variants: Sequence[DRAMConfig],
    warm_cache: bool,
) -> _MemoryPass:
    """Replay the memory footprint stream once, pricing every DRAM timing
    variant.  A warm-cache replay first runs the stream once to fill the
    hierarchy, then clears the statistics (the steady state of a repeatedly
    invoked library kernel)."""
    hierarchy = make_hierarchy(hierarchy_config, l2_compute_ways=l2_compute_ways)
    lines_per_instruction = static.lines_for(hierarchy.line_bytes)
    if warm_cache:
        for instruction, lines in zip(static.memory_instructions, lines_per_instruction):
            hierarchy.vector_block_access(lines, instruction.is_store)
        hierarchy.reset_stats()

    result = _MemoryPass()
    for variant in dram_variants:
        result.cycles[variant] = []
    if len(dram_variants) == 1:
        _record_single_variant(static, hierarchy, lines_per_instruction, result)
    else:
        _record_multi_variant(
            static, hierarchy, lines_per_instruction, dram_variants, result
        )
    result.dram_bytes = hierarchy.dram.stats.bytes_transferred
    result.l2_hit_rate = hierarchy.l2.stats.hit_rate()
    return result


def _record_single_variant(static, hierarchy, lines_per_instruction, result) -> None:
    """One timing variant: drive the hierarchy's own block-access path and
    read the stat deltas around it."""
    cycles = result.cycles[next(iter(result.cycles))]
    for instruction, lines in zip(static.memory_instructions, lines_per_instruction):
        l2_before = hierarchy.l2.stats.hits
        llc_before = hierarchy.llc.stats.hits
        dram_before = hierarchy.dram.stats.reads + hierarchy.dram.stats.writes
        cycles.append(hierarchy.vector_block_access(lines, instruction.is_store))
        result.l2_hits.append(hierarchy.l2.stats.hits - l2_before)
        result.llc_hits.append(hierarchy.llc.stats.hits - llc_before)
        result.dram_accesses.append(
            hierarchy.dram.stats.reads + hierarchy.dram.stats.writes - dram_before
        )


def _record_multi_variant(
    static, hierarchy, lines_per_instruction, dram_variants, result
) -> None:
    """Several timing variants: replay cache/DRAM state once and re-price the
    miss latencies per variant.  This is an exact unrolling of
    :meth:`VectorCacheHierarchy.vector_block_access` with the DRAM latency
    lookup vectorized over the variant axis."""
    inclusive = hierarchy.config.l2.inclusive
    mshr_entries = hierarchy.config.l2.mshr_entries
    l2_hit_latency = hierarchy.config.l2.hit_latency
    base_miss_latency = hierarchy.config.l2.hit_latency + hierarchy.config.llc.hit_latency
    line_bytes = hierarchy.line_bytes
    lines_per_cycle = hierarchy.VECTOR_LINES_PER_CYCLE
    pricing_models = [DRAMModel(variant) for variant in dram_variants]

    for instruction, raw_lines in zip(static.memory_instructions, lines_per_instruction):
        is_write = instruction.is_store
        lines = dedup_lines(raw_lines)
        if lines.size == 0:
            for variant in dram_variants:
                result.cycles[variant].append(0)
            result.l2_hits.append(0)
            result.llc_hits.append(0)
            result.dram_accesses.append(0)
            continue
        l2_mask = hierarchy.l2.access_batch(
            lines, is_write, clear_presence=True, collect_evictions=inclusive
        )
        if inclusive:
            evicted = hierarchy.l2.take_evictions()
            if evicted.size:
                hierarchy.l1d.invalidate_batch(evicted)
        hit_count = int(l2_mask.sum())
        miss_lines = lines[~l2_mask]
        llc_hit_count = 0
        dram_count = 0
        if miss_lines.size:
            llc_mask = hierarchy.llc.access_batch(miss_lines, is_write)
            llc_hit_count = int(llc_mask.sum())
            dram_lines = miss_lines[~llc_mask]
            row_hit = None
            if dram_lines.size:
                row_hit = hierarchy.dram.classify_batch(dram_lines, is_write, line_bytes)
                dram_count = int(dram_lines.size)
            for variant, model in zip(dram_variants, pricing_models):
                latencies = np.full(miss_lines.size, base_miss_latency, dtype=np.int64)
                if row_hit is not None:
                    latencies[~llc_mask] += model.latencies_from_classification(
                        row_hit, line_bytes
                    )
                miss_latencies = latencies.tolist()
                result.cycles[variant].append(
                    aggregate_block_cycles(
                        hit_count,
                        miss_latencies,
                        mshr_entries,
                        l2_hit_latency,
                        model.bandwidth_cycles(len(miss_latencies) * line_bytes),
                        lines_per_cycle,
                    )
                )
        else:
            for variant, model in zip(dram_variants, pricing_models):
                result.cycles[variant].append(
                    aggregate_block_cycles(
                        hit_count,
                        [],
                        mshr_entries,
                        l2_hit_latency,
                        model.bandwidth_cycles(0),
                        lines_per_cycle,
                    )
                )
        result.l2_hits.append(hit_count)
        result.llc_hits.append(llc_hit_count)
        result.dram_accesses.append(dram_count)


def _memory_data_energy(
    static: _StaticTrace, memory: _MemoryPass, coefficients: EnergyCoefficients
) -> float:
    """``data_access_nj`` for one memory pass, accumulated in trace order
    (scalar L1 terms, cache-line terms, TMU terms) so the float sum matches
    a per-config walk bit for bit."""
    data_nj = 0.0
    for op, payload in static.ops:
        if op == _OP_SCALAR:
            block = static.scalar_blocks[payload]
            data_nj += (block.loads + block.stores) * coefficients.l1_access_pj / 1000.0
        elif op == _OP_ENGINE:
            instruction, memory_index = static.engine_entries[payload]
            if memory_index < 0:
                continue
            data_nj += (
                memory.l2_hits[memory_index] * coefficients.l2_line_access_pj
                + memory.llc_hits[memory_index] * coefficients.llc_line_access_pj
                + memory.dram_accesses[memory_index] * coefficients.dram_line_access_pj
            ) / 1000.0
            data_nj += (
                instruction.active_elements() * coefficients.tmu_element_pj / 1000.0
            )
    return data_nj


# --------------------------------------------------------------------- #
#  Compute pass: placement / SRAM / TMU latencies per compute key
# --------------------------------------------------------------------- #


class _ComputePass:
    """Per-entry engine-side latencies for one (scheme, geometry, knobs) key."""

    def __init__(self, n_engine: int, n_memory: int) -> None:
        #: duration of each compute entry (None for memory entries)
        self.compute_durations: list[Optional[float]] = [None] * n_engine
        #: per-engine-entry utilization fractions
        self.lane_utilization: list[float] = [0.0] * n_engine
        self.cb_utilization: list[float] = [0.0] * n_engine
        #: per-memory-instruction TMU and SRAM-row components
        self.tmu_cycles: list[int] = [0] * n_memory
        self.sram_row_cycles: list[float] = [0.0] * n_memory
        self.compute_nj: float = 0.0


def _run_compute_pass(
    static: _StaticTrace,
    scheme: ComputeScheme,
    config: MachineConfig,
    coefficients: EnergyCoefficients,
) -> _ComputePass:
    """Evaluate every placement-, scheme- and TMU-dependent quantity once for
    all configs sharing this compute key."""
    controller = MVEControllerModel(config.engine, scheme)
    tmu = TransposeMemoryUnit(config.tmu)
    multiplier = config.sram_cycle_multiplier
    float_factor = config.float_latency_factor
    dispatch = config.controller_dispatch_cycles
    energy_factor = scheme.energy_per_cycle_factor

    result = _ComputePass(len(static.engine_entries), len(static.memory_instructions))
    compute_nj = 0.0
    for op, payload in static.ops:
        if op != _OP_ENGINE:
            if op == _OP_CONFIG:
                compute_nj += 1 * coefficients.controller_instruction_pj / 1000.0
            continue
        compute_nj += 1 * coefficients.controller_instruction_pj / 1000.0
        instruction, memory_index = static.engine_entries[payload]
        element_bits = instruction.dtype.bits
        placement = controller.placement(instruction, element_bits)
        result.lane_utilization[payload] = placement.lane_utilization
        result.cb_utilization[payload] = placement.cb_utilization
        if memory_index >= 0:
            active_elements = instruction.active_elements()
            active_cbs = max(1, placement.active_control_blocks)
            elements_per_cb = (active_elements + active_cbs - 1) // active_cbs
            if instruction.is_store:
                cycles = tmu.drain_cycles(elements_per_cb, element_bits)
            else:
                cycles = tmu.fill_cycles(elements_per_cb, element_bits)
            result.tmu_cycles[memory_index] = cycles
            result.sram_row_cycles[memory_index] = (
                controller.memory_row_cycles(instruction) * multiplier
            )
        else:
            sram_cycles = controller.compute_sram_cycles(
                instruction, element_bits, float_factor, placement
            )
            result.compute_durations[payload] = sram_cycles * multiplier + dispatch
            compute_nj += (
                sram_cycles
                * placement.active_lanes
                * coefficients.sram_cycle_per_lane_pj
                * energy_factor
                / 1000.0
            )
    result.compute_nj = compute_nj
    return result


# --------------------------------------------------------------------- #
#  Pair merge and per-config timeline
# --------------------------------------------------------------------- #


class _PairDurations:
    """Per-entry durations plus their order-faithful aggregates for one
    (memory variant, compute key) pair."""

    def __init__(
        self,
        static: _StaticTrace,
        memory_cycles: Sequence[int],
        compute: _ComputePass,
        dispatch: int,
    ) -> None:
        durations: list[float] = []
        compute_sum = 0.0
        data_sum = 0.0
        lane_weight = 0.0
        cb_weight = 0.0
        weight_total = 0.0
        for index, (instruction, memory_index) in enumerate(static.engine_entries):
            if memory_index >= 0:
                duration = (
                    max(memory_cycles[memory_index], compute.tmu_cycles[memory_index])
                    + compute.sram_row_cycles[memory_index]
                    + dispatch
                )
                data_sum += duration
            else:
                duration = compute.compute_durations[index]
                compute_sum += duration
            durations.append(duration)
            lane_weight += compute.lane_utilization[index] * duration
            cb_weight += compute.cb_utilization[index] * duration
            weight_total += duration
        self.durations = durations
        self.compute_cycles = compute_sum
        self.data_access_cycles = data_sum
        self.lane_utilization = (lane_weight / weight_total) if weight_total else 0.0
        self.cb_utilization = (cb_weight / weight_total) if weight_total else 0.0


def _run_timeline(
    static: _StaticTrace,
    scalar_cycles: Sequence[float],
    durations: Sequence[float],
    config: MachineConfig,
) -> tuple[float, float]:
    """The core/engine occupancy recurrence: the core issues in program
    order, the instruction queue applies backpressure, and the engine runs
    one entry at a time.  Returns (total_cycles, raw idle)."""
    core_time = 0.0
    engine_free = 0.0
    idle = 0.0
    queue: deque[float] = deque()
    queue_capacity = config.instruction_queue_entries
    dispatch = config.controller_dispatch_cycles
    issue = config.vector_issue_cycles

    for op, payload in static.ops:
        if op == _OP_SCALAR:
            core_time += scalar_cycles[payload]
            continue
        core_time += issue
        while queue and queue[0] <= core_time:
            queue.popleft()
        if len(queue) >= queue_capacity:
            core_time = max(core_time, queue.popleft())
        if op == _OP_CONFIG:
            queue.append(core_time + dispatch)
            continue
        issue_time = core_time + dispatch
        start = max(issue_time, engine_free)
        if start > engine_free:
            idle += start - engine_free
        engine_free = start + durations[payload]
        queue.append(engine_free)

    total_cycles = max(core_time, engine_free)
    return total_cycles, idle


def _scalar_block_cycles(static: _StaticTrace, scalar_ipc: float) -> list[float]:
    """Scalar-block durations under one issue rate (see
    :meth:`ScalarCoreModel.scalar_block_cycles`)."""
    durations = []
    for block in static.scalar_blocks:
        cycles = block.count / scalar_ipc
        cycles += (block.loads + block.stores) * 0.5
        durations.append(cycles)
    return durations


# --------------------------------------------------------------------- #
#  Entry point
# --------------------------------------------------------------------- #


def _compute_key(config: MachineConfig, scheme: ComputeScheme) -> tuple:
    return (
        type(scheme),
        scheme.name,
        getattr(scheme, "segment_bits", None),
        config.engine,
        config.tmu,
        config.sram_cycle_multiplier,
        config.float_latency_factor,
        config.controller_dispatch_cycles,
    )


def _memory_key(config: MachineConfig) -> tuple:
    hierarchy = config.hierarchy
    return (
        hierarchy.l1d,
        hierarchy.l2,
        hierarchy.llc,
        config.l2_compute_ways,
        hierarchy.dram.structure,
    )


def replay_trace(
    trace: Sequence[TraceEntry],
    members: Sequence[tuple[MachineConfig, ComputeScheme]],
    warm_cache: bool = True,
) -> list[SimulationResult]:
    """Time ``trace`` exactly as given -- no compile step -- under every
    (config, scheme) member, sharing the memory and compute passes across
    the axis.  Results come back in member order.

    ``warm_cache=True`` reports a second, steady-state run after one that
    fills the hierarchy; ``False`` reports the cold run.
    """
    coefficients = EnergyCoefficients()
    static = _StaticTrace(trace, coefficients)

    # Memory passes: one hierarchy replay per cache/DRAM-structure key, with
    # DRAM-timing variants priced inside the same pass.
    memory_groups: dict[tuple, dict] = {}
    for config, _ in members:
        group = memory_groups.setdefault(
            _memory_key(config), {"hierarchy": config.hierarchy, "variants": []}
        )
        if config.hierarchy.dram not in group["variants"]:
            group["variants"].append(config.hierarchy.dram)
    memory_passes: dict[tuple, _MemoryPass] = {}
    data_energy: dict[tuple, float] = {}
    for key, group in memory_groups.items():
        l2_compute_ways = key[3]
        memory_passes[key] = _run_memory_pass(
            static, group["hierarchy"], l2_compute_ways, group["variants"], warm_cache
        )
        data_energy[key] = _memory_data_energy(static, memory_passes[key], coefficients)

    # Compute passes: one per (scheme, engine geometry, knobs) key.
    compute_passes: dict[tuple, _ComputePass] = {}
    for config, scheme in members:
        key = _compute_key(config, scheme)
        if key not in compute_passes:
            compute_passes[key] = _run_compute_pass(static, scheme, config, coefficients)

    pair_cache: dict[tuple, _PairDurations] = {}
    scalar_cache: dict[float, list[float]] = {}
    results: list[SimulationResult] = []
    for config, scheme in members:
        memory_key = _memory_key(config)
        compute_key = _compute_key(config, scheme)
        memory = memory_passes[memory_key]
        compute = compute_passes[compute_key]
        pair_key = (memory_key, config.hierarchy.dram, compute_key)
        pair = pair_cache.get(pair_key)
        if pair is None:
            pair = _PairDurations(
                static,
                memory.cycles[config.hierarchy.dram],
                compute,
                config.controller_dispatch_cycles,
            )
            pair_cache[pair_key] = pair
        scalar_cycles = scalar_cache.get(config.scalar_ipc)
        if scalar_cycles is None:
            scalar_cycles = _scalar_block_cycles(static, config.scalar_ipc)
            scalar_cache[config.scalar_ipc] = scalar_cycles

        total_cycles, idle = _run_timeline(static, scalar_cycles, pair.durations, config)
        idle = max(idle, total_cycles - pair.compute_cycles - pair.data_access_cycles)
        seconds = total_cycles / (config.frequency_ghz * 1e9)
        power_mw = coefficients.core_static_mw + coefficients.cache_static_mw
        static_nj = power_mw * 1e-3 * seconds * 1e9

        results.append(
            SimulationResult(
                total_cycles=total_cycles,
                idle_cycles=idle,
                compute_cycles=pair.compute_cycles,
                data_access_cycles=pair.data_access_cycles,
                scalar_instructions=static.scalar_instructions,
                vector_instructions=dict(static.vector_counts),
                spill_instructions=static.spill_instructions,
                lane_utilization=pair.lane_utilization,
                cb_utilization=pair.cb_utilization,
                energy=EnergyBreakdown(
                    compute_nj=compute.compute_nj,
                    data_access_nj=data_energy[memory_key],
                    cpu_nj=static.cpu_nj,
                    static_nj=static_nj,
                ),
                frequency_ghz=config.frequency_ghz,
                dram_bytes=memory.dram_bytes,
                l2_hit_rate=memory.l2_hit_rate,
            )
        )
    return results


def simulate_trace_batch(
    trace: Sequence[TraceEntry],
    configs: Sequence[MachineConfig],
    schemes: Optional[Sequence[Optional[ComputeScheme]]] = None,
    warm_cache: bool = True,
) -> list[tuple[SimulationResult, CompiledKernel]]:
    """Replay one captured trace under every configuration in ``configs``.

    Returns ``(result, compiled)`` pairs in input order.  Configs sharing
    register-file geometry share the compiled kernel (via
    :func:`compile_trace_cached`) and one decomposed replay (memory pass per
    hierarchy key, compute pass per scheme/geometry key, cheap per-config
    timeline); geometry changes split the batch, exactly as
    :func:`replay_group_key` describes.

    ``schemes`` optionally pins a scheme object per config (defaulting to
    ``get_scheme(config.scheme_name)``).
    """
    if schemes is None:
        schemes = [None] * len(configs)
    if len(schemes) != len(configs):
        raise ValueError("schemes must match configs one-to-one")
    members = [
        (config, scheme if scheme is not None else get_scheme(config.scheme_name))
        for config, scheme in zip(configs, schemes)
    ]

    by_geometry: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        by_geometry.setdefault(replay_group_key(config), []).append(index)

    replays: list = [None] * len(configs)
    for indices in by_geometry.values():
        compiled = compile_trace_cached(
            trace, register_file=register_file_for(configs[indices[0]])
        )
        results = replay_trace(
            compiled.trace, [members[index] for index in indices], warm_cache
        )
        for index, result in zip(indices, results):
            replays[index] = (result, compiled)
    return replays
