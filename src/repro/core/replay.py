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
  those walk one hierarchy, and they walk the trace's whole footprint
  stream at once: every memory instruction's lines
  (:func:`~repro.core.address_gen.line_footprints`, built from per-pattern
  line tables, never element by element) with its store flag go through
  :meth:`~repro.memory.vector_cache.VectorCacheHierarchy.walk` -- the Neon
  baseline's walk too -- once to fill a warm cache and once to measure.
  Configs differing only in DRAM *timing* additionally share the
  row-buffer classification, which the walk prices under every variant.
* **Placement and SRAM latencies are stateless.**  Per-instruction lane/CB
  placement, compute latencies and TMU fill/drain cycles are pure functions
  of (scheme, engine geometry, instruction pattern), so one pass per
  distinct compute key covers every config using it, and inside a pass
  each distinct pattern (instruction class, opcode, dtype, shape, mask,
  store flag) is priced once -- a trace issues a few patterns many times.
* **The core/engine timeline is cheap.**  Given per-entry durations, the
  queue-backpressure recurrence is a small scalar loop, so it runs per
  config without dominating.

Only vector memory instructions walk the cache hierarchy.  Scalar blocks
are charged in the core timeline (half a cycle and one L1 access energy per
load or store), so neither L1/L2 coherence (Section V-C) nor write-buffer
disambiguation of MVE stores (Equation 2) is modeled.

Float accumulation order (energy sums, utilization weights, the timeline
recurrence) follows a per-config walk of the trace, so results are
**bit-identical** to the per-config reference simulator that the parity
suites keep in ``tests/oracle.py``.

Every axis is a :class:`~repro.core.config.MachineConfig` field -- the
compute scheme is ``config.scheme_name`` -- so the entry points take
configs and nothing beside them.  Axes that batch together: compute scheme,
SRAM-cycle/float-latency knobs, cache geometry, ``l2_compute_ways``, DRAM
structure and timing, TMU and queue/dispatch parameters.  Axes that split
the batch: anything changing the captured trace (kernel, scale, SIMD
lanes) -- those are different :class:`~repro.core.traces.TraceSpec` groups
already -- and the register-file geometry (array count/rows/cols), which
changes the compiled kernel and its spill traffic (see
:func:`replay_group_key`).
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import add
from typing import NamedTuple, Optional, Sequence

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
from ..memory.cache import make_hierarchy
from ..memory.dram import DRAMConfig, DRAMModel
from ..sram.schemes import get_scheme
from ..sram.tmu import TransposeMemoryUnit
from .address_gen import line_footprints
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

    Configs with equal keys replay the same register-allocated kernel
    (shared via :func:`compile_trace_cached`) and may therefore share one
    batched replay; configs with different keys see different spill traffic
    and must split.
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


def _pattern_key(instruction: MVEInstruction) -> tuple:
    """Everything the compute pass reads from an engine instruction:
    placement, TMU, SRAM-row and compute pricing are functions of this key
    (and of the pass's compute key) alone."""
    return (
        type(instruction),
        instruction.opcode,
        instruction.dtype,
        getattr(instruction, "shape_lengths", ()),
        getattr(instruction, "mask", ()),
        getattr(instruction, "is_store", False),
    )


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
        #: one representative instruction per distinct :func:`_pattern_key`
        self.patterns: list[MVEInstruction] = []
        #: pattern index of each engine entry, and of each memory instruction
        self.entry_patterns: list[int] = []
        self.memory_patterns: list[int] = []
        #: the compute pass's energy addends in trace order: 0 for the
        #: controller's per-instruction term, 1 + p for compute pattern p's
        self.energy_terms: list[int] = []
        pattern_index: dict[tuple, int] = {}

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
            self.energy_terms.append(0)
            if category is InstructionCategory.CONFIG:
                self.ops.append((_OP_CONFIG, 0))
                continue
            key = _pattern_key(instruction)
            pattern = pattern_index.get(key)
            if pattern is None:
                pattern = pattern_index[key] = len(self.patterns)
                self.patterns.append(instruction)
            self.entry_patterns.append(pattern)
            memory_index = -1
            if category is InstructionCategory.MEMORY:
                memory_index = len(self.memory_instructions)
                self.memory_instructions.append(instruction)
                self.memory_patterns.append(pattern)
            else:
                self.energy_terms.append(1 + pattern)
            self.ops.append((_OP_ENGINE, len(self.engine_entries)))
            self.engine_entries.append((instruction, memory_index))

        self.vector_counts = vector_counts
        self.spill_instructions = spills
        self.scalar_instructions = scalar_instructions
        self.cpu_nj = cpu_nj
        self.store_flags = [instruction.is_store for instruction in self.memory_instructions]
        self._lines_by_width: dict[int, list[np.ndarray]] = {}

    def lines_for(self, line_bytes: int) -> list[np.ndarray]:
        """Cache-line footprints of every memory instruction, memoized per
        line size (they are pure functions of instruction and line size)."""
        lines = self._lines_by_width.get(line_bytes)
        if lines is None:
            lines = line_footprints(self.memory_instructions, line_bytes)
            self._lines_by_width[line_bytes] = lines
        return lines


# --------------------------------------------------------------------- #
#  Memory pass: one hierarchy replay per cache/DRAM-structure key
# --------------------------------------------------------------------- #


class _MemoryPass(NamedTuple):
    """Timing and stats of the memory instructions under one hierarchy.

    ``cycles`` maps each DRAM timing variant to the per-memory-instruction
    block cycles; the per-instruction line counts, the DRAM byte count and
    the L2 hit rate are shared because state evolution never depends on
    timing parameters.
    """

    cycles: dict[DRAMConfig, list[int]]
    l2_hits: list[int]
    llc_hits: list[int]
    dram_accesses: list[int]
    dram_bytes: int
    l2_hit_rate: float


def _run_memory_pass(
    static: _StaticTrace,
    hierarchy_config,
    l2_compute_ways: int,
    dram_variants: Sequence[DRAMConfig],
    warm_cache: bool,
) -> _MemoryPass:
    """Walk the trace's footprint stream once, pricing every DRAM timing
    variant.  A warm-cache replay first walks the same stream to fill the
    hierarchy, then clears the statistics (the steady state of a repeatedly
    invoked library kernel)."""
    hierarchy = make_hierarchy(hierarchy_config, l2_compute_ways=l2_compute_ways)
    blocks = static.lines_for(hierarchy.line_bytes)
    if warm_cache:
        hierarchy.walk(blocks, static.store_flags, ())
        hierarchy.reset_stats()
    pricing = [DRAMModel(variant) for variant in dram_variants]
    cycles, l2_hits, llc_hits, dram_accesses = hierarchy.walk(
        blocks, static.store_flags, pricing
    )
    return _MemoryPass(
        dict(zip(dram_variants, cycles)),
        l2_hits,
        llc_hits,
        dram_accesses,
        hierarchy.dram.stats.bytes_transferred,
        hierarchy.l2.stats.hit_rate(),
    )


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


class _ComputePass(NamedTuple):
    """Engine-side latencies for one (scheme, geometry, knobs) key.

    Durations and utilization fractions hold one value per engine entry (a
    memory entry's duration is None); TMU and SRAM-row cycles hold one per
    memory instruction."""

    compute_durations: list[Optional[float]]
    lane_utilization: list[float]
    cb_utilization: list[float]
    tmu_cycles: list[int]
    sram_row_cycles: list[float]
    compute_nj: float


def _run_compute_pass(
    static: _StaticTrace, config: MachineConfig, coefficients: EnergyCoefficients
) -> _ComputePass:
    """Evaluate every placement-, scheme- and TMU-dependent quantity once per
    distinct instruction pattern for all configs sharing this compute key,
    then gather the per-entry lists in trace order."""
    scheme = get_scheme(config.scheme_name)
    controller = MVEControllerModel(config.engine, scheme)
    tmu = TransposeMemoryUnit(config.tmu)
    multiplier = config.sram_cycle_multiplier
    float_factor = config.float_latency_factor
    dispatch = config.controller_dispatch_cycles
    energy_factor = scheme.energy_per_cycle_factor

    n_patterns = len(static.patterns)
    lane_utilization = [0.0] * n_patterns
    cb_utilization = [0.0] * n_patterns
    durations: list[Optional[float]] = [None] * n_patterns
    tmu_cycles = [0] * n_patterns
    row_cycles = [0.0] * n_patterns
    # Energy addends: the controller's per-instruction term, then one per
    # pattern (only compute patterns' terms are ever added).
    energy = [1 * coefficients.controller_instruction_pj / 1000.0] + [0.0] * n_patterns
    for pattern, instruction in enumerate(static.patterns):
        element_bits = instruction.dtype.bits
        placement = controller.placement(instruction, element_bits)
        lane_utilization[pattern] = placement.lane_utilization
        cb_utilization[pattern] = placement.cb_utilization
        if instruction.category is InstructionCategory.MEMORY:
            active_elements = instruction.active_elements()
            active_cbs = max(1, placement.active_control_blocks)
            elements_per_cb = (active_elements + active_cbs - 1) // active_cbs
            if instruction.is_store:
                tmu_cycles[pattern] = tmu.drain_cycles(elements_per_cb, element_bits)
            else:
                tmu_cycles[pattern] = tmu.fill_cycles(elements_per_cb, element_bits)
            row_cycles[pattern] = controller.memory_row_cycles(instruction) * multiplier
        else:
            sram_cycles = controller.compute_sram_cycles(
                instruction, element_bits, float_factor, placement
            )
            durations[pattern] = sram_cycles * multiplier + dispatch
            energy[1 + pattern] = (
                sram_cycles
                * placement.active_lanes
                * coefficients.sram_cycle_per_lane_pj
                * energy_factor
                / 1000.0
            )

    # Plain left-to-right addition in trace order: a reordered (or
    # compensated, as ``sum`` is on floats since Python 3.12) sum is not
    # bit-identical to a per-config walk.
    compute_nj = reduce(add, map(energy.__getitem__, static.energy_terms), 0.0)
    return _ComputePass(
        compute_durations=list(map(durations.__getitem__, static.entry_patterns)),
        lane_utilization=list(map(lane_utilization.__getitem__, static.entry_patterns)),
        cb_utilization=list(map(cb_utilization.__getitem__, static.entry_patterns)),
        tmu_cycles=list(map(tmu_cycles.__getitem__, static.memory_patterns)),
        sram_row_cycles=list(map(row_cycles.__getitem__, static.memory_patterns)),
        compute_nj=compute_nj,
    )


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
    """Scalar-block durations under one issue rate.  Scalar loads and stores
    never enter the cache model: the OoO window hides most of their L1
    latency, so each is charged a flat half cycle."""
    durations = []
    for block in static.scalar_blocks:
        cycles = block.count / scalar_ipc
        cycles += (block.loads + block.stores) * 0.5
        durations.append(cycles)
    return durations


# --------------------------------------------------------------------- #
#  Entry point
# --------------------------------------------------------------------- #


def _compute_key(config: MachineConfig) -> tuple:
    return (
        config.scheme_name,
        config.engine,
        config.tmu,
        config.sram_cycle_multiplier,
        config.float_latency_factor,
        config.controller_dispatch_cycles,
    )


def _memory_key(config: MachineConfig) -> tuple:
    hierarchy = config.hierarchy
    return (
        hierarchy.l1d.line_bytes,
        hierarchy.l2,
        hierarchy.llc,
        config.l2_compute_ways,
        hierarchy.dram.structure,
    )


def replay_trace(
    trace: Sequence[TraceEntry],
    configs: Sequence[MachineConfig],
    warm_cache: bool = True,
) -> list[SimulationResult]:
    """Time ``trace`` exactly as given -- no compile step -- under every
    config, sharing the memory and compute passes across the axis.  Results
    come back in config order.

    ``warm_cache=True`` reports a second, steady-state run after one that
    fills the hierarchy; ``False`` reports the cold run.
    """
    coefficients = EnergyCoefficients()
    static = _StaticTrace(trace, coefficients)

    # Memory passes: one hierarchy replay per cache/DRAM-structure key, with
    # DRAM-timing variants priced inside the same pass.
    memory_groups: dict[tuple, dict] = {}
    for config in configs:
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
    for config in configs:
        key = _compute_key(config)
        if key not in compute_passes:
            compute_passes[key] = _run_compute_pass(static, config, coefficients)

    pair_cache: dict[tuple, _PairDurations] = {}
    scalar_cache: dict[float, list[float]] = {}
    results: list[SimulationResult] = []
    for config in configs:
        memory_key = _memory_key(config)
        compute_key = _compute_key(config)
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
) -> list[tuple[SimulationResult, CompiledKernel]]:
    """Replay one captured trace, warm, under every configuration in
    ``configs``.

    Returns ``(result, compiled)`` pairs in input order.  Configs sharing
    register-file geometry share the compiled kernel (via
    :func:`compile_trace_cached`) and one decomposed replay (memory pass per
    hierarchy key, compute pass per scheme/geometry key, cheap per-config
    timeline); geometry changes split the batch, exactly as
    :func:`replay_group_key` describes.
    """
    by_geometry: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        by_geometry.setdefault(replay_group_key(config), []).append(index)

    replays: list = [None] * len(configs)
    for indices in by_geometry.values():
        compiled = compile_trace_cached(
            trace, register_file=register_file_for(configs[indices[0]])
        )
        results = replay_trace(compiled.trace, [configs[index] for index in indices])
        for index, result in zip(indices, results):
            replays[index] = (result, compiled)
    return replays
