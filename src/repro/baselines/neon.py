"""Arm Neon (128-bit packed SIMD) baseline model.

Models the Cortex-A76 prime core of Table IV: two 128-bit Advanced SIMD
pipes at 2.8 GHz fed by the L1/L2/LLC/DRAM hierarchy.  The model is
throughput-based: compute time follows from the number of 128-bit vector
micro-ops, memory time from streaming the kernel's footprint through the
*same* cache/DRAM engine the MVE simulator uses (steady-state: the
footprint is streamed twice and the warm pass is billed, so a working set
that fits a given level streams at that level's bandwidth), and the two
overlap as in an out-of-order core.  The same energy coefficients as the
MVE model are used so the Figure 7(b) comparison is consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.config import MachineConfig, default_config
from ..core.energy import EnergyBreakdown, EnergyCoefficients, EnergyModel
from ..memory.cache import make_hierarchy
from ..memory.vector_cache import VectorCacheHierarchy
from .profile import KernelProfile

__all__ = ["NeonResult", "NeonModel"]

#: disjoint base addresses for the synthetic read and write streams
_READ_STREAM_BASE = 0x1000_0000
_WRITE_STREAM_BASE = 0x4000_0000

#: reciprocal throughput (cycles per 128-bit vector op, both pipes combined)
_OP_THROUGHPUT = {
    "add": 0.5,
    "sub": 0.5,
    "mul": 0.5,
    "mac": 0.5,
    "div": 8.0,
    "min": 0.5,
    "max": 0.5,
    "cmp": 0.5,
    "logic": 0.5,
    "shift": 0.5,
    "abs": 0.5,
}


@dataclass
class NeonResult:
    """Execution time and energy of the Neon baseline."""

    total_cycles: float
    compute_cycles: float
    memory_cycles: float
    scalar_cycles: float
    vector_ops: int
    scalar_instructions: int
    energy: EnergyBreakdown
    frequency_ghz: float = 2.8

    @property
    def time_ms(self) -> float:
        return self.total_cycles / (self.frequency_ghz * 1e9) * 1e3

    @property
    def energy_nj(self) -> float:
        return self.energy.total_nj

    def to_dict(self) -> dict:
        """JSON-serializable form (bit-exact round trip) for the persistent
        result store."""
        return {
            "total_cycles": self.total_cycles,
            "compute_cycles": self.compute_cycles,
            "memory_cycles": self.memory_cycles,
            "scalar_cycles": self.scalar_cycles,
            "vector_ops": self.vector_ops,
            "scalar_instructions": self.scalar_instructions,
            "energy": self.energy.to_dict(),
            "frequency_ghz": self.frequency_ghz,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NeonResult":
        return cls(
            total_cycles=float(data["total_cycles"]),
            compute_cycles=float(data["compute_cycles"]),
            memory_cycles=float(data["memory_cycles"]),
            scalar_cycles=float(data["scalar_cycles"]),
            vector_ops=int(data["vector_ops"]),
            scalar_instructions=int(data["scalar_instructions"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            frequency_ghz=float(data["frequency_ghz"]),
        )


class NeonModel:
    """Analytic performance/energy model of the 2x128-bit ASIMD baseline."""

    #: fraction of theoretical peak SIMD throughput real kernels achieve on
    #: the mobile core (dependency stalls, issue limits, loop overhead)
    simd_efficiency = 0.45
    #: peak bytes per cycle the core's two 128-bit load/store pipes sustain
    #: out of the L1-D (the floor below which no cache level helps)
    core_bytes_per_cycle = 32.0

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        coefficients: Optional[EnergyCoefficients] = None,
        simd_efficiency: Optional[float] = None,
        hierarchy: Optional[VectorCacheHierarchy] = None,
    ):
        self.config = config or default_config()
        self.coefficients = coefficients or EnergyCoefficients()
        if simd_efficiency is not None:
            self.simd_efficiency = simd_efficiency
        # The Neon core keeps the whole L2 (no ways repurposed for compute);
        # otherwise this is the very same engine the MVE simulator drives.
        self.hierarchy = hierarchy or make_hierarchy(
            self.config.hierarchy, l2_compute_ways=0
        )

    def _stream_footprint(self, profile: KernelProfile) -> tuple[int, int, int, int]:
        """Stream the kernel's footprint through the cache engine twice and
        bill the steady-state pass.

        Returns ``(cycles, l2_hits, llc_hits, dram_accesses)`` of the warm
        pass; the line counts feed the energy model.
        """
        hierarchy = self.hierarchy
        hierarchy.reset()
        line_bytes = hierarchy.line_bytes
        read_lines = np.arange(
            _READ_STREAM_BASE, _READ_STREAM_BASE + profile.bytes_read, line_bytes, dtype=np.int64
        )
        # Keep the write stream strictly above the read stream even for
        # footprints larger than the nominal gap, so the two never alias.
        read_end = _READ_STREAM_BASE + ((profile.bytes_read + line_bytes - 1) // line_bytes) * line_bytes
        write_base = max(_WRITE_STREAM_BASE, read_end)
        write_lines = np.arange(
            write_base,
            write_base + profile.bytes_written,
            line_bytes,
            dtype=np.int64,
        )
        for warm in (False, True):
            if warm:
                hierarchy.reset_stats()
            cycles = hierarchy.vector_block_access(read_lines, is_write=False)
            cycles += hierarchy.vector_block_access(write_lines, is_write=True)
        dram_stats = hierarchy.dram.stats
        return (
            cycles,
            hierarchy.l2.stats.hits,
            hierarchy.llc.stats.hits,
            dram_stats.reads + dram_stats.writes,
        )

    def run(self, profile: KernelProfile) -> NeonResult:
        cfg = self.config
        lanes = max(1, 128 // profile.element_bits)

        # --- compute ----------------------------------------------------- #
        vector_ops = 0.0
        compute_cycles = 0.0
        for kind, per_element in profile.ops_per_element.items():
            ops = per_element * profile.elements / lanes
            vector_ops += ops
            compute_cycles += ops * _OP_THROUGHPUT[kind]
        compute_cycles /= self.simd_efficiency

        # --- memory ------------------------------------------------------ #
        total_bytes = profile.total_bytes
        engine_cycles, l2_lines, llc_lines, dram_lines = self._stream_footprint(profile)
        # The cache engine bounds the supply side; the core's own load/store
        # pipes bound the demand side.
        memory_cycles = max(float(engine_cycles), total_bytes / self.core_bytes_per_cycle)
        # Vector load/store micro-ops also occupy the SIMD pipes.
        ldst_ops = total_bytes / 16.0
        compute_cycles += ldst_ops * 0.5

        # --- scalar bookkeeping ------------------------------------------ #
        # Hand-tuned Neon kernels unroll about four vectors per loop
        # iteration, so the loop overhead is amortised accordingly.
        iterations = max(1.0, profile.elements / (lanes * 4))
        scalar_instructions = profile.scalar_ops_per_iteration * iterations
        scalar_cycles = scalar_instructions / cfg.scalar_ipc

        # The OoO core overlaps compute with memory imperfectly; scalar loop
        # overhead is mostly hidden but issue bandwidth is shared.
        total_cycles = (
            max(compute_cycles, memory_cycles)
            + 0.3 * min(compute_cycles, memory_cycles)
            + 0.5 * scalar_cycles
        )

        # --- energy ------------------------------------------------------- #
        energy = EnergyModel(self.coefficients, cfg.frequency_ghz)
        energy.add_neon_ops(int(vector_ops + ldst_ops))
        energy.add_scalar(int(scalar_instructions))
        energy.add_l1_accesses(int(ldst_ops))
        energy.add_cache_lines(l2_lines, llc_lines, dram_lines)
        energy.add_static(total_cycles, include_cache=False)

        return NeonResult(
            total_cycles=total_cycles,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            scalar_cycles=scalar_cycles,
            vector_ops=int(vector_ops + ldst_ops),
            scalar_instructions=int(scalar_instructions),
            energy=energy.breakdown,
            frequency_ghz=cfg.frequency_ghz,
        )
