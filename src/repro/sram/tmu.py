"""Transpose Memory Unit (TMU) model.

The TMU (Section V-B) is built from 8T transpose bit-cells that can be read
and written both horizontally and vertically.  During a vector load the MVE
controller gathers data words from the regular half of the L2 cache through
the MSHRs, routes each word to its vertical slot through a crossbar, and --
once a control block's worth of elements (1024) has arrived -- streams the
bit-slices horizontally into the compute arrays.  Stores run the reverse
path.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

__all__ = ["TMUConfig", "TransposeMemoryUnit"]


@dataclass(frozen=True)
class TMUConfig:
    """Capacity and timing of the transpose memory unit."""

    #: number of elements buffered per control block (one physical register slice)
    capacity_elements: int = 1024
    #: crossbar routing throughput, elements per cycle
    crossbar_elements_per_cycle: int = 16
    #: cycles to stream one bit-slice row between TMU and the SRAM arrays
    row_transfer_cycles: int = 1


class TransposeMemoryUnit:
    """Latency model for transposing between memory layout and bit-lines."""

    def __init__(self, config: TMUConfig | None = None):
        self.config = config or TMUConfig()

    def fill_cycles(self, num_elements: int, element_bits: int) -> int:
        """Cycles to route ``num_elements`` words into the TMU and write the
        transposed bit-slices into the data arrays."""
        if num_elements <= 0:
            return 0
        cfg = self.config
        full_batches, remainder = divmod(num_elements, cfg.capacity_elements)
        stream = element_bits * cfg.row_transfer_cycles
        route_full = math.ceil(cfg.capacity_elements / cfg.crossbar_elements_per_cycle)
        cycles = full_batches * (route_full + stream)
        if remainder:
            # The final partial batch only routes the elements it actually
            # holds, not the unit's full capacity.
            cycles += math.ceil(remainder / cfg.crossbar_elements_per_cycle) + stream
        return cycles

    def drain_cycles(self, num_elements: int, element_bits: int) -> int:
        """Cycles for the reverse (store) path; symmetric with :meth:`fill_cycles`."""
        return self.fill_cycles(num_elements, element_bits)
