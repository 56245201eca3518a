"""RISC-V RVV baseline: a 1D long-vector ISA on the same in-cache engine.

The RVV comparison of the paper (Figures 10, 11, 13) keeps the hardware
constant -- the same 8K-lane in-SRAM engine -- and changes only the ISA: RVV
provides one-dimensional strided and indexed accesses, so multi-dimensional
patterns are emulated with per-segment masked 1D accesses, packing moves and
extra scalar address arithmetic.

The per-kernel RVV lowering lives with the workloads
(:meth:`repro.workloads.base.Kernel.run_rvv`); this module provides the
emitter those lowerings use.
"""

from __future__ import annotations

import math
from typing import Optional

from ..intrinsics.machine import MVEMachine
from ..intrinsics.mdv import MDV
from ..isa.datatypes import DataType

__all__ = ["RVVEmitter"]


class RVVEmitter:
    """Emits RVV-style 1D instruction sequences onto an :class:`MVEMachine`.

    The emitter keeps the machine configured with a single dimension and
    reproduces the instruction overheads described in Section VII-B: for
    every 1D segment of a multi-dimensional structure it issues the scalar
    address/mask computation, a masked partial load or store, and a move
    that packs the segment into the destination register.
    """

    def __init__(self, machine: MVEMachine):
        self.machine = machine

    # -- configuration ---------------------------------------------------- #

    def set_vector_length(self, length: int) -> None:
        m = self.machine
        m.vsetdimc(1)
        m.vsetdiml(0, min(length, m.simd_lanes))

    # -- 1D primitives ----------------------------------------------------- #

    def load_1d(self, dtype: DataType, base_address: int, stride_elements: int = 1) -> MDV:
        m = self.machine
        if stride_elements in (0, 1):
            return m.vsld(dtype, base_address, (stride_elements,))
        m.vsetldstr(0, stride_elements)
        return m.vsld(dtype, base_address, (3,))

    def store_1d(self, value: MDV, base_address: int, stride_elements: int = 1) -> None:
        m = self.machine
        if stride_elements in (0, 1):
            m.vsst(value, base_address, (stride_elements,))
            return
        m.vsetststr(0, stride_elements)
        m.vsst(value, base_address, (3,))

    # -- multi-dimensional emulation ---------------------------------------- #

    def load_multidim(
        self,
        dtype: DataType,
        base_address: int,
        segment_length: int,
        num_segments: int,
        segment_stride_elements: int,
        element_stride_elements: int = 1,
    ) -> MDV:
        """Emulate a 2D load of ``num_segments`` x ``segment_length`` elements.

        Each segment is one RVV 1D (possibly strided) access; RVV must touch
        each segment with its own masked access and pack it into the long
        vector register with a move, preceded by scalar address and mask
        computation (Figure 11's Config/Move/Mem overheads).  A good RVV
        lowering picks the *largest* 1D-strided component of the pattern as
        the segment, so ``element_stride_elements`` carries that stride.
        """
        m = self.machine
        result: Optional[MDV] = None
        for segment in range(num_segments):
            # Scalar address computation + mask generation for this segment.
            m.scalar(6, loads=1)
            self.set_vector_length(segment_length)
            address = base_address + segment * segment_stride_elements * dtype.bytes
            part = self.load_1d(dtype, address, element_stride_elements)
            packed = m.vcpy(part)
            result = packed if result is None else result
        # The logical register now holds all segments; reflect the combined
        # length so downstream arithmetic uses the right element count.
        self.set_vector_length(min(segment_length * num_segments, m.simd_lanes))
        assert result is not None
        return result

    def store_multidim(
        self,
        value: MDV,
        base_address: int,
        segment_length: int,
        num_segments: int,
        segment_stride_elements: int,
        element_stride_elements: int = 1,
    ) -> None:
        """Emulate a 2D store, segment by segment."""
        m = self.machine
        dtype = value.dtype
        for segment in range(num_segments):
            m.scalar(6, stores=1)
            self.set_vector_length(segment_length)
            unpacked = m.vcpy(value)
            address = base_address + segment * segment_stride_elements * dtype.bytes
            self.store_1d(unpacked, address, element_stride_elements)
        self.set_vector_length(min(segment_length * num_segments, m.simd_lanes))

    def segments_for(self, segment_length: int) -> int:
        """How many 1D segments are needed to fill the SIMD lanes."""
        return max(1, math.floor(self.machine.simd_lanes / max(1, segment_length)))
