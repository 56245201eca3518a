"""SRAM array geometry for the in-cache compute engine.

One compute-enabled SRAM array is 256 word-lines by 256 bit-lines (8 KB).
With the bit-serial layout every bit-line is one SIMD lane, so a 256 KB L2
slice (32 arrays) forms an 8192-lane vector engine (Section II-B).
Control Blocks (CBs) group several arrays under a single FSM (Section V-B,
default four arrays per CB).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SramArrayGeometry", "EngineGeometry"]


@dataclass(frozen=True)
class SramArrayGeometry:
    """Geometry of a single compute-enabled SRAM array."""

    rows: int = 256
    cols: int = 256

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError("array rows must be positive")
        if self.cols <= 0:
            raise ValueError("array cols must be positive")

    @property
    def bits(self) -> int:
        return self.rows * self.cols

    @property
    def size_bytes(self) -> int:
        return self.bits // 8


@dataclass(frozen=True)
class EngineGeometry:
    """Geometry of the whole in-cache vector engine."""

    num_arrays: int = 32
    arrays_per_control_block: int = 4
    array: SramArrayGeometry = SramArrayGeometry()

    def __post_init__(self) -> None:
        if self.num_arrays <= 0:
            raise ValueError("num_arrays must be positive")
        if self.arrays_per_control_block <= 0:
            raise ValueError("arrays_per_control_block must be positive")
        if self.num_arrays % self.arrays_per_control_block:
            raise ValueError("num_arrays must be a multiple of arrays_per_control_block")

    @property
    def num_control_blocks(self) -> int:
        return self.num_arrays // self.arrays_per_control_block

    @property
    def bitlines(self) -> int:
        """Total bit-lines (bit-serial SIMD lanes)."""
        return self.num_arrays * self.array.cols

    @property
    def lanes_per_control_block(self) -> int:
        return self.arrays_per_control_block * self.array.cols

    @property
    def compute_capacity_bytes(self) -> int:
        return self.num_arrays * self.array.size_bytes
