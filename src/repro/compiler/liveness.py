"""Liveness analysis over an MVE instruction trace.

The trace produced by the functional machine is a straight-line program
(loops are already unrolled dynamically), so liveness reduces to recording,
for every virtual register, its definition index and use indices.  The
compiler uses this both to pick the kernel element width (widest live
register, Section III-G) and to drive register allocation (furthest next
use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..isa.instructions import (
    ArithmeticInstruction,
    MemoryInstruction,
    MoveInstruction,
    ScalarBlock,
    TraceEntry,
)

__all__ = ["LiveRange", "LivenessInfo", "analyze_liveness", "defined_register", "used_registers"]


@dataclass
class LiveRange:
    """Definition point and uses of one virtual register."""

    definition: int
    uses: list[int] = field(default_factory=list)

    def next_use_after(self, index: int) -> Optional[int]:
        for use in self.uses:
            if use > index:
                return use
        return None


def defined_register(entry: TraceEntry) -> Optional[int]:
    """Virtual register defined by a trace entry (None for stores/config/scalar)."""
    if isinstance(entry, ScalarBlock):
        return None
    if isinstance(entry, MemoryInstruction):
        return None if entry.is_store else entry.register
    if isinstance(entry, MoveInstruction):
        return entry.dest
    if isinstance(entry, ArithmeticInstruction):
        return entry.dest
    return None


def used_registers(entry: TraceEntry) -> tuple[int, ...]:
    """Virtual registers read by a trace entry."""
    if isinstance(entry, ScalarBlock):
        return ()
    if isinstance(entry, MemoryInstruction):
        return (entry.register,) if entry.is_store else ()
    if isinstance(entry, MoveInstruction):
        return (entry.src,)
    if isinstance(entry, ArithmeticInstruction):
        return tuple(entry.sources)
    return ()


def _entry_bits(entry: TraceEntry) -> int:
    dtype = getattr(entry, "dtype", None)
    return dtype.bits if dtype is not None else 32


@dataclass
class LivenessInfo:
    """Result of :func:`analyze_liveness`."""

    ranges: dict[int, LiveRange]
    widest_bits: int


def analyze_liveness(trace: Sequence[TraceEntry]) -> LivenessInfo:
    """Compute every virtual register's live range and the widest element type."""
    ranges: dict[int, LiveRange] = {}
    widest = 8
    for index, entry in enumerate(trace):
        defined = defined_register(entry)
        if defined is not None:
            ranges[defined] = LiveRange(definition=index)
            widest = max(widest, _entry_bits(entry))
        for reg in used_registers(entry):
            if reg in ranges:
                ranges[reg].uses.append(index)
            else:
                # Register defined outside the analysed window (e.g. carried
                # across a tile boundary); treat it as live from the start.
                ranges[reg] = LiveRange(definition=-1, uses=[index])
                widest = max(widest, _entry_bits(entry))
    return LivenessInfo(ranges=ranges, widest_bits=widest)
