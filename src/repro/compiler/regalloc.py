"""The compiler: one element width per kernel, then greedy register allocation.

MVE's physical register file is unusual: the *vector length* is fixed
(8192 lanes) but the number of registers depends on the element width --
256 word-lines divided by the kernel's widest element type (Section III-G).
Spilling an in-cache register is expensive because all 8192 elements must be
stored to and reloaded from memory, so the allocator follows the paper:
greedy allocation with furthest-next-use (Belady) eviction.  It allocates
over the trace in captured order; the paper's list-hybrid scheduler is not
modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..isa.datatypes import DataType
from ..isa.instructions import (
    ConfigInstruction,
    MemoryInstruction,
    Opcode,
    ScalarBlock,
    TraceEntry,
)
from ..isa.registers import PhysicalRegisterFile
from .liveness import analyze_liveness, defined_register, used_registers

__all__ = ["CompiledKernel", "compile_trace"]

#: Base byte address of the compiler-managed spill area.
SPILL_AREA_BASE = 0x4000_0000


@dataclass
class CompiledKernel:
    """A kernel trace after register allocation: the trace that reaches the
    MVE controller, with the width config and any spill traffic inserted."""

    trace: list[TraceEntry]
    assignment: dict[int, int]
    num_physical_registers: int
    element_bits: int
    spill_stores: int = 0
    spill_loads: int = 0
    peak_pressure: int = 0

    @property
    def spill_count(self) -> int:
        return self.spill_stores + self.spill_loads


def _spill_dtype(bits: int) -> DataType:
    return {8: DataType.INT8, 16: DataType.INT16, 32: DataType.INT32, 64: DataType.INT64}[bits]


def _spill_instruction(
    virtual: int, slot: int, bits: int, lanes: int, is_store: bool
) -> MemoryInstruction:
    dtype = _spill_dtype(bits)
    address = SPILL_AREA_BASE + slot * lanes * dtype.bytes
    return MemoryInstruction(
        Opcode.STRIDED_STORE if is_store else Opcode.STRIDED_LOAD,
        dtype=dtype,
        register=virtual,
        base_address=address,
        stride_modes=(1,),
        is_store=is_store,
        is_random=False,
        resolved_strides=(1,),
        shape_lengths=(lanes,),
        mask=(),
        is_spill=True,
    )


def compile_trace(
    trace: Sequence[TraceEntry],
    register_file: Optional[PhysicalRegisterFile] = None,
) -> CompiledKernel:
    """Compile a recorded trace: assign virtual registers to physical
    registers in captured order, spilling when needed.

    Returns a new trace with a ``vsetwidth`` config instruction injected at
    the top (the compiler's single-kernel-width rule) and spill stores/fills
    inserted where the physical register file overflows.  A register file
    that holds fewer than two registers of the kernel's width raises
    ``ValueError``.
    """
    register_file = register_file or PhysicalRegisterFile()
    liveness = analyze_liveness(trace)
    element_bits = liveness.widest_bits
    num_prs = register_file.register_count(element_bits)
    if num_prs < 2:
        raise ValueError(
            f"{register_file.array_rows}-row arrays hold {num_prs} registers of "
            f"{element_bits}-bit elements; the compiler needs at least 2"
        )
    lanes = register_file.simd_lanes

    assignment: dict[int, int] = {}
    free_prs = list(range(num_prs))
    resident: dict[int, int] = {}  # virtual -> physical currently in the PR file
    spilled_slots: dict[int, int] = {}  # virtual -> spill slot index
    next_spill_slot = 0

    new_trace: list[TraceEntry] = [
        ConfigInstruction(Opcode.SET_WIDTH, operand_a=element_bits)
    ]
    spill_stores = 0
    spill_loads = 0
    peak_pressure = 0

    def evict_victim(index: int, needed: set[int]) -> int:
        """Spill the resident register with the furthest next use."""
        nonlocal next_spill_slot, spill_stores
        candidates = [v for v in resident if v not in needed]
        if not candidates:
            candidates = list(resident)

        def next_use(virtual: int) -> int:
            rng = liveness.ranges.get(virtual)
            if rng is None:
                return -1
            use = rng.next_use_after(index)
            return use if use is not None else 10**9

        victim = max(candidates, key=next_use)
        physical = resident.pop(victim)
        if next_use(victim) < 10**9:
            # Still needed later: write it to the spill area.
            if victim not in spilled_slots:
                spilled_slots[victim] = next_spill_slot
                next_spill_slot += 1
            new_trace.append(
                _spill_instruction(victim, spilled_slots[victim], element_bits, lanes, True)
            )
            spill_stores += 1
        return physical

    def ensure_resident(virtual: int, index: int, needed: set[int]) -> None:
        nonlocal spill_loads
        if virtual in resident:
            return
        if free_prs:
            physical = free_prs.pop(0)
        else:
            physical = evict_victim(index, needed)
        if virtual in spilled_slots:
            new_trace.append(
                _spill_instruction(virtual, spilled_slots[virtual], element_bits, lanes, False)
            )
            spill_loads += 1
        resident[virtual] = physical
        assignment[virtual] = physical

    def release_dead(index: int) -> None:
        dead = []
        for virtual in resident:
            rng = liveness.ranges.get(virtual)
            if rng is None or rng.next_use_after(index) is None:
                dead.append(virtual)
        for virtual in dead:
            free_prs.append(resident.pop(virtual))

    for index, entry in enumerate(trace):
        if isinstance(entry, ScalarBlock):
            new_trace.append(entry)
            continue
        uses = set(used_registers(entry))
        defined = defined_register(entry)
        needed = set(uses)
        if defined is not None:
            needed.add(defined)
        for virtual in uses:
            ensure_resident(virtual, index, needed)
        if defined is not None:
            ensure_resident(defined, index, needed)
        new_trace.append(entry)
        peak_pressure = max(peak_pressure, len(resident))
        release_dead(index)

    return CompiledKernel(
        trace=new_trace,
        assignment=assignment,
        num_physical_registers=num_prs,
        element_bits=element_bits,
        spill_stores=spill_stores,
        spill_loads=spill_loads,
        peak_pressure=peak_pressure,
    )
