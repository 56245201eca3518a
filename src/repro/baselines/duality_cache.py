"""Duality Cache (SIMT) baseline model.

Duality Cache executes a CUDA-like SIMT program entirely inside the SRAM
arrays: control flow, address calculation and arithmetic are all performed
per-lane by in-SRAM operations, and every scalar or vector variable lives in
the scarce in-cache register file, causing frequent spills and fills of
8K-element registers (Section VII-B, Figure 12(a)).

Rather than writing a separate simulator, this module *transforms* a
compiled MVE trace into its SIMT equivalent:

* every vector memory access gains per-lane address-calculation arithmetic
  (one multiply and one add per dimension, at int32 precision),
* every scalar block is replaced by in-SRAM control-flow/compare operations
  (the SIMT model offloads control flow to the lanes), and
* extra spill/fill memory traffic is injected to model the higher register
  pressure of keeping all scalars vectorised.

The transformed trace then runs, cold and as given (no compile step), on
the same timing model as MVE (:func:`~repro.core.simulator.simulate_kernel`),
which keeps the comparison grounded in one simulator.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.config import MachineConfig, default_config
from ..core.results import SimulationResult
from ..core.simulator import simulate_kernel
from ..isa.datatypes import DataType
from ..isa.instructions import (
    ArithmeticInstruction,
    MemoryInstruction,
    Opcode,
    ScalarBlock,
    TraceEntry,
)
from ..sram.schemes import ComputeScheme

__all__ = ["to_simt_trace", "DualityCacheModel"]

_SPILL_BASE = 0x5000_0000


def _address_calc_ops(instruction: MemoryInstruction) -> list[ArithmeticInstruction]:
    """Per-lane address computation the SIMT model performs in-SRAM."""
    ops: list[ArithmeticInstruction] = []
    dims = max(1, len(instruction.shape_lengths))
    for _ in range(dims):
        ops.append(
            ArithmeticInstruction(
                Opcode.MUL,
                dtype=DataType.INT32,
                dest=-1,
                sources=(-1, -1),
                shape_lengths=instruction.shape_lengths,
                mask=instruction.mask,
            )
        )
        ops.append(
            ArithmeticInstruction(
                Opcode.ADD,
                dtype=DataType.INT32,
                dest=-1,
                sources=(-1, -1),
                shape_lengths=instruction.shape_lengths,
                mask=instruction.mask,
            )
        )
    return ops


def _control_flow_ops(block: ScalarBlock, shape: tuple[int, ...]) -> list[ArithmeticInstruction]:
    """In-SRAM compare/branch work replacing a scalar block under SIMT."""
    # One vectorised compare per ~8 scalar instructions of control flow.
    count = max(1, block.count // 8)
    return [
        ArithmeticInstruction(
            Opcode.GT,
            dtype=DataType.INT32,
            dest=-1,
            sources=(-1, -1),
            shape_lengths=shape,
            mask=(),
        )
        for _ in range(count)
    ]


def _spill_pair(shape: tuple[int, ...], slot: int) -> list[MemoryInstruction]:
    dtype = DataType.INT32
    total = 1
    for length in shape:
        total *= length
    address = _SPILL_BASE + slot * total * dtype.bytes
    common = dict(
        dtype=dtype,
        register=-1,
        base_address=address,
        stride_modes=(1,),
        resolved_strides=(1,),
        shape_lengths=shape,
        mask=(),
        is_spill=True,
    )
    return [
        MemoryInstruction(Opcode.STRIDED_STORE, is_store=True, is_random=False, **common),
        MemoryInstruction(Opcode.STRIDED_LOAD, is_store=False, is_random=False, **common),
    ]


def to_simt_trace(
    trace: Sequence[TraceEntry],
    spill_every_n_memory_ops: int = 4,
) -> list[TraceEntry]:
    """Convert a compiled MVE trace to its Duality-Cache SIMT equivalent."""
    simt: list[TraceEntry] = []
    last_shape: tuple[int, ...] = (8192,)
    memory_ops_seen = 0
    spill_slot = 0
    for entry in trace:
        if isinstance(entry, ScalarBlock):
            simt.extend(_control_flow_ops(entry, last_shape))
            continue
        if isinstance(entry, MemoryInstruction):
            if entry.shape_lengths:
                last_shape = entry.shape_lengths
            simt.extend(_address_calc_ops(entry))
            simt.append(entry)
            memory_ops_seen += 1
            if spill_every_n_memory_ops and memory_ops_seen % spill_every_n_memory_ops == 0:
                simt.extend(_spill_pair(last_shape, spill_slot))
                spill_slot += 1
            continue
        shape = getattr(entry, "shape_lengths", ())
        if shape:
            last_shape = shape
        simt.append(entry)
    return simt


class DualityCacheModel:
    """Runs the SIMT-transformed trace on the shared timing simulator."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        scheme: Optional[ComputeScheme] = None,
        spill_every_n_memory_ops: int = 4,
    ):
        self.config = config or default_config()
        self.scheme = scheme
        self.spill_every_n_memory_ops = spill_every_n_memory_ops

    def run(self, compiled_trace: Sequence[TraceEntry]) -> SimulationResult:
        simt_trace = to_simt_trace(compiled_trace, self.spill_every_n_memory_ops)
        result, _ = simulate_kernel(
            simt_trace,
            config=self.config,
            scheme=self.scheme,
            compile_first=False,
            warm_cache=False,
        )
        return result
