"""Functional MVE machine: executes intrinsics and records instruction traces.

This is the reproduction's stand-in for the paper's intrinsic library plus
DynamoRIO trace capture.  Kernels are written against the methods of
:class:`MVEMachine`; every call

1. computes the numerically-correct result on a flat memory model (so the
   kernel can be validated against a numpy reference), and
2. appends the corresponding :class:`~repro.isa.instructions.MVEInstruction`
   to the machine's trace, which the timing simulator and the compiler later
   consume.

Scalar work that the CPU core performs between vector instructions (loop
control, pointer arithmetic, mask value computation) is accounted for with
:meth:`MVEMachine.scalar`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.address_gen import element_addresses
from ..isa.datatypes import DataType
from ..isa.encoding import StrideMode, resolve_strides
from ..isa.instructions import (
    ArithmeticInstruction,
    ConfigInstruction,
    InstructionCategory,
    MemoryInstruction,
    MoveInstruction,
    MVEInstruction,
    Opcode,
    ScalarBlock,
    TraceEntry,
)
from ..isa.registers import ControlRegisters, VectorShape
from ..memory.flatmem import FlatMemory
from .mdv import MDV

__all__ = ["MVEMachine", "TraceStats"]


class TraceStats:
    """Dynamic instruction statistics over a recorded trace."""

    def __init__(self, trace: Sequence[TraceEntry]):
        self.config = 0
        self.move = 0
        self.memory = 0
        self.arithmetic = 0
        self.scalar = 0
        self.scalar_loads = 0
        self.scalar_stores = 0
        #: dynamic count per opcode mnemonic (``vadd`` -> 123)
        self.opcodes: dict[str, int] = {}
        for entry in trace:
            if isinstance(entry, ScalarBlock):
                self.scalar += entry.count
                self.scalar_loads += entry.loads
                self.scalar_stores += entry.stores
                continue
            mnemonic = entry.opcode.value
            self.opcodes[mnemonic] = self.opcodes.get(mnemonic, 0) + 1
            if entry.category is InstructionCategory.CONFIG:
                self.config += 1
            elif entry.category is InstructionCategory.MOVE:
                self.move += 1
            elif entry.category is InstructionCategory.MEMORY:
                self.memory += 1
            else:
                self.arithmetic += 1

    @property
    def vector_total(self) -> int:
        return self.config + self.move + self.memory + self.arithmetic

    def as_dict(self) -> dict[str, int]:
        return {
            "config": self.config,
            "move": self.move,
            "memory": self.memory,
            "arithmetic": self.arithmetic,
            "vector_total": self.vector_total,
            "scalar": self.scalar,
        }


class MVEMachine:
    """Functional simulator and trace recorder for the MVE intrinsic API."""

    def __init__(
        self,
        memory: Optional[FlatMemory] = None,
        simd_lanes: int = 8192,
        record_values: bool = True,
    ):
        self.memory = memory if memory is not None else FlatMemory()
        self.simd_lanes = simd_lanes
        self.record_values = record_values
        self.cr = ControlRegisters()
        self.trace: list[TraceEntry] = []
        self._next_register = 0

    @classmethod
    def for_capture(
        cls, memory: Optional[FlatMemory] = None, simd_lanes: int = 8192
    ) -> "MVEMachine":
        """A machine configured for the staged pipeline's capture phase.

        Value recording is off: every intrinsic still emits its full
        timing-relevant instruction (base address, strides, masks, resolved
        random bases), but no element addresses are expanded and no payload
        data is read from or written to flat memory, so capture is cheap and
        the recorded trace is identical to the value-recording one (pinned
        by the regression suite).
        """
        return cls(memory, simd_lanes=simd_lanes, record_values=False)

    # ------------------------------------------------------------------ #
    # bookkeeping helpers
    # ------------------------------------------------------------------ #

    def reset_trace(self) -> None:
        self.trace = []
        self._next_register = 0
        self.cr = ControlRegisters()

    def stats(self) -> TraceStats:
        return TraceStats(self.trace)

    def _emit(self, instruction: TraceEntry) -> None:
        self.trace.append(instruction)

    def _new_register(self) -> int:
        register = self._next_register
        self._next_register += 1
        return register

    def _shape(self) -> VectorShape:
        return self.cr.shape

    def _mask_tuple(self) -> tuple[bool, ...]:
        return tuple(self.cr.active_mask())

    def _check_shape_fits(self, shape: VectorShape) -> None:
        if shape.total_elements > self.simd_lanes:
            raise ValueError(
                f"logical shape {shape.lengths} needs {shape.total_elements} lanes "
                f"but only {self.simd_lanes} SIMD lanes are available"
            )

    # ------------------------------------------------------------------ #
    # scalar accounting
    # ------------------------------------------------------------------ #

    def scalar(self, count: int, loads: int = 0, stores: int = 0, note: str = "") -> None:
        """Account for ``count`` scalar CPU instructions executed here."""
        if count <= 0:
            return
        self._emit(ScalarBlock(count=count, loads=loads, stores=stores, note=note))

    # ------------------------------------------------------------------ #
    # config instructions
    # ------------------------------------------------------------------ #

    def vsetdimc(self, count: int) -> None:
        self.cr.set_dim_count(count)
        self._emit(ConfigInstruction(Opcode.SET_DIM_COUNT, operand_a=count))

    def vsetdiml(self, dim: int, length: int) -> None:
        self.cr.set_dim_length(dim, length)
        self._emit(ConfigInstruction(Opcode.SET_DIM_LENGTH, operand_a=dim, operand_b=length))

    def vsetmask(self, element: int) -> None:
        self.cr.set_mask(element, True)
        self._emit(ConfigInstruction(Opcode.SET_MASK, operand_a=element))

    def vunsetmask(self, element: int) -> None:
        self.cr.set_mask(element, False)
        self._emit(ConfigInstruction(Opcode.UNSET_MASK, operand_a=element))

    def vresetmask(self) -> None:
        """Re-enable every element of the highest dimension (one config op)."""
        self.cr.reset_mask()
        self._emit(ConfigInstruction(Opcode.SET_MASK, operand_a=-1))

    def vsetwidth(self, bits: int) -> None:
        self.cr.set_element_bits(bits)
        self._emit(ConfigInstruction(Opcode.SET_WIDTH, operand_a=bits))

    def vsetldstr(self, dim: int, stride: int) -> None:
        self.cr.set_load_stride(dim, stride)
        self._emit(ConfigInstruction(Opcode.SET_LOAD_STRIDE, operand_a=dim, operand_b=stride))

    def vsetststr(self, dim: int, stride: int) -> None:
        self.cr.set_store_stride(dim, stride)
        self._emit(ConfigInstruction(Opcode.SET_STORE_STRIDE, operand_a=dim, operand_b=stride))

    # ------------------------------------------------------------------ #
    # memory access instructions
    # ------------------------------------------------------------------ #

    def _resolved_strides(
        self, shape: VectorShape, stride_modes: Sequence[int], is_store: bool, is_random: bool
    ) -> list[int]:
        """Element stride per dimension from the stride modes and the
        stride CRs (Equation 1).  A random access takes its highest
        dimension from the pointer table, so only the lower dimensions
        follow stride semantics."""
        modes = list(stride_modes)
        if len(modes) < shape.dim_count:
            modes = modes + [int(StrideMode.SEQUENTIAL)] * (shape.dim_count - len(modes))
        stride_regs = self.cr.store_strides if is_store else self.cr.load_strides
        lengths = list(shape.lengths)
        if is_random:
            return resolve_strides(modes[: shape.dim_count - 1], lengths, stride_regs) + [0]
        return resolve_strides(modes[: shape.dim_count], lengths, stride_regs)

    def _memory_instruction(
        self,
        shape: VectorShape,
        dtype: DataType,
        base_address: int,
        stride_modes: Sequence[int],
        is_store: bool,
        is_random: bool,
        register: Optional[int] = None,
    ) -> MemoryInstruction:
        """The timing-relevant instruction of one vector load/store.

        Random accesses read their pointer table here, so the resolved
        bases travel with the instruction; element addresses (Algorithm 1)
        are only expanded by :func:`~repro.core.address_gen.element_addresses`
        when values are recorded.  ``register`` defaults to a fresh one (a
        load's destination)."""
        self._check_shape_fits(shape)
        random_bases: tuple[int, ...] = ()
        if is_random:
            random_bases = tuple(
                int(base)
                for base in self.memory.read_pointer_table(
                    base_address, shape.highest_dim_length
                )
            )
        strides = self._resolved_strides(shape, stride_modes, is_store, is_random)
        if is_store:
            opcode = Opcode.RANDOM_STORE if is_random else Opcode.STRIDED_STORE
        else:
            opcode = Opcode.RANDOM_LOAD if is_random else Opcode.STRIDED_LOAD
        return MemoryInstruction(
            opcode,
            dtype=dtype,
            register=self._new_register() if register is None else register,
            base_address=base_address,
            stride_modes=tuple(int(m) for m in stride_modes),
            is_store=is_store,
            is_random=is_random,
            random_bases=random_bases,
            resolved_strides=tuple(strides),
            shape_lengths=shape.lengths,
            mask=self._mask_tuple(),
        )

    def _active_lane_mask(self, shape: VectorShape) -> np.ndarray:
        mask_bits = np.asarray(self.cr.active_mask(), dtype=bool)
        inner = shape.total_elements // shape.highest_dim_length
        lane_high_index = np.arange(shape.total_elements) // inner
        return mask_bits[lane_high_index]

    def vsld(self, dtype: DataType, base_address: int, stride_modes: Sequence[int]) -> MDV:
        """Multi-dimensional strided vector load (Algorithm 1)."""
        return self._load(dtype, base_address, stride_modes, is_random=False)

    def vrld(
        self, dtype: DataType, pointer_table_address: int, stride_modes: Sequence[int]
    ) -> MDV:
        """Random vector load: unique base per highest-dimension element."""
        return self._load(dtype, pointer_table_address, stride_modes, is_random=True)

    def vsst(self, value: MDV, base_address: int, stride_modes: Sequence[int]) -> None:
        """Multi-dimensional strided vector store."""
        self._store(value, base_address, stride_modes, is_random=False)

    def vrst(self, value: MDV, pointer_table_address: int, stride_modes: Sequence[int]) -> None:
        """Random vector store: unique base per highest-dimension element."""
        self._store(value, pointer_table_address, stride_modes, is_random=True)

    def _load(
        self,
        dtype: DataType,
        base_address: int,
        stride_modes: Sequence[int],
        is_random: bool,
    ) -> MDV:
        shape = self._shape()
        instruction = self._memory_instruction(
            shape, dtype, base_address, stride_modes, is_store=False, is_random=is_random
        )
        values = np.zeros(shape.total_elements, dtype=dtype.numpy_dtype)
        if self.record_values:
            lane_mask = self._active_lane_mask(shape)
            if lane_mask.any():
                values[lane_mask] = self.memory.read_elements(
                    element_addresses(instruction), dtype
                )
        self._emit(instruction)
        return MDV(instruction.register, dtype, shape, values)

    def _store(
        self,
        value: MDV,
        base_address: int,
        stride_modes: Sequence[int],
        is_random: bool,
    ) -> None:
        shape = self._shape()
        instruction = self._memory_instruction(
            shape,
            value.dtype,
            base_address,
            stride_modes,
            is_store=True,
            is_random=is_random,
            register=value.register,
        )
        if self.record_values:
            lane_mask = self._active_lane_mask(shape)
            if lane_mask.any():
                stored = self._conform(value, shape)
                self.memory.write_elements(
                    element_addresses(instruction), stored[lane_mask], value.dtype
                )
        self._emit(instruction)

    # ------------------------------------------------------------------ #
    # move instructions
    # ------------------------------------------------------------------ #

    def vcpy(self, source: MDV) -> MDV:
        """Copy a vector register."""
        shape = self._shape()
        register = self._new_register()
        values = self._conform(source, shape)
        self._emit(
            MoveInstruction(
                Opcode.COPY, dtype=source.dtype, dest=register, src=source.register
            )
        )
        return MDV(register, source.dtype, shape, values)

    def vcvt(self, source: MDV, dtype: DataType) -> MDV:
        """Convert a vector register to another element type."""
        shape = self._shape()
        register = self._new_register()
        values = self._conform(source, shape).astype(dtype.numpy_dtype)
        self._emit(
            MoveInstruction(
                Opcode.CONVERT,
                dtype=dtype,
                dest=register,
                src=source.register,
                src_dtype=source.dtype,
            )
        )
        return MDV(register, dtype, shape, values)

    # ------------------------------------------------------------------ #
    # arithmetic instructions
    # ------------------------------------------------------------------ #

    def vsetdup(self, dtype: DataType, value: float | int) -> MDV:
        """Broadcast a scalar value to every SIMD lane."""
        shape = self._shape()
        self._check_shape_fits(shape)
        register = self._new_register()
        values = np.full(shape.total_elements, value, dtype=dtype.numpy_dtype)
        self._emit(
            ArithmeticInstruction(
                Opcode.SET_DUP,
                dtype=dtype,
                dest=register,
                sources=(),
                immediate=float(value),
                shape_lengths=shape.lengths,
                mask=self._mask_tuple(),
            )
        )
        return MDV(register, dtype, shape, values)

    def _conform(self, operand: MDV, shape: VectorShape) -> np.ndarray:
        """Pad/truncate an operand's lane values to the current shape."""
        total = shape.total_elements
        values = operand.values
        if values.size == total:
            return values.copy()
        out = np.zeros(total, dtype=operand.dtype.numpy_dtype)
        n = min(total, values.size)
        out[:n] = values[:n]
        return out

    def _binary(
        self,
        opcode: Opcode,
        a: MDV,
        b: MDV,
        compute: Callable[[np.ndarray, np.ndarray], np.ndarray],
        result_dtype: Optional[DataType] = None,
    ) -> MDV:
        shape = self._shape()
        self._check_shape_fits(shape)
        dtype = result_dtype or a.dtype
        register = self._new_register()
        lhs = self._conform(a, shape)
        rhs = self._conform(b, shape)
        if dtype.is_float:
            values = compute(lhs.astype(dtype.numpy_dtype), rhs.astype(dtype.numpy_dtype))
            values = np.asarray(values, dtype=dtype.numpy_dtype)
        else:
            # Integer ops wrap around modulo 2^bits like the hardware does.
            wide = compute(lhs.astype(np.int64), rhs.astype(np.int64))
            values = np.asarray(wide).astype(dtype.numpy_dtype)
        self._emit(
            ArithmeticInstruction(
                opcode,
                dtype=dtype,
                dest=register,
                sources=(a.register, b.register),
                shape_lengths=shape.lengths,
                mask=self._mask_tuple(),
            )
        )
        return MDV(register, dtype, shape, values)

    def _unary_imm(
        self,
        opcode: Opcode,
        a: MDV,
        immediate: float,
        compute: Callable[[np.ndarray], np.ndarray],
    ) -> MDV:
        shape = self._shape()
        self._check_shape_fits(shape)
        dtype = a.dtype
        register = self._new_register()
        operand = self._conform(a, shape)
        if dtype.is_float:
            values = np.asarray(compute(operand), dtype=dtype.numpy_dtype)
        else:
            values = np.asarray(compute(operand.astype(np.int64))).astype(dtype.numpy_dtype)
        self._emit(
            ArithmeticInstruction(
                opcode,
                dtype=dtype,
                dest=register,
                sources=(a.register,),
                immediate=float(immediate),
                shape_lengths=shape.lengths,
                mask=self._mask_tuple(),
            )
        )
        return MDV(register, dtype, shape, values)

    def vadd(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.ADD, a, b, lambda x, y: x + y)

    def vsub(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.SUB, a, b, lambda x, y: x - y)

    def vmul(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.MUL, a, b, lambda x, y: x * y)

    def vdiv(self, a: MDV, b: MDV) -> MDV:
        def safe_div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            if a.dtype.is_float:
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.where(y != 0, x / y, 0)
            return np.where(y != 0, x // np.where(y == 0, 1, y), 0)

        return self._binary(Opcode.DIV, a, b, safe_div)

    def vmin(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.MIN, a, b, np.minimum)

    def vmax(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.MAX, a, b, np.maximum)

    def vand(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.AND, a, b, lambda x, y: x & y)

    def vor(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.OR, a, b, lambda x, y: x | y)

    def vxor(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.XOR, a, b, lambda x, y: x ^ y)

    def vnot(self, a: MDV) -> MDV:
        return self._unary_imm(Opcode.NOT, a, 0, lambda x: ~x)

    def vshl_imm(self, a: MDV, shift: int) -> MDV:
        return self._unary_imm(Opcode.SHIFT_IMM, a, shift, lambda x: x << shift)

    def vshr_imm(self, a: MDV, shift: int) -> MDV:
        return self._unary_imm(Opcode.SHIFT_IMM, a, shift, lambda x: x >> shift)

    def vrot_imm(self, a: MDV, shift: int) -> MDV:
        bits = a.dtype.bits
        mask = (1 << bits) - 1

        def rotate(x: np.ndarray) -> np.ndarray:
            unsigned = x.astype(np.int64) & mask
            return ((unsigned << shift) | (unsigned >> (bits - shift))) & mask

        return self._unary_imm(Opcode.ROTATE_IMM, a, shift, rotate)

    def vshl_reg(self, a: MDV, shift: MDV) -> MDV:
        return self._binary(Opcode.SHIFT_REG, a, shift, lambda x, y: x << y)

    def vshr_reg(self, a: MDV, shift: MDV) -> MDV:
        return self._binary(Opcode.SHIFT_REG, a, shift, lambda x, y: x >> y)

    # comparisons produce a 0/1 predicate in the same element type
    def vgt(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.GT, a, b, lambda x, y: (x > y).astype(np.int64))

    def vgte(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.GTE, a, b, lambda x, y: (x >= y).astype(np.int64))

    def vlt(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.LT, a, b, lambda x, y: (x < y).astype(np.int64))

    def vlte(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.LTE, a, b, lambda x, y: (x <= y).astype(np.int64))

    def veq(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.EQ, a, b, lambda x, y: (x == y).astype(np.int64))

    def vneq(self, a: MDV, b: MDV) -> MDV:
        return self._binary(Opcode.NEQ, a, b, lambda x, y: (x != y).astype(np.int64))
