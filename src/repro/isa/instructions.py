"""MVE instruction definitions (Table II of the paper).

Instructions fall into four categories used throughout the evaluation
(Figure 11): ``CONFIG``, ``MOVE``, ``MEMORY`` and ``ARITHMETIC``.  A trace
produced by the intrinsic library is a list of :class:`MVEInstruction`
objects interleaved with :class:`ScalarBlock` markers that account for the
scalar instructions the CPU core executes between vector instructions
(loop control, pointer arithmetic, mask computation, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .datatypes import DataType
from .encoding import StrideMode

__all__ = [
    "InstructionCategory",
    "Opcode",
    "MVEInstruction",
    "ConfigInstruction",
    "MoveInstruction",
    "MemoryInstruction",
    "ArithmeticInstruction",
    "ScalarBlock",
    "TraceEntry",
    "OPCODE_CATEGORY",
]


class InstructionCategory(enum.Enum):
    CONFIG = "config"
    MOVE = "move"
    MEMORY = "memory"
    ARITHMETIC = "arithmetic"


class Opcode(enum.Enum):
    """The 29 MVE operations of Table II plus stride-CR setters."""

    # Config
    SET_DIM_COUNT = "vsetdimc"
    SET_DIM_LENGTH = "vsetdiml"
    SET_MASK = "vsetmask"
    UNSET_MASK = "vunsetmask"
    SET_WIDTH = "vsetwidth"
    SET_LOAD_STRIDE = "vsetldstr"
    SET_STORE_STRIDE = "vsetststr"
    # Move
    CONVERT = "vcvt"
    COPY = "vcpy"
    # Memory access
    STRIDED_LOAD = "vsld"
    RANDOM_LOAD = "vrld"
    STRIDED_STORE = "vsst"
    RANDOM_STORE = "vrst"
    # Arithmetic
    SET_DUP = "vsetdup"
    SHIFT_IMM = "vshi"
    ROTATE_IMM = "vroti"
    SHIFT_REG = "vshr"
    ADD = "vadd"
    SUB = "vsub"
    MUL = "vmul"
    DIV = "vdiv"
    MIN = "vmin"
    MAX = "vmax"
    AND = "vand"
    OR = "vor"
    XOR = "vxor"
    NOT = "vnot"
    GT = "vgt"
    GTE = "vgte"
    LT = "vlt"
    LTE = "vlte"
    EQ = "veq"
    NEQ = "vneq"
    MAC = "vmac"


OPCODE_CATEGORY = {
    Opcode.SET_DIM_COUNT: InstructionCategory.CONFIG,
    Opcode.SET_DIM_LENGTH: InstructionCategory.CONFIG,
    Opcode.SET_MASK: InstructionCategory.CONFIG,
    Opcode.UNSET_MASK: InstructionCategory.CONFIG,
    Opcode.SET_WIDTH: InstructionCategory.CONFIG,
    Opcode.SET_LOAD_STRIDE: InstructionCategory.CONFIG,
    Opcode.SET_STORE_STRIDE: InstructionCategory.CONFIG,
    Opcode.CONVERT: InstructionCategory.MOVE,
    Opcode.COPY: InstructionCategory.MOVE,
    Opcode.STRIDED_LOAD: InstructionCategory.MEMORY,
    Opcode.RANDOM_LOAD: InstructionCategory.MEMORY,
    Opcode.STRIDED_STORE: InstructionCategory.MEMORY,
    Opcode.RANDOM_STORE: InstructionCategory.MEMORY,
}


def _category_for(opcode: Opcode) -> InstructionCategory:
    return OPCODE_CATEGORY.get(opcode, InstructionCategory.ARITHMETIC)


@dataclass
class MVEInstruction:
    """Base class for decoded MVE instructions."""

    opcode: Opcode

    @property
    def category(self) -> InstructionCategory:
        return _category_for(self.opcode)

    @property
    def is_vector_memory(self) -> bool:
        return self.category is InstructionCategory.MEMORY

    def assembly(self) -> str:
        return self.opcode.value


@dataclass
class ConfigInstruction(MVEInstruction):
    """Configuration instruction: sets a control register in the controller."""

    operand_a: int = 0
    operand_b: int = 0

    def assembly(self) -> str:
        return f"{self.opcode.value} {self.operand_a}, {self.operand_b}"


@dataclass
class MoveInstruction(MVEInstruction):
    """Register-to-register copy or type conversion."""

    dtype: DataType = DataType.INT32
    dest: int = 0
    src: int = 0
    src_dtype: Optional[DataType] = None

    def assembly(self) -> str:
        return f"{self.opcode.value}_{self.dtype.suffix} v{self.dest}, v{self.src}"


class _DimensionMasked:
    """Element counting shared by the instructions that snapshot the logical
    shape (``shape_lengths``) and the highest-dimension mask (``mask``).

    ``mask`` is ``()`` whenever every element of the highest dimension is
    enabled; otherwise it holds one bool per element of that dimension."""

    shape_lengths: tuple[int, ...]
    mask: tuple[bool, ...]

    @property
    def total_elements(self) -> int:
        total = 1
        for length in self.shape_lengths:
            total *= length
        return total

    def active_elements(self) -> int:
        """Number of elements the instruction touches after dimension masking."""
        if not self.shape_lengths:
            return 0
        if not self.mask:
            return self.total_elements
        return self.total_elements // self.shape_lengths[-1] * sum(self.mask)


@dataclass
class MemoryInstruction(MVEInstruction, _DimensionMasked):
    """Multi-dimensional strided or random vector load/store.

    For strided accesses ``base_address`` is a single byte address.  For
    random accesses it is the address of a pointer array whose entries give
    the base address of each element of the highest dimension; the resolved
    pointer values are captured in ``random_bases`` by the trace generator so
    the timing simulator does not need to re-read memory.
    """

    dtype: DataType = DataType.INT32
    register: int = 0
    base_address: int = 0
    stride_modes: tuple[int, ...] = ()
    is_store: bool = False
    is_random: bool = False
    random_bases: tuple[int, ...] = ()
    #: resolved element strides (filled in by the trace generator using the
    #: control registers active at emission time)
    resolved_strides: tuple[int, ...] = ()
    #: snapshot of the logical shape at emission time
    shape_lengths: tuple[int, ...] = ()
    #: highest-dimension mask at emission time, ``()`` when nothing is
    #: masked off (see :class:`_DimensionMasked`)
    mask: tuple[bool, ...] = ()
    #: set by the register allocator for spill/fill traffic it inserts
    is_spill: bool = False

    def assembly(self) -> str:
        modes = ",".join(str(int(m)) for m in self.stride_modes)
        return (
            f"{self.opcode.value}_{self.dtype.suffix} v{self.register}, "
            f"0x{self.base_address:x}, [{modes}]"
        )


@dataclass
class ArithmeticInstruction(MVEInstruction, _DimensionMasked):
    """Element-wise arithmetic / comparison / shift on all SIMD lanes."""

    dtype: DataType = DataType.INT32
    dest: int = 0
    sources: tuple[int, ...] = ()
    immediate: Optional[float] = None
    #: snapshot of the logical shape at emission time (for utilization stats)
    shape_lengths: tuple[int, ...] = ()
    #: highest-dimension mask at emission time, ``()`` when nothing is
    #: masked off (see :class:`_DimensionMasked`)
    mask: tuple[bool, ...] = ()

    def assembly(self) -> str:
        srcs = ", ".join(f"v{s}" for s in self.sources)
        imm = f", #{self.immediate}" if self.immediate is not None else ""
        return f"{self.opcode.value}_{self.dtype.suffix} v{self.dest}, {srcs}{imm}"


@dataclass
class ScalarBlock:
    """A run of scalar instructions executed by the CPU core.

    ``count`` is the number of dynamic scalar instructions; ``loads`` and
    ``stores`` count how many of them access memory (used by the cache model
    when estimating the scalar core's share of the memory system).
    """

    count: int
    loads: int = 0
    stores: int = 0
    note: str = ""

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("scalar instruction count must be non-negative")
        if self.loads + self.stores > self.count:
            raise ValueError("memory scalar ops cannot exceed total scalar ops")


TraceEntry = Union[MVEInstruction, ScalarBlock]
