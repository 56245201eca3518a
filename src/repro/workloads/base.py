"""Workload framework: the Kernel base class and common MVE code patterns.

Every benchmark kernel of the Swan-like suite derives from :class:`Kernel`
and provides four things:

* ``prepare``    -- allocate and initialise its inputs/outputs in flat memory,
* ``run_mve``    -- the MVE implementation written against the intrinsic API,
* ``reference``  -- a numpy reference used to validate functional correctness,
* ``profile``    -- an ISA-independent operation/data profile for the Neon,
  GPU and Duality Cache baseline models.

Kernels that participate in the RVV comparison (Figures 10/11/13) also
override ``run_rvv`` with a one-dimensional lowering.

The module also provides the common data-parallel patterns of Section IV
(tiled element-wise processing and tree reduction) as reusable helpers so
individual kernels stay small and readable.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence

import numpy as np

from ..baselines.profile import KernelProfile
from ..core.traces import positive_scale, trace_kind
from ..intrinsics.machine import MVEMachine
from ..intrinsics.mdv import MDV
from ..isa.datatypes import DataType
from ..isa.instructions import TraceEntry
from ..memory.flatmem import Allocation, FlatMemory

__all__ = ["Kernel", "elementwise_1d", "tree_reduce", "LOOP_SCALAR_OPS"]

#: scalar instructions charged per vector-loop iteration (index update,
#: compare, branch, pointer arithmetic)
LOOP_SCALAR_OPS = 8


class Kernel(abc.ABC):
    """Base class for all benchmark kernels."""

    #: short kernel identifier, e.g. ``"gemm"``
    name: str = ""
    #: owning library from Table III, e.g. ``"XNNPACK"``
    library: str = ""
    #: dimensionality label used in the paper's tables, e.g. ``"2D"``
    dims: str = "1D"
    #: primary element type of the kernel
    dtype: DataType = DataType.INT32
    description: str = ""

    def __init__(self, scale: float = 1.0, seed: int = 0):
        self.scale = positive_scale(scale)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.memory = FlatMemory()
        self._prepared = False

    # -- lifecycle --------------------------------------------------------- #

    def setup(self) -> None:
        """Allocate inputs lazily (idempotent)."""
        if not self._prepared:
            self.prepare()
            self._prepared = True

    @abc.abstractmethod
    def prepare(self) -> None:
        """Allocate and initialise input/output buffers in ``self.memory``."""

    @abc.abstractmethod
    def run_mve(self, machine: MVEMachine) -> None:
        """Emit the MVE implementation onto ``machine``."""

    @abc.abstractmethod
    def reference(self) -> np.ndarray:
        """Numpy reference result for validation."""

    @abc.abstractmethod
    def output(self) -> np.ndarray:
        """Kernel output read back from flat memory after ``run_mve``."""

    @abc.abstractmethod
    def profile(self) -> KernelProfile:
        """ISA-independent work profile for the baseline models."""

    # -- optional RVV lowering --------------------------------------------- #

    def run_rvv(self, machine: MVEMachine) -> None:
        """1D (RVV-style) lowering; override in kernels used by Figs 10/11/13."""
        raise NotImplementedError(f"{self.name} has no RVV lowering")

    # -- convenience ------------------------------------------------------- #

    def capture(
        self, kind: str = "mve", simd_lanes: int = 8192, record_values: bool = False
    ) -> list[TraceEntry]:
        """Capture the instruction trace of one lowering.

        The only way a kernel reaches the functional machine.  By default
        value recording is off, so only the timing-relevant instruction
        stream is produced (no flat-memory payload traffic).  The emitted
        trace is identical to a value-recording run -- values are only
        needed by :meth:`validate`.
        """
        kind = trace_kind(kind)
        self.setup()
        machine = MVEMachine(
            self.memory, simd_lanes=simd_lanes, record_values=record_values
        )
        if kind == "rvv":
            self.run_rvv(machine)
        else:
            self.run_mve(machine)
        return machine.trace

    def validate(self, rtol: float = 1e-3, atol: float = 1e-4) -> bool:
        """Check the MVE implementation against the numpy reference."""
        self.capture("mve", record_values=True)
        expected = np.asarray(self.reference())
        actual = np.asarray(self.output())
        if expected.shape != actual.shape:
            return False
        if self.dtype.is_float or expected.dtype.kind == "f":
            return bool(np.allclose(actual, expected, rtol=rtol, atol=atol))
        return bool(np.array_equal(actual, expected))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Kernel {self.library}/{self.name} ({self.dims})>"


def elementwise_1d(
    machine: MVEMachine,
    dtype: DataType,
    input_addresses: Sequence[int],
    output_address: Optional[int],
    count: int,
    op: Callable[[MVEMachine, list[MDV]], MDV],
    scalar_ops_per_iteration: int = LOOP_SCALAR_OPS,
) -> None:
    """Tile a 1D element-wise kernel over the SIMD lanes.

    ``op`` receives the machine and the loaded input vectors and returns the
    result vector to be stored.  Addresses advance sequentially.
    """
    lanes = machine.simd_lanes
    element_bytes = dtype.bytes
    machine.vsetdimc(1)
    offset = 0
    while offset < count:
        tile = min(lanes, count - offset)
        machine.scalar(scalar_ops_per_iteration)
        machine.vsetdiml(0, tile)
        inputs = [
            machine.vsld(dtype, address + offset * element_bytes, (1,))
            for address in input_addresses
        ]
        result = op(machine, inputs)
        if output_address is not None:
            machine.vsst(result, output_address + offset * element_bytes, (1,))
        offset += tile


def tree_reduce(
    machine: MVEMachine,
    value: MDV,
    length: int,
    scratch_address: int,
    stop_at: int = 256,
) -> tuple[MDV, int]:
    """Vertical tree reduction of Section IV (Reduction pattern).

    Repeatedly splits the live register into two halves using dimension-level
    masking, stores the upper half to scratch memory, reloads it as a shorter
    vector and adds it to the lower half, until ``stop_at`` elements remain
    (the tail is reduced on the scalar core).  Returns the reduced vector and
    its remaining length.
    """
    dtype = value.dtype
    current = value
    current_length = length
    while current_length > stop_at and current_length > 1:
        if current_length % 2:
            # Treat the register as one element longer; the extra lane reads
            # as zero in the functional model, so the sum is unchanged.
            current_length += 1
        half = current_length // 2
        machine.scalar(LOOP_SCALAR_OPS)
        # Split into two halves along a new highest dimension and mask off
        # the first half.
        machine.vsetdimc(2)
        machine.vsetdiml(0, half)
        machine.vsetdiml(1, 2)
        machine.vunsetmask(0)
        machine.vsst(current, scratch_address - half * dtype.bytes, (1, 2))
        machine.vsetmask(0)
        # Reload the stored upper half as a 1D vector and add.
        machine.vsetdimc(1)
        machine.vsetdiml(0, half)
        upper = machine.vsld(dtype, scratch_address, (1,))
        current = machine.vadd(current, upper)
        current_length = half
    return current, current_length
