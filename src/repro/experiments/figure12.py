"""Figure 12: Duality Cache comparison, SRAM-array scalability, precision sweep.

(a) MVE's SIMD model versus the Duality Cache SIMT model.
(b) Performance scalability when the engine has 8 to 64 SRAM arrays.
(c) Sensitivity to element precision (fp32 / int32 / fp16 / int16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.duality_cache import DualityCacheModel
from ..baselines.neon import NeonModel
from ..baselines.profile import KernelProfile
from ..compiler.pipeline import compile_trace
from ..core.replay import register_file_for
from ..core.simulator import simulate_trace
from ..intrinsics.machine import MVEMachine
from ..isa.datatypes import DataType
from ..memory.flatmem import FlatMemory
from ..workloads.base import elementwise_1d
from .registry import ExperimentOptions, register_experiment
from .runner import ExperimentRunner
from .serialize import SerializableResult
from .sweep import SweepSpec

__all__ = [
    "DualityCacheComparison",
    "ScalabilityPoint",
    "PrecisionPoint",
    "Figure12Result",
    "Figure12aResult",
    "Figure12bResult",
    "Figure12cResult",
    "assemble_figure12a",
    "assemble_figure12b",
    "assemble_figure12c",
    "assemble_figure12",
    "figure12a_sweep_spec",
    "figure12b_sweep_spec",
    "FIGURE12_KERNELS",
    "FIGURE12B_KERNELS",
    "FIGURE12B_ARRAY_COUNTS",
]

FIGURE12_KERNELS = ("gemm", "spmm", "fir_v", "fir_s", "fir_l")

#: scalability-study subset and engine sizes (Figure 12b)
FIGURE12B_KERNELS = ("gemm", "spmm", "fir_l")
FIGURE12B_ARRAY_COUNTS = (8, 16, 32, 64)

_KERNEL_PARAMS = {
    "gemm": {"scale": 0.5},
    "spmm": {"scale": 0.5},
    "fir_v": {"scale": 0.5},
    "fir_s": {"scale": 0.5},
    "fir_l": {"scale": 0.5},
}


@dataclass
class DualityCacheComparison(SerializableResult):
    kernel: str
    #: Duality Cache / MVE execution time (values > 1 mean MVE is faster)
    dc_over_mve_time: float
    dc_breakdown: dict[str, float]


@dataclass
class ScalabilityPoint(SerializableResult):
    kernel: str
    num_arrays: int
    #: execution time normalized to the 8-array configuration
    normalized_time: float
    breakdown: dict[str, float]


@dataclass
class PrecisionPoint(SerializableResult):
    precision: str
    #: execution time normalized to fp32
    normalized_time: float
    #: MVE speedup over Neon at this precision
    speedup_over_neon: float


@dataclass
class Figure12Result(SerializableResult):
    duality_cache: list[DualityCacheComparison]
    scalability: list[ScalabilityPoint]
    precision: list[PrecisionPoint]
    mean_dc_slowdown: float


@dataclass
class Figure12aResult(SerializableResult):
    """The Duality Cache comparison rows, as a registry-addressable result."""

    rows: list[DualityCacheComparison]


@dataclass
class Figure12bResult(SerializableResult):
    """The SRAM-array scalability points, as a registry-addressable result."""

    points: list[ScalabilityPoint]


@dataclass
class Figure12cResult(SerializableResult):
    """The precision-sensitivity points, as a registry-addressable result."""

    points: list[PrecisionPoint]


def figure12a_sweep_spec(options: ExperimentOptions) -> SweepSpec:
    """The MVE job set :func:`assemble_figure12a` reads (fixed shapes)."""
    return SweepSpec(
        name="figure12a",
        kernels=[(name, _KERNEL_PARAMS[name]) for name in FIGURE12_KERNELS],
        base_config=options.resolved_config(),
    )


def figure12b_sweep_spec(options: ExperimentOptions) -> SweepSpec:
    """The MVE job set :func:`assemble_figure12b` reads: each kernel at
    every engine size."""
    return SweepSpec(
        name="figure12b",
        kernels=[(name, _KERNEL_PARAMS[name]) for name in FIGURE12B_KERNELS],
        array_counts=FIGURE12B_ARRAY_COUNTS,
        base_config=options.resolved_config(),
    )


def assemble_figure12a(runner: ExperimentRunner, options: ExperimentOptions) -> Figure12aResult:
    """MVE (SIMD) versus Duality Cache (SIMT) on the same engine."""
    rows = []
    for name in FIGURE12_KERNELS:
        params = _KERNEL_PARAMS[name]
        mve = runner.run_mve(name, **params)
        # The SIMT transform consumes the same capture-stage artifact the
        # timing run replayed (engine trace memo / store): the functional
        # machine never runs for it.
        trace = runner.captured_trace(runner.job(name, "mve", **params))
        # Allocate for the runner's register file, as the MVE run did.
        compiled = compile_trace(trace, register_file=register_file_for(runner.config))
        dc_result = DualityCacheModel(config=runner.config).run(compiled.trace)
        rows.append(
            DualityCacheComparison(
                kernel=name,
                dc_over_mve_time=dc_result.total_cycles / mve.result.total_cycles,
                dc_breakdown=dc_result.breakdown_fractions(),
            )
        )
    return Figure12aResult(rows=rows)


def assemble_figure12b(runner: ExperimentRunner, options: ExperimentOptions) -> Figure12bResult:
    """Performance scalability with the number of compute SRAM arrays."""
    points = []
    for name in FIGURE12B_KERNELS:
        params = _KERNEL_PARAMS[name]
        baseline_cycles = None
        for count in FIGURE12B_ARRAY_COUNTS:
            config = runner.config.with_arrays(count)
            run = runner.run_mve(name, config=config, **params)
            if baseline_cycles is None:
                baseline_cycles = run.result.total_cycles
            points.append(
                ScalabilityPoint(
                    kernel=name,
                    num_arrays=count,
                    normalized_time=run.result.total_cycles / baseline_cycles,
                    breakdown=run.result.breakdown_fractions(),
                )
            )
    return Figure12bResult(points=points)


class _PrecisionSweepKernel:
    """Synthetic multiply-accumulate kernel parameterised by element type.

    The suite's kernels each have a fixed element type, so the precision
    sensitivity study uses this small dedicated kernel: an 8K-wide
    ``out = a * b + c`` stream, the core loop of the FIR/GEMM kernels.
    """

    ELEMENTS = 32 * 1024

    def __init__(self, dtype: DataType):
        self.dtype = dtype
        self.memory = FlatMemory()
        count = self.ELEMENTS
        data = np.ones(count, dtype=dtype.numpy_dtype)
        self.a = self.memory.allocate_array(data, dtype)
        self.b = self.memory.allocate_array(data, dtype)
        self.c = self.memory.allocate_array(data, dtype)
        self.out = self.memory.allocate(dtype, count)

    def trace(self, simd_lanes: int = 8192):
        """The kernel's instruction trace, captured value-free like
        :meth:`~repro.workloads.base.Kernel.capture`."""
        machine = MVEMachine(self.memory, simd_lanes=simd_lanes, record_values=False)
        elementwise_1d(
            machine,
            self.dtype,
            [self.a.address, self.b.address, self.c.address],
            self.out.address,
            self.ELEMENTS,
            lambda m, inputs: m.vadd(m.vmul(inputs[0], inputs[1]), inputs[2]),
        )
        return machine.trace

    def profile(self) -> KernelProfile:
        return KernelProfile(
            name=f"mac_{self.dtype.suffix}",
            element_bits=self.dtype.bits,
            is_float=self.dtype.is_float,
            elements=self.ELEMENTS,
            ops_per_element={"mac": 1.0},
            bytes_read=self.ELEMENTS * self.dtype.bytes * 3,
            bytes_written=self.ELEMENTS * self.dtype.bytes,
        )


def assemble_figure12c(runner: ExperimentRunner, options: ExperimentOptions) -> Figure12cResult:
    """Execution time and Neon-relative speedup at different precisions.

    Runs the simulator directly on the synthetic kernel: no engine job set.
    """
    config = runner.config
    neon = NeonModel(config)
    points = []
    baseline_time = None
    # fp32 first: it is the baseline the other precisions normalize to
    for dtype in (DataType.FLOAT32, DataType.INT32, DataType.FLOAT16, DataType.INT16):
        kernel = _PrecisionSweepKernel(dtype)
        result, _ = simulate_trace(kernel.trace(config.simd_lanes), config=config)
        neon_result = neon.run(kernel.profile())
        if baseline_time is None:
            baseline_time = result.total_cycles
        points.append(
            PrecisionPoint(
                precision=dtype.name,
                normalized_time=result.total_cycles / baseline_time,
                speedup_over_neon=neon_result.time_ms / result.time_ms,
            )
        )
    return Figure12cResult(points=points)


def assemble_figure12(runner: ExperimentRunner, options: ExperimentOptions) -> Figure12Result:
    """All three panels, each assembled here: a full evaluation runs the
    Duality Cache model and the precision sweep for the panel experiments
    and again for this composite."""
    duality = assemble_figure12a(runner, options).rows
    return Figure12Result(
        duality_cache=duality,
        scalability=assemble_figure12b(runner, options).points,
        precision=assemble_figure12c(runner, options).points,
        mean_dc_slowdown=float(
            np.exp(np.mean(np.log([row.dc_over_mve_time for row in duality])))
        ),
    )


register_experiment(
    name="figure12a",
    description="Duality Cache (SIMT) vs MVE (SIMD) on the same engine",
    result_type=Figure12aResult,
    assemble=assemble_figure12a,
    specs=lambda options: (figure12a_sweep_spec(options),),
)

register_experiment(
    name="figure12b",
    description="performance scalability from 8 to 64 SRAM arrays",
    result_type=Figure12bResult,
    assemble=assemble_figure12b,
    specs=lambda options: (figure12b_sweep_spec(options),),
)

register_experiment(
    name="figure12c",
    description="sensitivity to element precision (fp32/int32/fp16/int16)",
    result_type=Figure12cResult,
    assemble=assemble_figure12c,
)

register_experiment(
    name="figure12",
    description="Duality Cache comparison + array scalability + precision",
    result_type=Figure12Result,
    assemble=assemble_figure12,
    specs=lambda options: (figure12a_sweep_spec(options), figure12b_sweep_spec(options)),
)
