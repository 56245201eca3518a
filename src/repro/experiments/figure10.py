"""Figures 10 and 11: MVE versus RISC-V RVV on the same bit-serial engine.

Figure 10 compares execution time (idle / compute / data-access breakdown)
and Figure 11 compares the dynamic vector-instruction distribution and the
scalar instruction count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registry import ExperimentOptions, register_experiment
from .runner import ExperimentRunner
from .serialize import SerializableResult
from .sweep import SweepSpec

__all__ = [
    "RvvComparison",
    "Figure10Result",
    "assemble_figure10",
    "figure10_sweep_spec",
    "FIGURE10_KERNELS",
    "kernel_run_parameters",
]

#: kernels with their dimensionality label, as in Figures 10/11
FIGURE10_KERNELS = (
    ("csum", "1D"),
    ("lpack", "1D"),
    ("fir_s", "1D"),
    ("gemm", "2D"),
    ("spmm", "2D"),
    ("satd", "3D"),
    ("intra", "3D"),
    ("dct", "3D"),
    ("idct", "3D"),
)


def kernel_run_parameters(name: str) -> dict:
    """Dataset parameters used for the RVV comparison.

    The matrix kernels use wide output matrices (CNN-layer-like shapes) so
    that the per-segment overhead of the 1D ISA matches the regime the paper
    describes; the block kernels use a reduced block count to keep the RVV
    traces tractable.
    """
    if name == "gemm":
        return {"scale": 1.0, "n": 64, "k": 32, "m": 512}
    if name == "spmm":
        return {"scale": 1.0, "n": 64, "k": 128, "m": 512, "nnz": 8}
    if name in ("dct", "idct", "satd"):
        return {"scale": 0.125}
    if name == "intra":
        return {"scale": 0.5}
    return {"scale": 0.5}


@dataclass
class RvvComparison(SerializableResult):
    kernel: str
    dims: str
    #: MVE / RVV execution time (lower is better for MVE)
    time_ratio: float
    #: RVV / MVE dynamic vector instruction count
    vector_instruction_ratio: float
    #: RVV / MVE dynamic scalar instruction count
    scalar_instruction_ratio: float
    mve_breakdown: dict[str, float]
    rvv_breakdown: dict[str, float]
    mve_vector_instructions: dict[str, int]
    rvv_vector_instructions: dict[str, int]
    mve_scalar_instructions: int
    rvv_scalar_instructions: int
    mve_cb_utilization: float
    rvv_cb_utilization: float


@dataclass
class Figure10Result(SerializableResult):
    kernels: list[RvvComparison]
    mean_speedup_over_rvv: float
    mean_vector_instruction_reduction: float
    mean_scalar_instruction_reduction: float
    mean_mve_cb_utilization: float
    mean_rvv_cb_utilization: float


def figure10_sweep_spec(options: ExperimentOptions) -> SweepSpec:
    """The MVE+RVV job set :func:`assemble_figure10` reads (fixed shapes)."""
    return SweepSpec(
        name="figure10",
        kernels=[(name, kernel_run_parameters(name)) for name, _ in FIGURE10_KERNELS],
        kinds=("mve", "rvv"),
        base_config=options.resolved_config(),
    )


def assemble_figure10(runner: ExperimentRunner, options: ExperimentOptions) -> Figure10Result:
    """MVE against the RVV lowering of each kernel on the same engine."""
    rows: list[RvvComparison] = []
    for name, dims in FIGURE10_KERNELS:
        params = kernel_run_parameters(name)
        mve = runner.run_mve(name, **params)
        rvv = runner.run_rvv(name, **params)
        rows.append(
            RvvComparison(
                kernel=name,
                dims=dims,
                time_ratio=mve.result.total_cycles / rvv.result.total_cycles,
                vector_instruction_ratio=(
                    rvv.result.vector_instruction_total
                    / max(1, mve.result.vector_instruction_total)
                ),
                scalar_instruction_ratio=(
                    rvv.result.scalar_instructions / max(1, mve.result.scalar_instructions)
                ),
                mve_breakdown=mve.result.breakdown_fractions(),
                rvv_breakdown=rvv.result.breakdown_fractions(),
                mve_vector_instructions=dict(mve.result.vector_instructions),
                rvv_vector_instructions=dict(rvv.result.vector_instructions),
                mve_scalar_instructions=mve.result.scalar_instructions,
                rvv_scalar_instructions=rvv.result.scalar_instructions,
                mve_cb_utilization=mve.result.cb_utilization,
                rvv_cb_utilization=rvv.result.cb_utilization,
            )
        )
    speedups = [1.0 / row.time_ratio for row in rows]
    return Figure10Result(
        kernels=rows,
        mean_speedup_over_rvv=float(np.exp(np.mean(np.log(speedups)))),
        mean_vector_instruction_reduction=float(
            np.exp(np.mean(np.log([row.vector_instruction_ratio for row in rows])))
        ),
        mean_scalar_instruction_reduction=float(
            np.exp(np.mean(np.log([row.scalar_instruction_ratio for row in rows])))
        ),
        mean_mve_cb_utilization=float(np.mean([row.mve_cb_utilization for row in rows])),
        mean_rvv_cb_utilization=float(np.mean([row.rvv_cb_utilization for row in rows])),
    )


register_experiment(
    name="figure10",
    description="MVE vs RISC-V RVV execution-time breakdown per kernel",
    result_type=Figure10Result,
    assemble=assemble_figure10,
    specs=lambda options: (figure10_sweep_spec(options),),
)
