"""Figure 11: dynamic instruction distribution, MVE versus RVV.

This is a different view of the same runs as Figure 10: the per-category
vector instruction distribution (config / move / memory / arithmetic) and
the dynamic scalar instruction count, both normalized to RVV.
"""

from __future__ import annotations

from dataclasses import dataclass

from .figure10 import assemble_figure10, figure10_sweep_spec
from .registry import ExperimentOptions, register_experiment
from .runner import ExperimentRunner
from .serialize import SerializableResult

__all__ = ["InstructionMix", "Figure11Result", "assemble_figure11"]


@dataclass
class InstructionMix(SerializableResult):
    kernel: str
    dims: str
    #: per-category dynamic vector instruction counts
    mve_counts: dict[str, int]
    rvv_counts: dict[str, int]
    mve_scalar: int
    rvv_scalar: int


@dataclass
class Figure11Result(SerializableResult):
    kernels: list[InstructionMix]
    mean_vector_reduction: float
    mean_scalar_reduction: float


def assemble_figure11(runner: ExperimentRunner, options: ExperimentOptions) -> Figure11Result:
    """Derive the instruction-mix view from the Figure 10 runs."""
    figure10 = assemble_figure10(runner, options)
    rows = []
    for comparison in figure10.kernels:
        rows.append(
            InstructionMix(
                kernel=comparison.kernel,
                dims=comparison.dims,
                mve_counts=comparison.mve_vector_instructions,
                rvv_counts=comparison.rvv_vector_instructions,
                mve_scalar=comparison.mve_scalar_instructions,
                rvv_scalar=comparison.rvv_scalar_instructions,
            )
        )
    return Figure11Result(
        kernels=rows,
        mean_vector_reduction=figure10.mean_vector_instruction_reduction,
        mean_scalar_reduction=figure10.mean_scalar_instruction_reduction,
    )


register_experiment(
    name="figure11",
    description="dynamic vector/scalar instruction mix, MVE vs RVV",
    result_type=Figure11Result,
    assemble=assemble_figure11,
    # Same runs as Figure 10: the spec is shared, so the jobs come for free
    # when both figures are produced on one engine.
    specs=lambda options: (figure10_sweep_spec(options),),
)
