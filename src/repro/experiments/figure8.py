"""Figure 8: Adreno-class GPU execution time and energy normalized to MVE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registry import ExperimentOptions, register_experiment
from .runner import ExperimentRunner
from .serialize import SerializableResult
from .sweep import SweepSpec

__all__ = [
    "GpuComparison",
    "Figure8Result",
    "assemble_figure8",
    "figure8_sweep_spec",
    "FIGURE8_KERNELS",
]

#: kernels used for the GPU comparison (the paper's CSUM..IDCT selection)
FIGURE8_KERNELS = (
    "csum",
    "lpack",
    "fir_v",
    "fir_s",
    "fir_l",
    "gemm",
    "spmm",
    "satd",
    "intra",
    "dct",
    "idct",
)

#: per-kernel dataset scales keeping trace lengths manageable
_KERNEL_SCALES = {"satd": 0.25, "dct": 0.25, "idct": 0.25}


def figure8_sweep_spec(options: ExperimentOptions) -> SweepSpec:
    """The MVE job set :func:`assemble_figure8` reads."""
    return SweepSpec(
        name="figure8",
        kernels=[
            (name, {"scale": _KERNEL_SCALES.get(name, options.scale)})
            for name in FIGURE8_KERNELS
        ],
        base_config=options.resolved_config(),
    )


@dataclass
class GpuComparison(SerializableResult):
    kernel: str
    #: GPU / MVE execution-time ratio including host-to-device data transfer
    time_ratio_with_transfer: float
    #: GPU / MVE execution-time ratio for the kernel execution alone
    time_ratio_kernel_only: float
    energy_ratio: float
    gpu_transfer_fraction: float


@dataclass
class Figure8Result(SerializableResult):
    kernels: list[GpuComparison]
    mean_time_ratio: float
    mean_kernel_only_ratio: float
    mean_energy_ratio: float


def assemble_figure8(runner: ExperimentRunner, options: ExperimentOptions) -> Figure8Result:
    """Compare MVE against the mobile-GPU model on the selected kernels."""
    rows: list[GpuComparison] = []
    for name in FIGURE8_KERNELS:
        kernel_scale = _KERNEL_SCALES.get(name, options.scale)
        mve = runner.run_mve(name, scale=kernel_scale)
        gpu = runner.run_gpu(name, scale=kernel_scale)
        rows.append(
            GpuComparison(
                kernel=name,
                time_ratio_with_transfer=gpu.time_ms / mve.result.time_ms,
                time_ratio_kernel_only=gpu.kernel_only_time_ms / mve.result.time_ms,
                energy_ratio=gpu.energy_nj / mve.result.energy_nj,
                gpu_transfer_fraction=gpu.transfer_time_s / gpu.total_time_s,
            )
        )
    return Figure8Result(
        kernels=rows,
        mean_time_ratio=float(np.exp(np.mean(np.log([r.time_ratio_with_transfer for r in rows])))),
        mean_kernel_only_ratio=float(
            np.exp(np.mean(np.log([r.time_ratio_kernel_only for r in rows])))
        ),
        mean_energy_ratio=float(np.exp(np.mean(np.log([r.energy_ratio for r in rows])))),
    )


register_experiment(
    name="figure8",
    description="Adreno-class GPU time and energy normalized to MVE",
    result_type=Figure8Result,
    assemble=assemble_figure8,
    specs=lambda options: (figure8_sweep_spec(options),),
    uses_scale=True,
)
