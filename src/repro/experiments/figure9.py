"""Figure 9: GEMM / SpMM execution time of MVE and the GPU versus problem size.

The paper sweeps CNN-layer matrix sizes and finds that the GPU only wins
above roughly 6.0M (GEMM) and 4.6M (SpMM) multiply-accumulate operations;
below that, the kernel-launch and copy overheads dominate and MVE wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .registry import ExperimentOptions, register_experiment
from .runner import ExperimentRunner
from .serialize import SerializableResult
from .sweep import SweepSpec

__all__ = [
    "SweepPoint",
    "Figure9Result",
    "assemble_figure9",
    "figure9_sweep_spec",
    "GEMM_SWEEP",
    "SPMM_SWEEP",
]

#: (N, K, M) GEMM layer shapes, small to large (CNN-layer-like sizes)
GEMM_SWEEP: tuple[tuple[int, int, int], ...] = (
    (32, 32, 32),
    (64, 64, 64),
    (128, 64, 64),
    (128, 128, 128),
    (256, 128, 128),
    (256, 256, 256),
)

#: (N, K, M, NNZ) SpMM layer shapes
SPMM_SWEEP: tuple[tuple[int, int, int, int], ...] = (
    (32, 64, 32, 8),
    (64, 128, 64, 8),
    (128, 128, 64, 16),
    (128, 256, 128, 16),
    (256, 256, 128, 32),
    (512, 512, 256, 64),
    (1024, 512, 256, 96),
)


@dataclass
class SweepPoint(SerializableResult):
    kernel: str
    shape: tuple
    flops: float
    mve_time_ms: float
    gpu_time_ms: float

    @property
    def mve_wins(self) -> bool:
        return self.mve_time_ms <= self.gpu_time_ms


@dataclass
class Figure9Result(SerializableResult):
    gemm_points: list[SweepPoint]
    spmm_points: list[SweepPoint]

    @staticmethod
    def _crossover(points: list[SweepPoint]) -> Optional[float]:
        """FLOP count where the GPU starts winning (None if it never does)."""
        for point in points:
            if not point.mve_wins:
                return point.flops
        return None

    @property
    def gemm_crossover_flops(self) -> Optional[float]:
        return self._crossover(self.gemm_points)

    @property
    def spmm_crossover_flops(self) -> Optional[float]:
        return self._crossover(self.spmm_points)


def figure9_sweep_spec(options: ExperimentOptions) -> SweepSpec:
    """The MVE job set :func:`assemble_figure9` reads (fixed paper shapes)."""
    return SweepSpec(
        name="figure9",
        kernels=[
            ("gemm", {"scale": 1.0, "n": n, "k": k, "m": m}) for n, k, m in GEMM_SWEEP
        ]
        + [
            ("spmm", {"scale": 1.0, "n": n, "k": k, "m": m, "nnz": nnz})
            for n, k, m, nnz in SPMM_SWEEP
        ],
        base_config=options.resolved_config(),
    )


def assemble_figure9(runner: ExperimentRunner, options: ExperimentOptions) -> Figure9Result:
    """MVE against the GPU model over the GEMM and SpMM layer shapes."""
    gemm_points = []
    for n, k, m in GEMM_SWEEP:
        mve = runner.run_mve("gemm", scale=1.0, n=n, k=k, m=m)
        gpu = runner.run_gpu("gemm", scale=1.0, n=n, k=k, m=m)
        gemm_points.append(
            SweepPoint(
                kernel="gemm",
                shape=(n, k, m),
                flops=runner.profile("gemm", scale=1.0, n=n, k=k, m=m).total_ops,
                mve_time_ms=mve.result.time_ms,
                gpu_time_ms=gpu.time_ms,
            )
        )

    spmm_points = []
    for n, k, m, nnz in SPMM_SWEEP:
        mve = runner.run_mve("spmm", scale=1.0, n=n, k=k, m=m, nnz=nnz)
        gpu = runner.run_gpu("spmm", scale=1.0, n=n, k=k, m=m, nnz=nnz)
        spmm_points.append(
            SweepPoint(
                kernel="spmm",
                shape=(n, k, m, nnz),
                flops=runner.profile("spmm", scale=1.0, n=n, k=k, m=m, nnz=nnz).total_ops,
                mve_time_ms=mve.result.time_ms,
                gpu_time_ms=gpu.time_ms,
            )
        )
    return Figure9Result(gemm_points=gemm_points, spmm_points=spmm_points)


register_experiment(
    name="figure9",
    description="GEMM/SpMM time vs problem size, MVE against the GPU",
    result_type=Figure9Result,
    assemble=assemble_figure9,
    specs=lambda options: (figure9_sweep_spec(options),),
)
