"""Figure 7: MVE execution time and energy normalized to Arm Neon, per library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..workloads import kernels_in_library, library_info, library_names
from .registry import ExperimentOptions, register_experiment
from .runner import ExperimentRunner
from .serialize import SerializableResult
from .sweep import SweepSpec

__all__ = ["LibraryComparison", "Figure7Result", "assemble_figure7", "figure7_sweep_spec"]


def figure7_sweep_spec(options: ExperimentOptions) -> SweepSpec:
    """The MVE job set :func:`assemble_figure7` reads: every suite kernel
    at ``options.scale``."""
    return SweepSpec(
        name="figure7",
        kernels=[
            (name, {"scale": options.scale})
            for library in library_names()
            for name in kernels_in_library(library)
        ],
        base_config=options.resolved_config(),
    )


@dataclass
class LibraryComparison(SerializableResult):
    """Per-library aggregate of the MVE vs Neon comparison."""

    library: str
    dims: str
    speedup: float
    energy_ratio: float
    #: MVE execution-time fractions (idle / compute / data access)
    idle_fraction: float
    compute_fraction: float
    data_fraction: float
    kernels: list[str] = field(default_factory=list)

    @property
    def normalized_time_percent(self) -> float:
        """MVE time as a percentage of Neon time (the Figure 7(a) bar height)."""
        return 100.0 / self.speedup


@dataclass
class Figure7Result(SerializableResult):
    libraries: list[LibraryComparison]
    mean_speedup: float
    mean_energy_ratio: float
    mean_idle_fraction: float
    mean_compute_fraction: float
    mean_data_fraction: float


def assemble_figure7(runner: ExperimentRunner, options: ExperimentOptions) -> Figure7Result:
    """MVE vs the packed-SIMD Neon baseline over the whole workload suite."""
    scale = options.scale
    per_library: list[LibraryComparison] = []
    for library in library_names():
        kernel_list = kernels_in_library(library)
        if not kernel_list:
            continue
        speedups, energy_ratios = [], []
        idles, computes, datas = [], [], []
        for name in kernel_list:
            mve = runner.run_mve(name, scale=scale)
            neon = runner.run_neon(name, scale=scale)
            speedups.append(neon.time_ms / mve.result.time_ms)
            energy_ratios.append(neon.energy_nj / mve.result.energy_nj)
            fractions = mve.result.breakdown_fractions()
            idles.append(fractions["idle"])
            computes.append(fractions["compute"])
            datas.append(fractions["data_access"])
        _, dims = library_info(library)
        per_library.append(
            LibraryComparison(
                library=library,
                dims=dims,
                speedup=float(np.exp(np.mean(np.log(speedups)))),
                energy_ratio=float(np.exp(np.mean(np.log(energy_ratios)))),
                idle_fraction=float(np.mean(idles)),
                compute_fraction=float(np.mean(computes)),
                data_fraction=float(np.mean(datas)),
                kernels=kernel_list,
            )
        )

    speedups = [lib.speedup for lib in per_library]
    energies = [lib.energy_ratio for lib in per_library]
    return Figure7Result(
        libraries=per_library,
        mean_speedup=float(np.exp(np.mean(np.log(speedups)))),
        mean_energy_ratio=float(np.exp(np.mean(np.log(energies)))),
        mean_idle_fraction=float(np.mean([lib.idle_fraction for lib in per_library])),
        mean_compute_fraction=float(np.mean([lib.compute_fraction for lib in per_library])),
        mean_data_fraction=float(np.mean([lib.data_fraction for lib in per_library])),
    )


register_experiment(
    name="figure7",
    description="MVE vs Arm Neon execution time and energy, per library",
    result_type=Figure7Result,
    assemble=assemble_figure7,
    specs=lambda options: (figure7_sweep_spec(options),),
    uses_scale=True,
)
