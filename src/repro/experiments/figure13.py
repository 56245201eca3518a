"""Figure 13: MVE versus RVV across in-SRAM computing schemes (BS/BH/BP/AC)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sram.schemes import SCHEME_NAMES
from .figure10 import kernel_run_parameters
from .registry import ExperimentOptions, register_experiment
from .runner import ExperimentRunner
from .serialize import SerializableResult
from .sweep import SweepSpec

__all__ = [
    "SchemeComparison",
    "Figure13Result",
    "assemble_figure13",
    "figure13_sweep_spec",
    "FIGURE13_KERNELS",
]

#: representative kernel subset (one per dimensionality class)
FIGURE13_KERNELS = ("csum", "gemm", "intra", "dct")


@dataclass
class SchemeComparison(SerializableResult):
    scheme: str
    #: geometric-mean MVE / RVV execution-time ratio (lower favours MVE)
    time_ratio: float
    mve_breakdown: dict[str, float]
    rvv_breakdown: dict[str, float]

    @property
    def speedup(self) -> float:
        return 1.0 / self.time_ratio if self.time_ratio else float("inf")


@dataclass
class Figure13Result(SerializableResult):
    schemes: list[SchemeComparison]

    def speedup_for(self, scheme: str) -> float:
        for row in self.schemes:
            if row.scheme == scheme:
                return row.speedup
        raise KeyError(scheme)


def figure13_sweep_spec(options: ExperimentOptions) -> SweepSpec:
    """The MVE+RVV job set :func:`assemble_figure13` reads: every scheme,
    fixed shapes."""
    return SweepSpec(
        name="figure13",
        kernels=[(name, kernel_run_parameters(name)) for name in FIGURE13_KERNELS],
        kinds=("mve", "rvv"),
        schemes=SCHEME_NAMES,
        base_config=options.resolved_config(),
    )


def assemble_figure13(runner: ExperimentRunner, options: ExperimentOptions) -> Figure13Result:
    """MVE against RVV under each in-SRAM compute scheme."""
    rows = []
    for scheme in SCHEME_NAMES:
        ratios = []
        mve_fracs = {"idle": [], "compute": [], "data_access": []}
        rvv_fracs = {"idle": [], "compute": [], "data_access": []}
        config = runner.config.with_scheme(scheme)
        for name in FIGURE13_KERNELS:
            params = kernel_run_parameters(name)
            mve = runner.run_mve(name, config=config, **params)
            rvv = runner.run_rvv(name, config=config, **params)
            ratios.append(mve.result.total_cycles / rvv.result.total_cycles)
            for key in mve_fracs:
                mve_fracs[key].append(mve.result.breakdown_fractions()[key])
                rvv_fracs[key].append(rvv.result.breakdown_fractions()[key])
        rows.append(
            SchemeComparison(
                scheme=scheme,
                time_ratio=float(np.exp(np.mean(np.log(ratios)))),
                mve_breakdown={k: float(np.mean(v)) for k, v in mve_fracs.items()},
                rvv_breakdown={k: float(np.mean(v)) for k, v in rvv_fracs.items()},
            )
        )
    return Figure13Result(schemes=rows)


register_experiment(
    name="figure13",
    description="MVE vs RVV across in-SRAM compute schemes (BS/BH/BP/AC)",
    result_type=Figure13Result,
    assemble=assemble_figure13,
    specs=lambda options: (figure13_sweep_spec(options),),
)
