"""Experiment modules: one per table/figure of the paper's evaluation.

Every module registers itself with the :mod:`~repro.experiments.registry`,
which makes each table/figure an addressable, serializable experiment:
``run_experiment("figure7")`` (or ``python -m repro run figure7``) replaces
calling the module's ``run_*`` function by hand.
"""

from .registry import (
    Experiment,
    ExperimentOptions,
    all_experiments,
    build_runner,
    experiment_names,
    get_experiment,
    register_experiment,
    run_experiment,
)
from .runner import ExperimentRunner
from .serialize import SerializableResult
from .sweep import (
    JobOutcome,
    KernelJob,
    ParallelSweepEngine,
    SweepResult,
    SweepSpec,
    default_job_count,
    execute_job,
)
from .tables import (
    TablesResult,
    format_table,
    run_tables,
    table1_isa_comparison,
    table2_instruction_latencies,
    table3_libraries,
    table5_area,
    table5_summary,
)
from .figure7 import Figure7Result, LibraryComparison, run_figure7
from .figure8 import Figure8Result, GpuComparison, run_figure8, FIGURE8_KERNELS
from .figure9 import Figure9Result, SweepPoint, run_figure9, GEMM_SWEEP, SPMM_SWEEP
from .figure10 import Figure10Result, RvvComparison, run_figure10, FIGURE10_KERNELS
from .figure11 import Figure11Result, InstructionMix, run_figure11
from .figure12 import (
    Figure12Result,
    Figure12aResult,
    Figure12bResult,
    Figure12cResult,
    run_figure12,
    run_figure12a,
    run_figure12b,
    run_figure12c,
    FIGURE12_KERNELS,
)
from .figure13 import Figure13Result, SchemeComparison, run_figure13, FIGURE13_KERNELS

__all__ = [
    "Experiment",
    "ExperimentOptions",
    "all_experiments",
    "build_runner",
    "experiment_names",
    "get_experiment",
    "register_experiment",
    "run_experiment",
    "ExperimentRunner",
    "SerializableResult",
    "JobOutcome",
    "KernelJob",
    "ParallelSweepEngine",
    "SweepResult",
    "SweepSpec",
    "default_job_count",
    "execute_job",
    "TablesResult",
    "format_table",
    "run_tables",
    "table1_isa_comparison",
    "table2_instruction_latencies",
    "table3_libraries",
    "table5_area",
    "table5_summary",
    "Figure7Result",
    "LibraryComparison",
    "run_figure7",
    "Figure8Result",
    "GpuComparison",
    "run_figure8",
    "FIGURE8_KERNELS",
    "Figure9Result",
    "SweepPoint",
    "run_figure9",
    "GEMM_SWEEP",
    "SPMM_SWEEP",
    "Figure10Result",
    "RvvComparison",
    "run_figure10",
    "FIGURE10_KERNELS",
    "Figure11Result",
    "InstructionMix",
    "run_figure11",
    "Figure12Result",
    "Figure12aResult",
    "Figure12bResult",
    "Figure12cResult",
    "run_figure12",
    "run_figure12a",
    "run_figure12b",
    "run_figure12c",
    "FIGURE12_KERNELS",
    "Figure13Result",
    "SchemeComparison",
    "run_figure13",
    "FIGURE13_KERNELS",
]
