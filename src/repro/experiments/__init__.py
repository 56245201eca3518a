"""Experiment modules: one per table/figure of the paper's evaluation.

Each figure module declares its experiment once: a job-set builder
(``figureN_sweep_spec(options)``) and an assemble function
(``assemble_figureN(runner, options)``), both handed to the
:mod:`~repro.experiments.registry`.  ``run_experiment("figure7")`` (or
``python -m repro run figure7``) is the only way to produce a figure: it
runs the declared jobs on the sweep engine, then assembles the result.
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
from .figure7 import Figure7Result, LibraryComparison
from .figure8 import Figure8Result, GpuComparison, FIGURE8_KERNELS
from .figure9 import Figure9Result, SweepPoint, GEMM_SWEEP, SPMM_SWEEP
from .figure10 import Figure10Result, RvvComparison, FIGURE10_KERNELS
from .figure11 import Figure11Result, InstructionMix
from .figure12 import (
    Figure12Result,
    Figure12aResult,
    Figure12bResult,
    Figure12cResult,
    FIGURE12_KERNELS,
)
from .figure13 import Figure13Result, SchemeComparison, FIGURE13_KERNELS

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
    "Figure8Result",
    "GpuComparison",
    "FIGURE8_KERNELS",
    "Figure9Result",
    "SweepPoint",
    "GEMM_SWEEP",
    "SPMM_SWEEP",
    "Figure10Result",
    "RvvComparison",
    "FIGURE10_KERNELS",
    "Figure11Result",
    "InstructionMix",
    "Figure12Result",
    "Figure12aResult",
    "Figure12bResult",
    "Figure12cResult",
    "FIGURE12_KERNELS",
    "Figure13Result",
    "SchemeComparison",
    "FIGURE13_KERNELS",
]
