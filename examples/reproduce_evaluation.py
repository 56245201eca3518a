#!/usr/bin/env python3
"""Regenerate the headline numbers of the paper's evaluation section.

Runs every experiment of the registry (Tables I/II/III/V, Figures 7-13) at
a reduced dataset scale and prints the measured values next to the paper's.
Kernel simulations are sharded over worker processes (``--jobs``) and both
the per-kernel simulations and the assembled experiment results are
answered from the persistent sweep cache on repeat runs (disable with
``--no-cache``); the same experiments are asserted against the paper's
claims by ``tests/test_experiments.py`` and served by ``python -m repro``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.cache import ResultStore
from repro.experiments import (
    ExperimentOptions,
    build_runner,
    default_job_count,
    run_experiment,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, default=default_job_count(),
        help="worker processes for kernel simulation (default: all cores)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the persistent sweep cache"
    )
    args = parser.parse_args()

    runner = build_runner(
        jobs=args.jobs,
        store=None if args.no_cache else ResultStore.default(),
        default_scale=0.5,
    )

    def run(name, scale=0.5):
        return run_experiment(
            name, runner=runner, options=ExperimentOptions(scale=scale),
            use_cache=not args.no_cache,
        )

    area = run("tables").table5
    print("Table V  : MVE area overhead "
          f"{area['mve_overhead_percent']:.2f}% (paper 3.59%), "
          f"Neon {area['neon_overhead_percent']:.1f}% (paper 16.3%)")

    fig7 = run("figure7")
    print(f"Figure 7 : MVE vs Neon speedup {fig7.mean_speedup:.2f}x (paper 2.9x), "
          f"energy reduction {fig7.mean_energy_ratio:.2f}x (paper 8.8x)")

    fig8 = run("figure8")
    print(f"Figure 8 : GPU/MVE time {fig8.mean_time_ratio:.2f}x (paper 9.3x), "
          f"kernel-only {fig8.mean_kernel_only_ratio:.2f}x (paper 2.4x), "
          f"energy {fig8.mean_energy_ratio:.2f}x (paper 5.2x)")

    fig9 = run("figure9")

    def crossover(kernel, points, flops):
        if flops is None:
            largest = max(point.flops for point in points)
            return f"no {kernel} crossover up to {largest / 1e6:.1f}M ops"
        return f"GPU overtakes MVE at {flops / 1e6:.1f}M {kernel} ops"

    print(f"Figure 9 : {crossover('GEMM', fig9.gemm_points, fig9.gemm_crossover_flops)} "
          f"(paper ~6.0M), "
          f"{crossover('SpMM', fig9.spmm_points, fig9.spmm_crossover_flops)} (paper ~4.6M)")

    fig10 = run("figure10")
    print(f"Figure 10: speedup over RVV {fig10.mean_speedup_over_rvv:.2f}x (paper 2.0x)")
    print(f"Figure 11: vector instr reduction {fig10.mean_vector_instruction_reduction:.2f}x "
          f"(paper 2.3x), scalar reduction {fig10.mean_scalar_instruction_reduction:.2f}x "
          f"(paper 2.0x)")

    fig12a = run("figure12a").rows
    mean_dc = sum(r.dc_over_mve_time for r in fig12a) / len(fig12a)
    print(f"Figure 12a: Duality Cache slowdown vs MVE {mean_dc:.2f}x (paper ~1.5x)")

    fig12c = run("figure12c").points
    ratios = {p.precision: p.speedup_over_neon for p in fig12c}
    print(f"Figure 12c: speedup over Neon by precision "
          f"fp32 {ratios['FLOAT32']:.2f}x, int32 {ratios['INT32']:.2f}x, "
          f"fp16 {ratios['FLOAT16']:.2f}x, int16 {ratios['INT16']:.2f}x")

    fig13 = run("figure13")
    speedups = {row.scheme: row.speedup for row in fig13.schemes}
    print("Figure 13: MVE speedup over RVV per scheme "
          + ", ".join(f"{name} {value:.2f}x" for name, value in speedups.items())
          + " (paper BS 3.8x, BH 2.8x, BP 1.8x, AC 1.2x)")


if __name__ == "__main__":
    main()
