"""The paper's headline numbers, and how far this reproduction sits from them.

Each :data:`HEADLINES` row pairs one headline value from the paper with the
accessor that reads our value off an assembled experiment result.  The
values are the ones printed next to our numbers by
``examples/reproduce_evaluation.py`` and ``benchmarks/test_bench_figure*.py``.

Scoring: a pair's fidelity is ours / paper and its error is
``|log2(ours / paper)|`` (a factor of two either way costs 1.0);
``paper_err`` is the mean error over the pairs a workload's results
determine.  A crossover that never happens inside the swept sizes (Fig 9
SpMM today) has no value; it is scored as if it happened at the largest
swept operation count, which is the smallest error consistent with the
result.
"""

from __future__ import annotations

import math


def _table5(key):
    return lambda result: result.table5[key]


def _crossover(points_attr: str, crossover_attr: str):
    def read(result):
        value = getattr(result, crossover_attr)
        if value is None:
            value = max(point.flops for point in getattr(result, points_attr))
        return value / 1e6

    return read


def _dc_slowdown(result):
    return sum(row.dc_over_mve_time for row in result.rows) / len(result.rows)


def _scheme(name: str):
    return lambda result: result.speedup_for(name)


#: (pair, experiment, source in the paper, paper value, accessor)
HEADLINES = (
    ("table5.mve_area_pct", "tables", "Table V", 3.59, _table5("mve_overhead_percent")),
    ("table5.neon_area_pct", "tables", "Table V", 16.3, _table5("neon_overhead_percent")),
    ("fig7.speedup", "figure7", "Fig 7", 2.9, lambda r: r.mean_speedup),
    ("fig7.energy", "figure7", "Fig 7", 8.8, lambda r: r.mean_energy_ratio),
    ("fig8.time_ratio", "figure8", "Fig 8", 9.3, lambda r: r.mean_time_ratio),
    ("fig8.kernel_only", "figure8", "Fig 8", 2.4, lambda r: r.mean_kernel_only_ratio),
    ("fig8.energy", "figure8", "Fig 8", 5.2, lambda r: r.mean_energy_ratio),
    ("fig9.gemm_crossover_mops", "figure9", "Fig 9", 6.0,
     _crossover("gemm_points", "gemm_crossover_flops")),
    ("fig9.spmm_crossover_mops", "figure9", "Fig 9", 4.6,
     _crossover("spmm_points", "spmm_crossover_flops")),
    ("fig10.speedup", "figure10", "Fig 10", 2.0, lambda r: r.mean_speedup_over_rvv),
    ("fig11.vector_reduction", "figure11", "Fig 11", 2.3, lambda r: r.mean_vector_reduction),
    ("fig11.scalar_reduction", "figure11", "Fig 11", 2.0, lambda r: r.mean_scalar_reduction),
    ("fig12a.dc_slowdown", "figure12a", "Fig 12a", 1.5, _dc_slowdown),
    ("fig13.bit_serial", "figure13", "Fig 13", 3.8, _scheme("bit-serial")),
    ("fig13.bit_hybrid", "figure13", "Fig 13", 2.8, _scheme("bit-hybrid")),
    ("fig13.bit_parallel", "figure13", "Fig 13", 1.8, _scheme("bit-parallel")),
    ("fig13.associative", "figure13", "Fig 13", 1.2, _scheme("associative")),
)

PAIR_NAMES = tuple(row[0] for row in HEADLINES)


def fidelity(results: dict) -> dict[str, float]:
    """ours / paper for every headline whose experiment is in ``results``."""
    ratios = {}
    for pair, experiment, _, paper, read in HEADLINES:
        if experiment in results:
            ratios[pair] = read(results[experiment]) / paper
    return ratios


def error(ratio: float) -> float:
    """One pair's error, ``|log2(ours / paper)|``."""
    return abs(math.log2(ratio))


def paper_err(ratios: dict[str, float]) -> float:
    """Mean error over the scored pairs."""
    return sum(error(ratio) for ratio in ratios.values()) / len(ratios)


def table(ratios: dict[str, float]) -> list[str]:
    """The fidelity table, one printable line per scored pair."""
    lines = []
    for pair, _, source, paper, _ in HEADLINES:
        if pair in ratios:
            ratio = ratios[pair]
            lines.append(
                f"{pair:28s} {source:8s} ours {ratio * paper:9.4g} paper {paper:6.4g}"
                f"  ours/paper {ratio:7.4g}  err {error(ratio):.3f}"
            )
    return lines
