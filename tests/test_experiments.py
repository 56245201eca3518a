"""Tests for the experiment modules (tables and figures).

The figures are read with ``run_experiment`` from the session's warm store
(``tests/conftest.py``, every experiment at scale 0.1), so they check the
full experiments without simulating them again; the full-scale runs live in
``benchmarks/``.
"""

import dataclasses

import pytest

from repro.baselines.duality_cache import DualityCacheModel
from repro.compiler.pipeline import compile_trace
from repro.core.cache import ResultStore
from repro.core.config import default_config
from repro.core.replay import register_file_for
from repro.experiments import (
    FIGURE8_KERNELS,
    GEMM_SWEEP,
    ExperimentOptions,
    build_runner,
    format_table,
    run_experiment,
    table1_isa_comparison,
    table2_instruction_latencies,
    table3_libraries,
    table5_area,
    table5_summary,
)
from repro.sram.array import EngineGeometry, SramArrayGeometry


@pytest.fixture(scope="module")
def run(warm_store_dir):
    """``run(name)``: the experiment at the warm store's scale, answered
    from the store."""
    runner = build_runner(jobs=1, store=ResultStore(warm_store_dir))
    options = ExperimentOptions(scale=0.1)
    return lambda name: run_experiment(name, runner=runner, options=options)


class TestTables:
    def test_table1_features(self):
        table = table1_isa_comparison()
        assert set(table) == {"MVE", "RISC-V RVV", "Arm SVE", "NEC"}
        assert "4D" in table["MVE"]["strided_access"]
        assert "dimension-level" in table["MVE"]["masked_execution"]

    def test_table2_latencies_match_formulas(self):
        rows = {row.opcode: row for row in table2_instruction_latencies(32)}
        assert rows["vadd"].latency_32bit == 32
        assert rows["vsub"].latency_32bit == 64
        assert rows["vmul"].latency_32bit == 32 * 32 + 5 * 32

    def test_table3_counts(self):
        rows = table3_libraries()
        assert len(rows) == 12
        assert sum(row["num_kernels"] for row in rows) >= 30

    def test_table5_overhead(self):
        summary = table5_summary()
        assert summary["mve_overhead_percent"] == pytest.approx(3.6, abs=0.2)
        assert summary["neon_overhead_percent"] > summary["mve_overhead_percent"]
        report = table5_area()
        assert set(report.modules_mm2) >= {"controller", "tmu", "fsm", "mshr"}

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2], [30, 40]])
        assert "30" in text and "a" in text


class TestFigure7:
    def test_single_library_comparison(self, run):
        result = run("figure7")
        assert len(result.libraries) == len(table3_libraries())
        for library in result.libraries:
            assert library.speedup > 0
            assert library.energy_ratio > 0
            total = (
                library.idle_fraction + library.compute_fraction + library.data_fraction
            )
            assert total == pytest.approx(1.0, abs=0.05)

    def test_normalized_percent_inverse_of_speedup(self, run):
        by_name = {lib.library: lib for lib in run("figure7").libraries}
        lib = by_name["Skia"]
        assert lib.normalized_time_percent == pytest.approx(100.0 / lib.speedup)


class TestFigure8And9:
    def test_figure8_subset(self, run):
        result = run("figure8")
        assert [row.kernel for row in result.kernels] == list(FIGURE8_KERNELS)
        by_name = {row.kernel: row for row in result.kernels}
        for name in ("csum", "gemm"):
            assert by_name[name].time_ratio_with_transfer > 0
            assert 0 <= by_name[name].gpu_transfer_fraction <= 1

    def test_figure9_crossover_shape(self, run):
        result = run("figure9")
        assert len(result.gemm_points) == len(GEMM_SWEEP)
        # The smallest problems favour MVE (GPU launch overhead dominates).
        assert result.gemm_points[0].mve_wins
        assert result.spmm_points[0].mve_wins
        # FLOPs are the kernels' analytic profiles: 2 per multiply-accumulate.
        assert result.gemm_points[0].flops == 2 * 32 * 32 * 32  # n, k, m
        assert result.spmm_points[0].flops == 2 * 32 * 32 * 8  # n, m, nnz


class TestFigure10And11:
    def test_mve_not_slower_than_rvv(self, run):
        assert run("figure10").mean_speedup_over_rvv >= 1.0

    def test_multidim_kernels_benefit_more(self, run):
        by_name = {row.kernel: row for row in run("figure10").kernels}
        assert by_name["gemm"].vector_instruction_ratio > by_name["csum"].vector_instruction_ratio

    def test_figure11_consistent_with_figure10(self, run):
        fig10, result = run("figure10"), run("figure11")
        assert [mix.kernel for mix in result.kernels] == [row.kernel for row in fig10.kernels]
        assert result.mean_vector_reduction == fig10.mean_vector_instruction_reduction
        for mix in result.kernels:
            assert sum(mix.rvv_counts.values()) >= sum(mix.mve_counts.values()) * 0.5


class TestFigure12And13:
    def test_duality_cache_slower(self, run):
        by_name = {row.kernel: row for row in run("figure12a").rows}
        assert by_name["fir_s"].dc_over_mve_time > 1.0

    def test_duality_cache_compiles_for_the_runner_register_file(self):
        """The SIMT input is register-allocated for the runner's register
        file, like the MVE run it is compared with (64-row arrays spill)."""
        engine = EngineGeometry(array=SramArrayGeometry(rows=64, cols=256))
        config = dataclasses.replace(default_config(), engine=engine)
        runner = build_runner(jobs=1)
        result = run_experiment(
            "figure12a", runner=runner, options=ExperimentOptions(config=config)
        )
        (row,) = [row for row in result.rows if row.kernel == "fir_v"]

        trace = runner.job("fir_v", "mve", scale=0.5, config=config).trace_spec().capture().trace
        compiled = compile_trace(trace, register_file=register_file_for(config))
        dc = DualityCacheModel(config).run(compiled.trace)
        mve = runner.run_mve("fir_v", scale=0.5, config=config)
        assert row.dc_over_mve_time == dc.total_cycles / mve.result.total_cycles
        assert row.dc_breakdown == dc.breakdown_fractions()

    def test_scalability_improves_with_arrays(self, run):
        points = {
            point.num_arrays: point
            for point in run("figure12b").points
            if point.kernel == "fir_l"
        }
        assert points[8].normalized_time == 1.0
        assert points[32].normalized_time < 1.0

    def test_precision_sweep_lower_is_faster(self, run):
        by_name = {p.precision: p for p in run("figure12c").points}
        assert by_name["INT16"].normalized_time < by_name["FLOAT32"].normalized_time
        assert by_name["INT16"].speedup_over_neon > by_name["FLOAT32"].speedup_over_neon

    def test_figure13_all_schemes_benefit(self, run):
        result = run("figure13")
        bs = result.speedup_for("bit-serial")
        ac = result.speedup_for("associative")
        assert bs >= 1.0
        # associative computing benefits least from the multi-dimensional ISA
        assert bs >= ac
