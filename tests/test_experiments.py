"""Tests for the experiment modules (tables and figures).

The figure experiments are exercised at reduced scales / kernel subsets so
the test suite stays fast; the full-scale runs live in ``benchmarks/``.
"""

import dataclasses

import pytest

from repro.baselines.duality_cache import DualityCacheModel
from repro.compiler.pipeline import compile_trace
from repro.core.config import default_config
from repro.core.replay import register_file_for
from repro.experiments import (
    ExperimentRunner,
    FIGURE8_KERNELS,
    FIGURE10_KERNELS,
    format_table,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12a,
    run_figure12b,
    run_figure12c,
    run_figure13,
    table1_isa_comparison,
    table2_instruction_latencies,
    table3_libraries,
    table5_area,
    table5_summary,
)
from repro.sram.array import EngineGeometry, SramArrayGeometry


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(default_scale=0.1)


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
    def test_single_library_comparison(self, runner):
        result = run_figure7(runner, scale=0.1, libraries=["Skia", "zlib"])
        assert len(result.libraries) == 2
        for library in result.libraries:
            assert library.speedup > 0
            assert library.energy_ratio > 0
            total = (
                library.idle_fraction + library.compute_fraction + library.data_fraction
            )
            assert total == pytest.approx(1.0, abs=0.05)

    def test_normalized_percent_inverse_of_speedup(self, runner):
        result = run_figure7(runner, scale=0.1, libraries=["Skia"])
        lib = result.libraries[0]
        assert lib.normalized_time_percent == pytest.approx(100.0 / lib.speedup)


class TestFigure8And9:
    def test_figure8_subset(self, runner):
        import repro.experiments.figure8 as f8

        original = f8.FIGURE8_KERNELS
        try:
            f8.FIGURE8_KERNELS = ("csum", "gemm")
            result = f8.run_figure8(runner, scale=0.1)
        finally:
            f8.FIGURE8_KERNELS = original
        assert len(result.kernels) == 2
        for row in result.kernels:
            assert row.time_ratio_with_transfer > 0
            assert 0 <= row.gpu_transfer_fraction <= 1

    def test_figure9_crossover_shape(self, runner):
        result = run_figure9(
            runner,
            gemm_sweep=((16, 16, 16), (128, 128, 128)),
            spmm_sweep=((16, 32, 16, 4),),
        )
        assert len(result.gemm_points) == 2
        # The small problem must favour MVE (GPU launch overhead dominates).
        assert result.gemm_points[0].mve_wins

    def test_figure9_never_captures_with_values(self, monkeypatch):
        """FLOP counts are analytic: they come from the prepared kernel's
        profile, so figure9 captures for timing only and never re-runs the
        functional machine with values recorded."""
        from repro.workloads.base import Kernel

        modes = []
        capture = Kernel.capture

        def counted_capture(self, kind="mve", simd_lanes=8192, record_values=False):
            modes.append(record_values)
            return capture(self, kind, simd_lanes, record_values)

        monkeypatch.setattr(Kernel, "capture", counted_capture)
        result = run_figure9(
            ExperimentRunner(default_scale=0.1),
            gemm_sweep=((16, 16, 16),),
            spmm_sweep=((16, 32, 16, 4),),
        )
        assert modes == [False, False]  # one timing capture per kernel
        assert [point.flops for point in result.gemm_points + result.spmm_points] == [
            2 * 16 * 16 * 16,
            2 * 16 * 16 * 4,
        ]


class TestFigure10And11:
    @pytest.fixture(scope="class")
    def fig10(self):
        import repro.experiments.figure10 as f10

        original = f10.FIGURE10_KERNELS
        try:
            f10.FIGURE10_KERNELS = (("csum", "1D"), ("gemm", "2D"), ("intra", "3D"))
            runner = ExperimentRunner(default_scale=0.1)
            result = f10.run_figure10(runner)
        finally:
            f10.FIGURE10_KERNELS = original
        return result

    def test_mve_not_slower_than_rvv(self, fig10):
        assert fig10.mean_speedup_over_rvv >= 1.0

    def test_multidim_kernels_benefit_more(self, fig10):
        by_name = {row.kernel: row for row in fig10.kernels}
        assert by_name["gemm"].vector_instruction_ratio > by_name["csum"].vector_instruction_ratio

    def test_figure11_consistent_with_figure10(self, fig10):
        result = run_figure11(figure10=fig10)
        assert len(result.kernels) == len(fig10.kernels)
        for mix in result.kernels:
            assert sum(mix.rvv_counts.values()) >= sum(mix.mve_counts.values()) * 0.5


class TestFigure12And13:
    def test_duality_cache_slower(self, runner):
        rows = run_figure12a(runner, kernels=("fir_s",))
        assert rows[0].dc_over_mve_time > 1.0

    def test_duality_cache_compiles_for_the_runner_register_file(self):
        """The SIMT input is register-allocated for the runner's register
        file, like the MVE run it is compared with (64-row arrays spill)."""
        engine = EngineGeometry(array=SramArrayGeometry(rows=64, cols=256))
        config = dataclasses.replace(default_config(), engine=engine)
        runner = ExperimentRunner(config=config)
        (row,) = run_figure12a(runner, kernels=("fir_v",))

        trace = runner.job("fir_v", "mve", scale=0.5).trace_spec().capture().trace
        compiled = compile_trace(trace, register_file=register_file_for(config))
        dc = DualityCacheModel(config).run(compiled.trace)
        mve = runner.run_mve("fir_v", scale=0.5)
        assert row.dc_over_mve_time == dc.total_cycles / mve.result.total_cycles
        assert row.dc_breakdown == dc.breakdown_fractions()

    def test_scalability_improves_with_arrays(self, runner):
        points = run_figure12b(runner, kernels=("fir_l",), array_counts=(8, 32))
        assert points[0].num_arrays == 8 and points[0].normalized_time == 1.0
        assert points[1].normalized_time < 1.0

    def test_precision_sweep_lower_is_faster(self):
        points = run_figure12c()
        by_name = {p.precision: p for p in points}
        assert by_name["INT16"].normalized_time < by_name["FLOAT32"].normalized_time
        assert by_name["INT16"].speedup_over_neon > by_name["FLOAT32"].speedup_over_neon

    def test_figure13_all_schemes_benefit(self):
        runner = ExperimentRunner(default_scale=0.1)
        result = run_figure13(runner, kernels=("gemm",), schemes=("bit-serial", "associative"))
        bs = result.speedup_for("bit-serial")
        ac = result.speedup_for("associative")
        assert bs >= 1.0
        # associative computing benefits least from the multi-dimensional ISA
        assert bs >= ac
