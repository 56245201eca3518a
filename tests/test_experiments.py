"""Tests for the experiment modules (tables and figures).

The figures are read with ``run_experiment`` from the session's warm store
(``tests/conftest.py``, every experiment at scale 0.1), so they check the
full experiments without simulating them again, and each figure asserts the
paper's qualitative claim about it.  Only figures 7 and 8 size their kernels
by scale; their mean gains are checked at :data:`HALF_SCALE`, the CLI's
default, through the same store.
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
from repro.experiments.figure12 import FIGURE12_KERNELS, FIGURE12B_KERNELS
from repro.sram.array import EngineGeometry, SramArrayGeometry
from repro.sram.schemes import SCHEME_NAMES

#: the scale at which figures 7 and 8 are held to the paper's claims: at the
#: warm store's 0.1 the kernels are too small for Figure 7's mean speedup
#: over Neon to clear 1.5x (it is 1.10x)
HALF_SCALE = 0.5


@pytest.fixture(scope="module")
def run(warm_store_dir):
    """``run(name, scale=0.1)``: the experiment, answered from (or added
    to) the session's warm store."""
    runner = build_runner(jobs=1, store=ResultStore(warm_store_dir))

    def _run(name, scale=0.1):
        return run_experiment(name, runner=runner, options=ExperimentOptions(scale=scale))

    return _run


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

    def test_mve_beats_neon_on_time_and_energy(self, run):
        """Paper: 2.9x mean speedup and 8.8x mean energy reduction."""
        result = run("figure7", scale=HALF_SCALE)
        assert result.mean_speedup > 1.5
        assert result.mean_energy_ratio > 3.0


class TestFigure8And9:
    def test_figure8_subset(self, run):
        result = run("figure8")
        assert [row.kernel for row in result.kernels] == list(FIGURE8_KERNELS)
        by_name = {row.kernel: row for row in result.kernels}
        for name in ("csum", "gemm"):
            assert by_name[name].time_ratio_with_transfer > 0
            assert 0 <= by_name[name].gpu_transfer_fraction <= 1

    def test_gpu_slower_than_mve(self, run):
        """Paper: the GPU takes 9.3x MVE's time, data transfer included."""
        assert run("figure8", scale=HALF_SCALE).mean_time_ratio > 1.0

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
        # Paper: 2.0x mean speedup over RVV on the same engine.
        assert run("figure10").mean_speedup_over_rvv > 1.2

    def test_multidim_kernels_benefit_more(self, run):
        by_name = {row.kernel: row for row in run("figure10").kernels}
        assert by_name["gemm"].vector_instruction_ratio > by_name["csum"].vector_instruction_ratio

    def test_figure11_consistent_with_figure10(self, run):
        fig10, result = run("figure10"), run("figure11")
        assert [mix.kernel for mix in result.kernels] == [row.kernel for row in fig10.kernels]
        assert result.mean_vector_reduction == fig10.mean_vector_instruction_reduction
        for mix in result.kernels:
            assert sum(mix.rvv_counts.values()) >= sum(mix.mve_counts.values()) * 0.5
        # Paper: MVE needs 2.3x fewer vector and 2.0x fewer scalar instructions.
        assert result.mean_vector_reduction > 1.0
        assert result.mean_scalar_reduction > 1.0


class TestFigure12And13:
    @pytest.mark.parametrize("kernel", FIGURE12_KERNELS)
    def test_duality_cache_slower(self, run, kernel):
        # Paper: the Duality Cache SIMT model takes ~1.5x MVE's time.
        (row,) = [row for row in run("figure12a").rows if row.kernel == kernel]
        assert row.dc_over_mve_time > 1.0

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

    @pytest.mark.parametrize("kernel", FIGURE12B_KERNELS)
    def test_scalability_improves_with_arrays(self, run, kernel):
        times = {
            point.num_arrays: point.normalized_time
            for point in run("figure12b").points
            if point.kernel == kernel
        }
        assert times[8] == 1.0
        assert times[32] < 1.0, times
        # Paper: 64 arrays run every kernel 3.0-6.7x faster than 8.
        assert times[64] < times[8], times

    def test_precision_sweep_lower_is_faster(self, run):
        by_name = {p.precision: p for p in run("figure12c").points}
        assert by_name["INT16"].normalized_time < by_name["FLOAT32"].normalized_time
        assert by_name["INT16"].speedup_over_neon > by_name["FLOAT32"].speedup_over_neon
        assert by_name["INT16"].speedup_over_neon > by_name["INT32"].speedup_over_neon
        assert by_name["FLOAT16"].normalized_time < by_name["FLOAT32"].normalized_time

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_figure13_all_schemes_benefit(self, run, scheme):
        # Paper: MVE speeds up bit-serial 3.8x, bit-hybrid 2.8x,
        # bit-parallel 1.8x and associative computing 1.2x over RVV.
        assert run("figure13").speedup_for(scheme) >= 1.0

    def test_figure13_associative_benefits_least(self, run):
        # Paper: associative computing benefits least from the
        # multi-dimensional ISA, its arithmetic latency dominating.
        speedups = {row.scheme: row.speedup for row in run("figure13").schemes}
        assert speedups["associative"] == min(speedups.values()), speedups
