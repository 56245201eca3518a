"""Tests for the experiment registry and result (de)serialization.

Every figure/table is registered, each assembly reads only the jobs its
spec declares (and, with them warm, neither simulates nor captures, and
runs the functional machine only for figure 12c's precision sweep), and
every result type survives a JSON round trip bit-exactly.
"""

import json

import pytest

from repro.core.cache import ResultStore
from repro.core.config import default_config
from repro.experiments import (
    ExperimentOptions,
    TablesResult,
    build_runner,
    experiment_names,
    get_experiment,
    run_experiment,
    run_tables,
    serialize,
)
from repro.experiments.figure7 import Figure7Result, LibraryComparison
from repro.experiments.figure8 import Figure8Result, GpuComparison
from repro.experiments.figure9 import Figure9Result, SweepPoint
from repro.experiments.figure10 import Figure10Result, RvvComparison
from repro.experiments.figure11 import Figure11Result, InstructionMix
from repro.experiments.figure12 import (
    DualityCacheComparison,
    Figure12Result,
    Figure12aResult,
    Figure12bResult,
    Figure12cResult,
    PrecisionPoint,
    ScalabilityPoint,
)
from repro.experiments.figure13 import Figure13Result, SchemeComparison
from repro.intrinsics.machine import MVEMachine
from repro.workloads.base import Kernel


ALL_EXPERIMENTS = {
    "tables",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure12a",
    "figure12b",
    "figure12c",
    "figure13",
}


class TestRegistryCompleteness:
    def test_every_figure_and_table_is_registered(self):
        assert set(experiment_names()) == ALL_EXPERIMENTS

    def test_unknown_experiment_raises_with_choices(self):
        with pytest.raises(KeyError, match="figure7"):
            get_experiment("figure99")

    def test_static_experiments_have_no_jobs(self):
        assert get_experiment("tables").jobs() == []
        assert get_experiment("figure12c").jobs() == []


#: functional-machine runs of a warm assembly: figure 12c's precision sweep
#: (also inside the figure12 composite) builds one synthetic trace per
#: precision and declares no jobs
MACHINE_RUNS = {"figure12": 4, "figure12c": 4}


class TestAssemblyReadsItsDeclaredJobs:
    """The spec/assemble contract: with its declared job set warm, an
    experiment's assembly asks the engine only for declared jobs, simulates
    nothing and never captures a kernel (FLOP counts and baseline profiles
    are analytic; traces come from the engine's resolver).  Every
    functional-machine run is counted: only figure 12c's precision sweep
    builds machines, :data:`MACHINE_RUNS` of them."""

    @pytest.mark.parametrize("name", experiment_names())
    def test_assembly_reads_only_declared_jobs(self, name, warm_store_dir, monkeypatch):
        experiment = get_experiment(name)
        runner = build_runner(jobs=1, store=ResultStore(warm_store_dir))
        options = ExperimentOptions(scale=0.1, config=runner.config)
        declared = experiment.jobs(options)
        runner.engine.run_jobs(declared)
        assert runner.engine.computed == 0  # the store was warm

        requested = []
        run_one = runner.engine.run_one

        def recording_run_one(job):
            requested.append(job)
            return run_one(job)

        def forbidden_capture(self, *args, **kwargs):
            raise AssertionError(f"{name} assembly captured {self.name}")

        machines = []
        machine_init = MVEMachine.__init__

        def counting_init(self, *args, **kwargs):
            machines.append(self)
            machine_init(self, *args, **kwargs)

        monkeypatch.setattr(runner.engine, "run_one", recording_run_one)
        monkeypatch.setattr(Kernel, "capture", forbidden_capture)
        monkeypatch.setattr(MVEMachine, "__init__", counting_init)
        result = experiment.assemble(runner, options)

        assert isinstance(result, experiment.result_type)
        assert set(requested) <= set(declared)
        assert runner.engine.computed == 0
        assert len(machines) == MACHINE_RUNS.get(name, 0)


def roundtrip(result):
    """to_dict -> JSON -> from_dict; must compare equal (bit-exact floats)."""
    payload = json.loads(json.dumps(result.to_dict()))
    return type(result).from_dict(payload)


SYNTHETIC_RESULTS = [
    Figure7Result(
        libraries=[
            LibraryComparison(
                library="zlib", dims="1D", speedup=2.5, energy_ratio=8.0,
                idle_fraction=0.4, compute_fraction=0.25, data_fraction=0.35,
                kernels=["adler32", "crc32"],
            )
        ],
        mean_speedup=2.5, mean_energy_ratio=8.0, mean_idle_fraction=0.4,
        mean_compute_fraction=0.25, mean_data_fraction=0.35,
    ),
    Figure8Result(
        kernels=[
            GpuComparison(
                kernel="gemm", time_ratio_with_transfer=9.3,
                time_ratio_kernel_only=2.4, energy_ratio=5.2,
                gpu_transfer_fraction=0.7,
            )
        ],
        mean_time_ratio=9.3, mean_kernel_only_ratio=2.4, mean_energy_ratio=5.2,
    ),
    Figure9Result(
        gemm_points=[
            SweepPoint(kernel="gemm", shape=(32, 32, 32), flops=65536.0,
                       mve_time_ms=0.01, gpu_time_ms=0.05)
        ],
        spmm_points=[
            SweepPoint(kernel="spmm", shape=(32, 64, 32, 8), flops=16384.0,
                       mve_time_ms=0.02, gpu_time_ms=0.04)
        ],
    ),
    Figure10Result(
        kernels=[
            RvvComparison(
                kernel="gemm", dims="2D", time_ratio=0.5,
                vector_instruction_ratio=2.3, scalar_instruction_ratio=2.0,
                mve_breakdown={"idle": 0.4, "compute": 0.3, "data_access": 0.3},
                rvv_breakdown={"idle": 0.6, "compute": 0.2, "data_access": 0.2},
                mve_vector_instructions={"vadd": 10, "vmul": 5},
                rvv_vector_instructions={"vadd": 30, "vmul": 12},
                mve_scalar_instructions=100, rvv_scalar_instructions=200,
                mve_cb_utilization=0.9, rvv_cb_utilization=0.5,
            )
        ],
        mean_speedup_over_rvv=2.0, mean_vector_instruction_reduction=2.3,
        mean_scalar_instruction_reduction=2.0, mean_mve_cb_utilization=0.9,
        mean_rvv_cb_utilization=0.5,
    ),
    Figure11Result(
        kernels=[
            InstructionMix(
                kernel="gemm", dims="2D",
                mve_counts={"memory": 4, "arithmetic": 11},
                rvv_counts={"memory": 12, "arithmetic": 30},
                mve_scalar=100, rvv_scalar=200,
            )
        ],
        mean_vector_reduction=2.3, mean_scalar_reduction=2.0,
    ),
    Figure12Result(
        duality_cache=[
            DualityCacheComparison(
                kernel="gemm", dc_over_mve_time=1.5,
                dc_breakdown={"idle": 0.0, "compute": 0.9, "data_access": 0.1},
            )
        ],
        scalability=[
            ScalabilityPoint(kernel="gemm", num_arrays=8, normalized_time=1.0,
                             breakdown={"idle": 0.4, "compute": 0.3, "data_access": 0.3})
        ],
        precision=[
            PrecisionPoint(precision="FLOAT32", normalized_time=1.0, speedup_over_neon=2.9)
        ],
        mean_dc_slowdown=1.5,
    ),
    Figure12aResult(rows=[
        DualityCacheComparison(kernel="fir_s", dc_over_mve_time=2.2,
                               dc_breakdown={"idle": 0.0, "compute": 0.7, "data_access": 0.3})
    ]),
    Figure12bResult(points=[
        ScalabilityPoint(kernel="fir_l", num_arrays=64, normalized_time=0.2,
                         breakdown={"idle": 0.5, "compute": 0.2, "data_access": 0.3})
    ]),
    Figure12cResult(points=[
        PrecisionPoint(precision="INT16", normalized_time=0.4, speedup_over_neon=5.0)
    ]),
    Figure13Result(schemes=[
        SchemeComparison(
            scheme="bit-serial", time_ratio=0.26,
            mve_breakdown={"idle": 0.4, "compute": 0.3, "data_access": 0.3},
            rvv_breakdown={"idle": 0.6, "compute": 0.2, "data_access": 0.2},
        )
    ]),
]


class TestResultSerialization:
    @pytest.mark.parametrize(
        "result", SYNTHETIC_RESULTS, ids=lambda r: type(r).__name__
    )
    def test_synthetic_roundtrip(self, result):
        restored = roundtrip(result)
        assert restored == result
        # Nested dataclasses are rebuilt as their classes, not dicts.
        assert restored.to_dict() == result.to_dict()

    def test_type_hints_resolve_once_per_class(self, monkeypatch):
        """``from_dict`` resolves each class's (string) annotations once in
        total, not once per nested instance or per call."""
        synthetic = next(r for r in SYNTHETIC_RESULTS if isinstance(r, Figure12Result))
        result = Figure12Result(
            duality_cache=synthetic.duality_cache * 2,
            scalability=synthetic.scalability * 2,
            precision=synthetic.precision * 2,
            mean_dc_slowdown=synthetic.mean_dc_slowdown,
        )
        resolved = []
        get_type_hints = serialize.get_type_hints

        def counting_get_type_hints(cls):
            resolved.append(cls.__name__)
            return get_type_hints(cls)

        monkeypatch.setattr(serialize, "get_type_hints", counting_get_type_hints)
        serialize._field_hints.cache_clear()
        for _ in range(2):
            assert roundtrip(result) == result
        assert sorted(resolved) == [
            "DualityCacheComparison", "Figure12Result", "PrecisionPoint", "ScalabilityPoint",
        ]

    def test_tuple_fields_survive_roundtrip(self):
        point = SweepPoint(kernel="gemm", shape=(128, 64, 64), flops=1.0,
                           mve_time_ms=1.0, gpu_time_ms=2.0)
        assert roundtrip(point).shape == (128, 64, 64)

    def test_tables_roundtrip(self):
        result = run_tables()
        assert roundtrip(result) == result

    def test_real_figure7_roundtrip(self, warm_store_dir):
        """A freshly assembled engine result (numpy-derived floats included)
        survives the JSON round trip bit-exactly."""
        runner = build_runner(jobs=1, store=ResultStore(warm_store_dir))
        options = ExperimentOptions(scale=0.1, config=runner.config)
        figure7 = get_experiment("figure7")
        runner.engine.run_jobs(figure7.jobs(options))
        result = figure7.assemble(runner, options)
        assert roundtrip(result) == result


class TestRunExperiment:
    def test_assembled_result_is_cached_in_store(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = build_runner(jobs=1, store=store)
        options = ExperimentOptions(config=runner.config)
        result = run_experiment("tables", runner=runner, options=options)
        assert isinstance(result, TablesResult)
        key = get_experiment("tables").cache_key(options)
        assert store.load(key) is not None
        # A fresh runner on the same store answers without reassembling.
        again = run_experiment("tables", runner=build_runner(jobs=1, store=store))
        assert again == result

    def test_undecodable_stored_result_is_a_miss_and_is_overwritten(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = build_runner(jobs=1, store=store)
        options = ExperimentOptions(config=runner.config)
        key = get_experiment("tables").cache_key(options)
        store.store(key, {"result": {"bogus": 1}})
        result = run_experiment("tables", runner=runner, options=options)
        assert isinstance(result, TablesResult)
        assert result == run_tables()
        assert store.load(key)["result"] == result.to_dict()

    def test_storeless_runner_stores_nothing(self, monkeypatch, tmp_path):
        """The store is the runner's: a storeless runner, which is what `run
        --no-cache` builds, leaves the default store empty, job results and
        assembled result alike."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        runner = build_runner(jobs=1, store=None)
        run_experiment("figure12a", runner=runner)
        assert runner.engine.computed > 0
        assert len(ResultStore(tmp_path)) == 0

    def test_ignored_scale_does_not_change_cache_key(self):
        """Regression: fixed-shape experiments told the user --scale was
        ignored but still keyed the assembled result on it."""
        figure10 = get_experiment("figure10")
        config = default_config()
        assert figure10.cache_key(
            ExperimentOptions(scale=0.5, config=config)
        ) == figure10.cache_key(ExperimentOptions(scale=0.7, config=config))
        figure7 = get_experiment("figure7")
        assert figure7.cache_key(
            ExperimentOptions(scale=0.5, config=config)
        ) != figure7.cache_key(ExperimentOptions(scale=0.7, config=config))

    def test_engine_backed_experiment_with_streaming(self, tmp_path):
        """run_experiment prefetches the registry job set through the engine,
        streaming per-job progress, and returns the assembled result."""
        store = ResultStore(tmp_path)
        runner = build_runner(jobs=1, store=store)
        seen = []
        result = run_experiment(
            "figure12a",
            runner=runner,
            on_result=lambda job, outcome, completed, total: seen.append(
                (job.kernel, completed, total)
            ),
        )
        expected = get_experiment("figure12a").jobs(
            ExperimentOptions(config=runner.config)
        )
        assert [c for _, c, _ in seen] == list(range(1, len(expected) + 1))
        assert all(total == len(expected) for *_, total in seen)
        assert result == get_experiment("figure12a").assemble(
            runner, ExperimentOptions(config=runner.config)
        )

    def test_config_override_rebinds_runner(self, tmp_path):
        """An explicit options.config produces jobs keyed on that config."""
        runner = build_runner(jobs=1, store=ResultStore(tmp_path))
        wide = default_config().with_arrays(64)
        result = run_experiment(
            "figure12a", runner=runner, options=ExperimentOptions(config=wide)
        )
        default = run_experiment("figure12a", runner=runner)
        assert result != default
