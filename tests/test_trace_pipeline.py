"""Staged trace pipeline regression suite.

Guards the capture-once/replay-many contract end to end:

* the columnar codec round-trips traces exactly (including random-access
  bases, dimension masks, ``None`` immediates and scalar-block notes),
* capture with ``record_values=False`` (the timing path's default) emits
  the identical instruction stream -- and therefore bit-identical
  ``SimulationResult``s -- as a value-recording run,
* a cold multi-config sweep captures each distinct (kernel, kind, kwargs,
  simd_lanes) trace exactly once, locally and under a worker pool, and
  reuses stored captures across engines, and
* grouped capture+replay reproduces the legacy fused per-job path
  bit-for-bit across the job sets of every registered experiment (the
  checked-in goldens must never need regeneration for this refactor).
"""

import json

import pytest

from repro.compiler.pipeline import compile_trace
from repro.core.cache import ResultStore
from repro.core.config import default_config
from repro.core.replay import register_file_for
from repro.core.simulator import replay_trace, simulate_trace
from repro.core.traces import TraceArtifact, TraceSpec, TraceStore
from repro.experiments import ExperimentOptions
from repro.experiments.figure8 import figure8_sweep_spec
from repro.experiments.registry import all_experiments
from repro.experiments.sweep import (
    KernelJob,
    LocalPoolAdapter,
    ParallelSweepEngine,
    SweepSpec,
    execute_job,
)
from repro.intrinsics.machine import TraceStats
from repro.isa.instructions import ScalarBlock
from repro.isa.trace_io import decode_trace, encode_trace
from repro.sram.schemes import SCHEME_NAMES
from repro.workloads import get_kernel_class

from test_config_batch import shrunk_rows_config

#: spans 1D/2D/3D kernels, strided and random (pointer-table) access, the
#: RVV lowering and dimension-masked reductions
CODEC_SPECS = [
    TraceSpec("csum", "mve", 0.25),
    TraceSpec("csum", "rvv", 0.25),
    TraceSpec("gemm", "mve", 0.25),
    TraceSpec("spmm", "mve", 0.25),
    TraceSpec("dct", "mve", 0.125),
    TraceSpec("png_filter_up", "mve", 0.25),
]


def spec_id(spec: TraceSpec) -> str:
    return f"{spec.kernel}-{spec.kind}"


def registered_jobs() -> list[KernelJob]:
    """The deduped job set of every registered experiment."""
    experiments = all_experiments()
    assert len(experiments) == 11
    jobs = []
    for experiment in experiments:
        jobs.extend(experiment.jobs())
    return list(dict.fromkeys(jobs))


def uncached_simulation(trace, config):
    """The seed's fused compile-and-time step: an un-memoized compile for
    ``config``'s register file, then a warm replay of the compiled trace."""
    compiled = compile_trace(trace, register_file=register_file_for(config))
    (result,) = replay_trace(compiled.trace, [config])
    return result, compiled


def legacy_fused(job: KernelJob):
    """The seed pipeline: build the kernel, capture it with full value
    recording, compile (no memo) and simulate in one fused step."""
    kernel = get_kernel_class(job.kernel)(scale=job.scale, **dict(job.kwargs))
    trace = kernel.capture(job.kind, job.config.simd_lanes, record_values=True)
    result, compiled = uncached_simulation(trace, job.config)
    return result, compiled.spill_count


class TestColumnarCodec:
    @pytest.mark.parametrize("spec", CODEC_SPECS, ids=spec_id)
    def test_roundtrip_is_exact(self, spec):
        trace = spec.capture().trace
        payload = encode_trace(trace)
        json.dumps(payload)  # must survive the JSON-only HTTP cache tier
        assert decode_trace(payload) == trace

    def test_roundtrip_survives_compiled_traces(self):
        """Spill instructions (is_spill, compiler-injected vsetwidth) encode
        too, so compiled traces are also serializable."""
        compiled = compile_trace(TraceSpec("dct", "mve", 0.125).capture().trace).trace
        assert decode_trace(encode_trace(compiled)) == compiled

    def test_scalar_notes_and_immediates_survive(self):
        trace = TraceSpec("csum", "mve", 0.25).capture().trace
        trace = [ScalarBlock(count=5, loads=2, stores=1, note="tail loop")] + trace
        decoded = decode_trace(encode_trace(trace))
        assert decoded == trace
        assert decoded[0].note == "tail loop"

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            decode_trace({"codec": "something-else", "entries": 0})

    def test_artifact_payload_roundtrip(self, tmp_path):
        """The TraceStore record round-trips through an actual ResultStore."""
        spec = TraceSpec("spmm", "mve", 0.25)
        artifact = spec.capture()
        store = TraceStore(ResultStore(tmp_path))
        store.save(artifact)
        loaded = store.load(spec)
        assert loaded is not None
        assert loaded.trace == artifact.trace
        assert TraceStats(loaded.trace).as_dict() == TraceStats(artifact.trace).as_dict()

    @pytest.mark.parametrize("corruption", ["not-base64", "truncated-npz", "bitflip"])
    def test_corrupt_stored_payload_is_a_miss(self, tmp_path, corruption):
        """Corruption anywhere in the column data -- bad base64, a truncated
        archive (zipfile.BadZipFile territory), flipped bytes -- is a miss,
        never an exception escaping the store."""
        spec = TraceSpec("csum", "mve", 0.25)
        result_store = ResultStore(tmp_path)
        store = TraceStore(result_store)
        store.save(spec.capture())
        raw = json.loads(result_store._path(spec.cache_key()).read_text())
        blob = raw["trace"]["npz_b64"]
        if corruption == "not-base64":
            raw["trace"]["npz_b64"] = "@@@not-base64@@@"
        elif corruption == "truncated-npz":
            raw["trace"]["npz_b64"] = blob[: len(blob) // 2]
        else:
            import base64

            data = bytearray(base64.b64decode(blob))
            data[len(data) // 2] ^= 0xFF
            raw["trace"]["npz_b64"] = base64.b64encode(bytes(data)).decode()
        result_store._path(spec.cache_key()).write_text(json.dumps(raw))
        assert store.load(spec) is None

    def test_corrupt_stored_payload_degrades_to_recapture(self, tmp_path):
        """The engine recaptures (and heals the store entry) when a cached
        trace payload is corrupt, instead of failing the sweep."""
        store = ResultStore(tmp_path)
        job = KernelJob(kernel="csum", scale=0.25)
        ParallelSweepEngine(jobs=1, store=store).run_one(job)
        trace_path = store._path(job.trace_spec().cache_key())
        raw = json.loads(trace_path.read_text())
        raw["trace"]["npz_b64"] = raw["trace"]["npz_b64"][:40]
        trace_path.write_text(json.dumps(raw))
        # Results stay warm; force a replay by clearing the result record.
        store._path(job.cache_key()).unlink()

        engine = ParallelSweepEngine(jobs=1, store=store)
        outcome = engine.run_one(job)
        assert engine.traces_captured == 1  # recaptured, not crashed
        assert engine.trace_store_hits == 0  # a corrupt record is not a hit
        result, spills = legacy_fused(job)
        assert outcome.result.to_dict() == result.to_dict()


class TestRecordValuesParity:
    """Satellite: the timing path defaults to record_values=False capture;
    values are only needed for ``validate()``."""

    CASES = [
        ("csum", "mve", 0.25),
        ("csum", "rvv", 0.25),
        ("gemm", "mve", 0.25),
        ("spmm", "mve", 0.25),
        ("dct", "mve", 0.125),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_traces_and_results_bit_identical(self, case):
        name, kind, scale = case
        recording = get_kernel_class(name)(scale=scale).capture(kind, record_values=True)
        captured = get_kernel_class(name)(scale=scale).capture(kind, record_values=False)
        assert captured == recording

        with_values, _ = uncached_simulation(recording, default_config())
        without_values, _ = simulate_trace(captured)
        assert without_values.to_dict() == with_values.to_dict()

    def test_every_registered_spec_captures_identically(self):
        """Values-off capture skips Algorithm 1 entirely, so the traces of
        every spec the registered experiments capture must still equal a
        value-recording run's, field for field."""
        specs = dict.fromkeys(job.trace_spec() for job in registered_jobs())
        for spec in specs:
            recording = spec.capture(record_values=True).trace
            assert spec.capture().trace == recording, spec.describe()
            # A mask is recorded only when it masks some element off.
            masks = [getattr(entry, "mask", ()) for entry in recording]
            assert all(not mask or False in mask for mask in masks), spec.describe()

    def test_capture_default_skips_memory_traffic(self):
        """record_values=False must not write kernel outputs (that is what
        distinguishes capture from validate)."""
        import numpy as np

        kernel = get_kernel_class("csum")(scale=0.25)
        kernel.capture("mve")
        captured_output = np.array(kernel.output(), copy=True)
        assert not np.array_equal(captured_output, kernel.reference())
        assert kernel.validate()  # validate still records values


class TestValueFreeCapture:
    """A timing capture builds no lane values: the machine hands out
    value-free handles and never expands Algorithm 1."""

    @pytest.mark.parametrize("case", TestRecordValuesParity.CASES, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_capture_builds_no_values(self, case, monkeypatch):
        from repro.intrinsics import machine as machine_module

        built = []

        class RecordingMDV(machine_module.MDV):
            __slots__ = ()

            def __init__(self, register, dtype, shape, values=None):
                super().__init__(register, dtype, shape, values)
                built.append(values is not None)

        def expanded(instruction):
            raise AssertionError("a value-free capture expanded element addresses")

        monkeypatch.setattr(machine_module, "MDV", RecordingMDV)
        monkeypatch.setattr(machine_module, "element_addresses", expanded)
        name, kind, scale = case
        get_kernel_class(name)(scale=scale).capture(kind)
        assert built and not any(built)

    @pytest.mark.parametrize("dtype", ["FLOAT32", "INT32", "FLOAT16", "INT16"])
    def test_precision_kernel_captures_value_free(self, dtype, monkeypatch):
        """Fig 12c's synthetic kernel is a timing capture like any other:
        its trace equals a recording run's, and it writes no output."""
        from repro.experiments import figure12
        from repro.intrinsics import MVEMachine
        from repro.isa import DataType

        kernel = figure12._PrecisionSweepKernel(DataType[dtype])
        captured = kernel.trace()
        assert not kernel.out.read().any()

        def recording_machine(memory, simd_lanes, record_values):
            return MVEMachine(memory, simd_lanes=simd_lanes, record_values=True)

        monkeypatch.setattr(figure12, "MVEMachine", recording_machine)
        recording_kernel = figure12._PrecisionSweepKernel(DataType[dtype])
        assert captured == recording_kernel.trace()
        assert recording_kernel.out.read().all()  # 1 * 1 + 1 in every element


class TestCaptureCounting:
    """Acceptance: a cold multi-config sweep captures each distinct trace
    exactly once, and warm sweeps capture nothing."""

    def test_cold_figure8_sweep_captures_each_trace_once(self, tmp_path):
        jobs = figure8_sweep_spec(ExperimentOptions()).jobs()
        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        engine.run_jobs(jobs)
        distinct_specs = {job.trace_spec() for job in jobs}
        assert set(engine.trace_captures) == distinct_specs
        assert all(count == 1 for count in engine.trace_captures.values())

        warm = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        warm.run_jobs(jobs)
        assert warm.computed == 0
        assert warm.traces_captured == 0

    def test_multi_config_group_shares_one_capture(self, tmp_path):
        """One kernel swept over every compute scheme: four timing runs,
        one capture, results identical to the fused path."""
        jobs = SweepSpec(
            name="schemes", kernels=[("gemm", {"scale": 0.25})], schemes=SCHEME_NAMES
        ).jobs()
        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert engine.computed == len(SCHEME_NAMES)
        assert engine.traces_captured == 1
        for job, outcome in outcomes.items():
            result, spills = legacy_fused(job)
            assert outcome.result.to_dict() == result.to_dict()
            assert outcome.spills == spills

    def test_parallel_pool_captures_once_per_group(self, tmp_path):
        jobs = SweepSpec(
            name="pooled",
            kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25})],
            schemes=("bit-serial", "bit-parallel"),
        ).jobs()
        engine = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert len(outcomes) == 4
        assert engine.traces_captured == 2  # one capture per kernel group
        assert all(count == 1 for count in engine.trace_captures.values())
        serial = ParallelSweepEngine(jobs=1).run_jobs(jobs)
        for job in jobs:
            assert outcomes[job].result.to_dict() == serial[job].result.to_dict()

    def test_stored_capture_answers_other_engines(self, tmp_path):
        """A trace captured for one scheme answers a different scheme's cold
        job from the store: no second functional-machine run."""
        store = ResultStore(tmp_path)
        first = ParallelSweepEngine(jobs=1, store=store)
        first.run_one(KernelJob(kernel="gemm", scale=0.25))
        assert first.traces_captured == 1

        second = ParallelSweepEngine(jobs=1, store=store)
        bit_parallel = KernelJob(
            kernel="gemm", scale=0.25, config=default_config().with_scheme("bit-parallel")
        )
        outcome = second.run_one(bit_parallel)
        assert second.traces_captured == 0
        assert second.trace_store_hits == 1
        result, spills = legacy_fused(bit_parallel)
        assert outcome.result.to_dict() == result.to_dict()
        assert outcome.spills == spills

    def test_resolved_groups_split_per_partition_for_the_pool(self, tmp_path, monkeypatch):
        """A pooled batch ships one task per batched-replay partition of a
        group whose trace is in hand, and one whole task per group that
        still needs its capture (which its worker runs, once)."""
        submitted = []
        submit = LocalPoolAdapter._submit

        def spy(adapter, pool, task):
            submitted.append(task)
            return submit(adapter, pool, task)

        monkeypatch.setattr(LocalPoolAdapter, "_submit", spy)
        # Two kernels, each over two register-file geometries at one lane
        # count: one trace spec and two compiled-kernel partitions apiece.
        jobs = [
            KernelJob(kernel=kernel, scale=0.25, config=config)
            for kernel in ("csum", "memcpy")
            for config in (default_config(), shrunk_rows_config())
        ]
        specs = dict.fromkeys(job.trace_spec() for job in jobs)
        assert len(specs) == 2
        serial = ParallelSweepEngine(jobs=1).run_jobs(jobs)

        store = ResultStore(tmp_path / "warm")
        warmer = ParallelSweepEngine(jobs=1, store=store)
        for spec in specs:
            warmer.captured_trace(spec)
        warm = ParallelSweepEngine(jobs=4, store=store)
        with warm:
            outcomes = warm.run_jobs(jobs)
        assert [len(group) for _, group, _ in submitted] == [1, 1, 1, 1]
        assert warm.trace_store_hits == 2
        assert warm.traces_captured == 0
        for job in jobs:
            assert outcomes[job].result.to_dict() == serial[job].result.to_dict()

        submitted.clear()
        cold = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path / "cold"))
        with cold:
            outcomes = cold.run_jobs(jobs)
        assert [len(group) for _, group, _ in submitted] == [2, 2]
        assert cold.trace_captures == {spec: 1 for spec in specs}
        for job in jobs:
            assert outcomes[job].result.to_dict() == serial[job].result.to_dict()

    def test_pooled_engine_without_store_memoizes_captures(self):
        """Regression: with --no-cache and a worker pool there is no store
        to answer later trace lookups, so the parent must memoize the
        captured traces -- a follow-up batch or captured_trace() call may
        never re-run the functional machine."""
        jobs = SweepSpec(
            name="nostore",
            kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25})],
        ).jobs()
        engine = ParallelSweepEngine(jobs=4, store=None)
        engine.run_jobs(jobs)
        assert engine.traces_captured == 2
        for job in jobs:
            engine.captured_trace(job.trace_spec())
        assert engine.traces_captured == 2  # answered from the trace memo

    def test_captured_trace_api_shares_engine_cache(self, tmp_path):
        """figure12a's path: captured_trace answers from the engine memo /
        store and never re-runs the functional machine for a traced job."""
        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        job = KernelJob(kernel="gemm", scale=0.25)
        engine.run_one(job)
        assert engine.traces_captured == 1
        trace = engine.captured_trace(job.trace_spec())
        assert engine.traces_captured == 1  # memo/store hit, no re-capture
        assert trace == TraceSpec("gemm", "mve", 0.25).capture().trace


class TestStagedParityAcrossExperiments:
    """Satellite: grouped capture+replay reproduces the legacy fused path
    bit-for-bit across the job sets of all registered experiments."""

    @pytest.fixture(scope="class")
    def distinct_jobs(self):
        return registered_jobs()

    def test_staged_engine_matches_fused_path_bit_for_bit(
        self, distinct_jobs, tmp_path_factory
    ):
        store = ResultStore(tmp_path_factory.mktemp("staged-parity"))
        engine = ParallelSweepEngine(jobs=1, store=store)
        staged = engine.run_jobs(distinct_jobs)

        # Every distinct trace captured exactly once across all experiments.
        assert set(engine.trace_captures) == {j.trace_spec() for j in distinct_jobs}
        assert all(count == 1 for count in engine.trace_captures.values())
        assert engine.computed == len(distinct_jobs)

        for job in distinct_jobs:
            result, spills = legacy_fused(job)
            assert staged[job].result.to_dict() == result.to_dict(), job.describe()
            assert staged[job].spills == spills, job.describe()
