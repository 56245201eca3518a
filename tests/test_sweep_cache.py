"""Tests for the sweep engine, the persistent result store and runner keying."""

import dataclasses
import json
import math
import os
import re
import signal

import pytest

from repro.cli import main as cli_main
from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    ResultStore,
    code_fingerprint,
    config_digest,
    stable_hash,
)
from repro.core.config import MachineConfig, default_config
from repro.core.simulator import simulate_trace
from repro.core.traces import TraceSpec
from repro.experiments import ExperimentRunner
from repro.experiments.registry import ExperimentOptions, all_experiments, get_experiment
from repro.experiments.sweep import (
    KernelJob,
    ParallelSweepEngine,
    SweepSpec,
    default_job_count,
)
from repro.workloads import rvv_kernel_names

SMALL_JOB = KernelJob(kernel="csum", scale=0.25)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"result": {"total_cycles": 12.5}, "spills": 3}
        store.store("ab" + "0" * 62, payload)
        loaded = store.load("ab" + "0" * 62)
        assert loaded["result"] == payload["result"]
        assert loaded["spills"] == 3
        assert loaded["schema"] == CACHE_SCHEMA_VERSION
        assert len(store) == 1

    def test_miss_on_absent_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load("cd" + "0" * 62) is None
        assert store.misses == 1

    def test_corrupted_entry_is_dropped_and_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ParallelSweepEngine(jobs=1, store=store)
        outcome = engine.run_one(SMALL_JOB)
        path = store._path(SMALL_JOB.cache_key())
        assert path.exists()

        # Truncate the entry mid-payload, as an interrupted write would.
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        fresh = ParallelSweepEngine(jobs=1, store=store)
        recomputed = fresh.run_one(SMALL_JOB)
        assert recomputed.source == "computed"
        assert recomputed.result.to_dict() == outcome.result.to_dict()
        # The recomputed result was re-persisted over the corrupted file.
        assert json.loads(path.read_text())["spills"] == recomputed.spills

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = SMALL_JOB.cache_key()
        store.store(key, {"result": {}, "spills": 0})
        raw = json.loads(store._path(key).read_text())
        raw["schema"] = CACHE_SCHEMA_VERSION + 1
        store._path(key).write_text(json.dumps(raw))
        assert store.load(key) is None

    def test_clear_removes_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        ParallelSweepEngine(jobs=1, store=store).run_one(SMALL_JOB)
        # A staged run persists two records: the simulation result and the
        # capture-stage trace artifact it replayed.
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


class TestCacheKeying:
    def test_key_depends_on_every_config_field(self):
        base = SMALL_JOB.cache_key()
        variants = [
            dataclasses.replace(SMALL_JOB.config, float_latency_factor=3.0),
            dataclasses.replace(SMALL_JOB.config, sram_cycle_multiplier=2.0),
            dataclasses.replace(SMALL_JOB.config, l2_compute_ways=2),
            SMALL_JOB.config.with_arrays(16),
        ]
        keys = {dataclasses.replace(SMALL_JOB, config=cfg).cache_key() for cfg in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_key_depends_on_kernel_parameters(self):
        assert SMALL_JOB.cache_key() != dataclasses.replace(SMALL_JOB, scale=0.5).cache_key()
        bit_parallel = SMALL_JOB.config.with_scheme("bit-parallel")
        assert (
            SMALL_JOB.cache_key()
            != dataclasses.replace(SMALL_JOB, config=bit_parallel).cache_key()
        )
        assert SMALL_JOB.cache_key() != dataclasses.replace(SMALL_JOB, kind="rvv").cache_key()

    def test_stable_hash_is_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_keys_equal_keys_built_from_a_fresh_asdict(self):
        """``config_digest`` is built once per config, yet every registered
        job's and experiment's key is the one a fresh ``dataclasses.asdict``
        gives, so stores written before stay warm."""
        fingerprint = code_fingerprint()
        for experiment in all_experiments():
            for options in (ExperimentOptions(), ExperimentOptions(scale=1.0)):
                encoded = {
                    "scale": options.scale,
                    "config": dataclasses.asdict(options.resolved_config()),
                }
                if not experiment.uses_scale:
                    del encoded["scale"]
                assert experiment.cache_key(options) == stable_hash(
                    {
                        "experiment": experiment.name,
                        "fingerprint": fingerprint,
                        "options": encoded,
                    }
                )
            for job in experiment.jobs():
                assert job.cache_key() == stable_hash(
                    {
                        "fingerprint": fingerprint,
                        "kernel": job.kernel,
                        "kind": job.kind,
                        "scale": job.scale,
                        "kwargs": list(job.kwargs),
                        "config": dataclasses.asdict(job.config),
                    }
                ), job.describe()

    def test_config_digest_hands_out_its_own_dicts(self):
        config = default_config()
        digest = config_digest(config)
        digest["scheme_name"] = "bit-parallel"
        digest["engine"]["array"]["rows"] = 1
        assert config_digest(config) == dataclasses.asdict(config)


def request_keys(request) -> tuple:
    """Every store key a request addresses."""
    if isinstance(request, KernelJob):
        return request.cache_key(), request.trace_spec().cache_key()
    if isinstance(request, ExperimentOptions):
        return (get_experiment("figure7").cache_key(request),)
    if isinstance(request, MachineConfig):
        return (config_digest(request),)
    return (request.cache_key(),)


class TestRequestModel:
    """The request types canonicalize and validate themselves: equal
    requests are equal objects with equal keys, and a bad one raises
    ``ValueError`` from its constructor, with the one message every front
    end shows."""

    @pytest.mark.parametrize(
        "left, right",
        [
            (lambda: KernelJob("csum", scale=1), lambda: KernelJob("csum", scale=1.0)),
            (
                lambda: MachineConfig(scheme_name="bs"),
                lambda: MachineConfig(scheme_name="bit-serial"),
            ),
            (lambda: ExperimentOptions(scale=1), lambda: ExperimentOptions(scale=1.0)),
            (
                lambda: TraceSpec("gemm", kwargs=(("n", 64), ("k", 32))),
                lambda: TraceSpec("gemm", kwargs={"k": 32, "n": 64}),
            ),
        ],
        ids=["int-scale", "scheme-alias", "options-int-scale", "kwargs-order"],
    )
    def test_equal_requests_share_one_identity(self, left, right):
        left, right = left(), right()
        assert left == right and hash(left) == hash(right)
        assert request_keys(left) == request_keys(right)

    def test_fields_are_canonical(self):
        job = KernelJob("gemm", scale=1, kwargs={"n": 64, "k": 32})
        assert type(job.scale) is float and job.kwargs == (("k", 32), ("n", 64))
        assert MachineConfig(scheme_name="BIT_PARALLEL").scheme_name == "bit-parallel"
        assert type(ExperimentOptions(scale=1).scale) is float

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: KernelJob("nope"), "unknown kernel 'nope'; available: "),
            (
                lambda: KernelJob("memcpy", kind="rvv"),
                f"memcpy has no RVV lowering; kernels with one: {', '.join(rvv_kernel_names())}",
            ),
            (lambda: TraceSpec("csum", kind="avx"), "unknown kind 'avx' (choose from mve, rvv)"),
            (lambda: MachineConfig(scheme_name="nope"), "unknown scheme 'nope' (choose from "),
            *[
                (lambda scale=scale: KernelJob("csum", scale=scale), "scale must be a number > 0")
                for scale in (0, -1, math.nan, math.inf)
            ],
            *[
                (lambda scale=scale: ExperimentOptions(scale=scale), "scale must be a number > 0")
                for scale in (0, -1, math.nan, math.inf)
            ],
            (lambda: TraceSpec("csum", simd_lanes=0), "simd_lanes must be an integer > 0 (got 0)"),
        ],
        ids=[
            "unknown-kernel", "no-rvv-lowering", "unknown-kind", "unknown-scheme",
            "scale-0", "scale-neg", "scale-nan", "scale-inf",
            "options-scale-0", "options-scale-neg", "options-scale-nan", "options-scale-inf",
            "lanes-0",
        ],
    )
    def test_bad_request_fails_at_construction(self, build, message):
        """Regression: each of these built fine and failed frames later --
        a KeyError in capture, a ValueError in replay, a ValueError or
        OverflowError in the kernel, a NotImplementedError from the RVV
        lowering (mid-batch, on a pool) -- or, for the options, never."""
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


class TestParallelSweepEngine:
    def test_memo_and_disk_sources(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ParallelSweepEngine(jobs=1, store=store)
        assert engine.run_one(SMALL_JOB).source == "computed"
        assert engine.run_one(SMALL_JOB).source == "memo"
        assert ParallelSweepEngine(jobs=1, store=store).run_one(SMALL_JOB).source == "disk"

    def test_no_cache_bypasses_store(self, tmp_path):
        # store=None is the single off-switch for persistence.
        engine = ParallelSweepEngine(jobs=1, store=None)
        engine.run_one(SMALL_JOB)
        assert len(ResultStore(tmp_path)) == 0
        # And nothing is read back either: a fresh engine recomputes.
        fresh = ParallelSweepEngine(jobs=1, store=None)
        assert fresh.run_one(SMALL_JOB).source == "computed"

    def test_parallel_run_matches_serial(self, tmp_path):
        spec = SweepSpec(
            name="mini",
            kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25}),
                     ("gemm", {"scale": 0.25}), ("adler32", {"scale": 0.25})],
        )
        serial = ParallelSweepEngine(jobs=1).run_jobs(spec.jobs())
        parallel = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path)).run_jobs(spec.jobs())
        assert serial.keys() == parallel.keys()
        for job, outcome in serial.items():
            assert parallel[job].result.to_dict() == outcome.result.to_dict()
            assert parallel[job].spills == outcome.spills

    def test_warm_cache_answers_without_simulating(self, tmp_path):
        """A fresh engine on a warm store recalls a sizeable job from disk:
        no simulation, no capture, and the cold result bit for bit."""
        store = ResultStore(tmp_path)
        job = KernelJob(kernel="gemm", scale=0.5)
        cold = ParallelSweepEngine(jobs=1, store=store).run_one(job)

        warm_engine = ParallelSweepEngine(jobs=1, store=store)
        warm = warm_engine.run_one(job)
        assert warm.source == "disk"
        assert warm_engine.computed == 0
        assert warm_engine.traces_captured == 0
        assert warm.result.to_dict() == cold.result.to_dict()


#: two batches over the same two traces: each batch sweeps new schemes, so
#: it simulates again on the same engine
SCHEME_BATCHES = (("bit-serial", "bit-parallel"), ("bit-hybrid", "associative"))


def pool_jobs(schemes):
    """Two kernels x two schemes: two trace groups, so the pool path (which
    requires more than one task) always engages."""
    return [
        KernelJob(kernel=kernel, scale=0.25, config=default_config().with_scheme(scheme))
        for kernel in ("csum", "gemm")
        for scheme in schemes
    ]


def outcome_map(outcomes):
    return {
        job.cache_key(): (out.result.to_dict(), out.spills)
        for job, out in outcomes.items()
    }


class TestPersistentPool:
    """The local pool outlives batches, is replaced after its workers die,
    and closes with the engine."""

    @pytest.fixture(scope="class")
    def serial_expected(self):
        jobs = [job for schemes in SCHEME_BATCHES for job in pool_jobs(schemes)]
        return outcome_map(ParallelSweepEngine(jobs=1).run_jobs(jobs))

    @staticmethod
    def batch(engine, schemes, serial_expected):
        """Run one pooled batch; True when it matches the serial results."""
        jobs = pool_jobs(schemes)
        expected = {job.cache_key(): serial_expected[job.cache_key()] for job in jobs}
        return outcome_map(engine.run_jobs(jobs)) == expected

    def test_killed_pool_workers_mid_run_recover(self, tmp_path, serial_expected):
        engine = ParallelSweepEngine(jobs=2, store=ResultStore(tmp_path))
        first, second = SCHEME_BATCHES
        try:
            assert self.batch(engine, first, serial_expected)
            pool = engine.pool._executor
            assert pool is not None
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
            assert self.batch(engine, second, serial_expected)
            assert engine.computed == 8  # the second batch really simulated
            # The broken pool was recreated, not limped along or leaked.
            executor = engine.pool._executor
            assert executor is not None and executor is not pool
        finally:
            engine.close()
        assert engine.pool._executor is None

    def test_pool_survives_batches_and_counts_reuse(self, tmp_path, serial_expected):
        engine = ParallelSweepEngine(jobs=2, store=ResultStore(tmp_path))
        first, second = SCHEME_BATCHES
        with engine:
            assert self.batch(engine, first, serial_expected)
            pool = engine.pool._executor
            assert pool is not None and engine.pool_reuses == 0
            assert self.batch(engine, second, serial_expected)
            assert engine.computed == 8
            assert engine.pool._executor is pool
            assert engine.pool_reuses >= 1
        assert engine.pool._executor is None


class TestDefaultJobCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        assert default_job_count() == 3

    def test_invalid_env_warns_and_falls_back(self, monkeypatch):
        """Regression: a non-integer REPRO_SWEEP_JOBS used to raise a bare
        ValueError deep inside the engine."""
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_SWEEP_JOBS"):
            assert default_job_count() == max(1, os.cpu_count() or 1)

    def test_zero_is_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "0")
        assert default_job_count() == 1


class TestStreaming:
    SPEC = SweepSpec(
        name="stream",
        kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25}),
                 ("adler32", {"scale": 0.25})],
    )

    def test_serial_on_result_streams_and_persists_incrementally(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ParallelSweepEngine(jobs=1, store=store)
        seen = []

        def on_result(job, outcome, completed, total):
            # Partial results are persisted before the callback fires.
            assert store.load(job.cache_key()) is not None
            seen.append((job, outcome.source, completed, total))

        outcomes = engine.run_jobs(self.SPEC.jobs(), on_result=on_result)
        assert [c for *_, c, _ in seen] == [1, 2, 3]
        assert all(total == 3 for *_, total in seen)
        assert all(source == "computed" for _, source, *_ in seen)
        assert {job for job, *_ in seen} == set(outcomes)

    def test_cached_jobs_stream_first(self, tmp_path):
        store = ResultStore(tmp_path)
        ParallelSweepEngine(jobs=1, store=store).run_jobs(self.SPEC.jobs()[:2])
        engine = ParallelSweepEngine(jobs=1, store=store)
        sources = []
        engine.run_jobs(
            self.SPEC.jobs(),
            on_result=lambda job, outcome, completed, total: sources.append(outcome.source),
        )
        assert sources == ["disk", "disk", "computed"]

    def test_parallel_on_result_covers_every_job(self, tmp_path):
        engine = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path))
        seen = []
        outcomes = engine.run_jobs(
            self.SPEC.jobs(),
            on_result=lambda job, outcome, completed, total: seen.append((job, completed)),
        )
        # Completion order is arbitrary, but the progress counter is dense
        # and every job is reported exactly once.
        assert sorted(c for _, c in seen) == [1, 2, 3]
        assert {job for job, _ in seen} == set(outcomes)
        serial = ParallelSweepEngine(jobs=1).run_jobs(self.SPEC.jobs())
        for job, outcome in serial.items():
            assert outcomes[job].result.to_dict() == outcome.result.to_dict()

    def test_run_jobs_preserves_request_order(self, tmp_path):
        engine = ParallelSweepEngine(jobs=4, store=ResultStore(tmp_path))
        jobs = self.SPEC.jobs()
        assert list(engine.run_jobs(jobs)) == jobs

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_callback_oserror_propagates_without_resimulation(self, tmp_path, jobs):
        """Regression: an OSError raised by the on_result callback (e.g. a
        BrokenPipeError from a closed progress stream) must propagate, not be
        mistaken for a broken worker pool and trigger silent re-simulation."""
        engine = ParallelSweepEngine(jobs=jobs, store=ResultStore(tmp_path))

        def explode(job, outcome, completed, total):
            raise BrokenPipeError("progress stream closed")

        with pytest.raises(BrokenPipeError):
            engine.run_jobs(self.SPEC.jobs(), on_result=explode)
        assert engine.computed == 1  # failed after the first emit, no redo


class TestBaselines:
    def test_baselines_leave_the_store_untouched(self, tmp_path):
        """The analytic baselines are computed on every call, never stored
        or looked up: they cost less than the store round trip."""
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(engine=ParallelSweepEngine(jobs=1, store=store))
        assert runner.run_neon("csum", scale=0.25) == runner.run_neon("csum", scale=0.25)
        assert runner.run_gpu("csum", scale=0.25) == runner.run_gpu("csum", scale=0.25)
        assert len(store) == 0
        assert store.hits + store.misses == 0

    def test_run_neon_honours_config_override(self):
        runner = ExperimentRunner()
        slow = dataclasses.replace(default_config(), frequency_ghz=1.4)
        base = runner.run_neon("csum", scale=0.25)
        slowed = runner.run_neon("csum", scale=0.25, config=slow)
        assert slowed.frequency_ghz == 1.4
        assert slowed.time_ms > base.time_ms


class TestSweepSpec:
    def test_cartesian_expansion(self):
        spec = SweepSpec(
            kernels=[("csum", {"scale": 0.25}), ("gemm", {"scale": 0.25})],
            kinds=("mve", "rvv"),
            schemes=("bit-serial", "bit-parallel"),
            array_counts=(16, 32),
        )
        jobs = spec.jobs()
        assert len(jobs) == 2 * 2 * 2 * 2
        assert len(set(jobs)) == len(jobs)

    def test_scheme_axis_normalizes_config(self):
        spec = SweepSpec(kernels=[("csum", {})], schemes=("bit-parallel",))
        (job,) = spec.jobs()
        assert job.config.scheme_name == "bit-parallel"

    def test_job_simulates_its_configs_scheme(self):
        """Regression: a job's own ``scheme_name`` field (default
        bit-serial) overrode its config's, so a job on a bit-parallel
        config simulated and keyed bit-serial."""
        bit_parallel = default_config().with_scheme("bit-parallel")
        direct = KernelJob(kernel="csum", config=bit_parallel)
        (from_spec,) = SweepSpec(
            kernels=[("csum", {"scale": 0.5})], schemes=("bit-parallel",)
        ).jobs()
        assert direct.scheme_name == "bit-parallel"
        assert direct == from_spec
        assert direct.cache_key() == from_spec.cache_key()
        trace = direct.trace_spec().capture().trace
        outcome = ParallelSweepEngine().run_one(direct)
        simulated = outcome.result.to_dict()
        assert simulated == simulate_trace(trace, config=bit_parallel)[0].to_dict()
        assert simulated != simulate_trace(trace)[0].to_dict()

    def test_schemes_default_keeps_the_base_configs_scheme(self):
        """Regression: ``schemes`` defaulted to bit-serial and overrode the
        base config's scheme, as ``array_counts=None`` never did its
        arrays."""
        bit_parallel = default_config().with_scheme("bit-parallel")
        (job,) = SweepSpec(kernels=[("csum", {})], base_config=bit_parallel).jobs()
        assert job.config == bit_parallel and job.scheme_name == "bit-parallel"


class TestRunnerKeying:
    """Regression: the seed runner keyed only on engine.num_arrays, so any
    other config change (cache geometry, latency factors, ...) returned a
    stale result from the first config it saw."""

    def test_distinct_configs_produce_distinct_results(self):
        runner = ExperimentRunner()
        slow = dataclasses.replace(default_config(), float_latency_factor=6.0)
        fast = runner.run_mve("gemm", scale=0.25)
        slowed = runner.run_mve("gemm", scale=0.25, config=slow)
        assert slowed.result.total_cycles > fast.result.total_cycles

    def test_distinct_sram_speeds_produce_distinct_results(self):
        runner = ExperimentRunner()
        slow_sram = dataclasses.replace(default_config(), sram_cycle_multiplier=4.0)
        fast = runner.run_mve("csum", scale=0.25)
        slowed = runner.run_mve("csum", scale=0.25, config=slow_sram)
        assert slowed.result.total_cycles > fast.result.total_cycles


class TestSweepCli:
    def test_run_list_and_clear_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["--cache-dir", cache_dir, "run", "--kernels", "csum,memcpy",
                "--scale", "0.25", "--jobs", "1"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out and "2 simulated" in out

        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 2 from cache" in out

        assert cli_main(["--cache-dir", cache_dir, "list"]) == 0
        assert "Named sweeps" in capsys.readouterr().out

        # 2 simulation results + 2 capture-stage trace artifacts.
        assert cli_main(["--cache-dir", cache_dir, "cache", "clear"]) == 0
        assert "removed 4" in capsys.readouterr().out

    def test_run_no_cache_leaves_store_empty(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["--cache-dir", str(cache_dir), "run", "--kernels", "csum",
                "--scale", "0.25", "--jobs", "1", "--no-cache"]
        assert cli_main(argv) == 0
        assert "cache disabled" in capsys.readouterr().out
        assert not cache_dir.exists() or not any(cache_dir.glob("*/*.json"))

    def test_unknown_kernel_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["--cache-dir", str(tmp_path), "run", "--kernels", "nope"])
