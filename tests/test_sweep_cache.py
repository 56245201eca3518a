"""Tests for the sweep engine, the persistent result store and runner keying."""

import dataclasses
import json
import os
import signal
import time

import pytest

from repro.cli import main as cli_main
from repro.core.cache import CACHE_SCHEMA_VERSION, ResultStore, stable_hash
from repro.core.config import default_config
from repro.experiments import ExperimentRunner
from repro.experiments.sweep import (
    KernelJob,
    LocalPoolAdapter,
    ParallelSweepEngine,
    SweepSpec,
    default_job_count,
)

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
        assert (
            SMALL_JOB.cache_key()
            != dataclasses.replace(SMALL_JOB, scheme_name="bit-parallel").cache_key()
        )
        assert SMALL_JOB.cache_key() != dataclasses.replace(SMALL_JOB, kind="rvv").cache_key()

    def test_stable_hash_is_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})


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

    def test_warm_cache_is_at_least_5x_faster(self, tmp_path):
        """The acceptance-criterion demonstration, on a single sizeable job."""
        store = ResultStore(tmp_path)
        job = KernelJob(kernel="gemm", scale=0.5)

        start = time.perf_counter()
        ParallelSweepEngine(jobs=1, store=store).run_one(job)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        outcome = ParallelSweepEngine(jobs=1, store=store).run_one(job)
        warm_s = time.perf_counter() - start

        assert outcome.source == "disk"
        print(f"\ncold {cold_s * 1e3:.1f} ms vs warm {warm_s * 1e3:.1f} ms "
              f"({cold_s / max(warm_s, 1e-9):.0f}x)")
        assert warm_s * 5 <= cold_s


def pool_jobs():
    """Two kernels x two schemes: two resolved trace groups, so the pool
    path (which requires more than one task) always engages."""
    return [
        KernelJob(kernel=kernel, scale=0.25, scheme_name=scheme)
        for kernel in ("csum", "gemm")
        for scheme in ("bit-serial", "bit-parallel")
    ]


def drop_results_keep_traces(store_root):
    """Delete every stored result but the pool jobs' trace payloads, so the
    next batch replays (results cold) from stored captures (traces warm)."""
    trace_keys = {job.trace_spec().cache_key() for job in pool_jobs()}
    for path in store_root.glob("*/*.json"):
        if path.stem not in trace_keys:
            path.unlink()


def outcome_map(outcomes):
    return {
        job.cache_key(): (out.result.to_dict(), out.spills)
        for job, out in outcomes.items()
    }


def stream_batch(engine):
    """One pooled batch through ``stream_jobs``, which leaves the engine
    memo empty so the next batch simulates again; returns job -> outcome."""
    collected = {}
    engine.stream_jobs(
        pool_jobs(), on_result=lambda job, out, *_: collected.__setitem__(job, out)
    )
    return collected


class TestPersistentPool:
    """The local pool outlives batches, is replaced after its workers die,
    and closes with the engine."""

    @pytest.fixture(scope="class")
    def serial_expected(self):
        return outcome_map(ParallelSweepEngine(jobs=1).run_jobs(pool_jobs()))

    @staticmethod
    def pooled_engine(store_root):
        ParallelSweepEngine(jobs=1, store=ResultStore(store_root)).run_jobs(pool_jobs())
        drop_results_keep_traces(store_root)
        adapter = LocalPoolAdapter(jobs=2)
        return adapter, ParallelSweepEngine(store=ResultStore(store_root), adapter=adapter)

    def test_killed_pool_workers_mid_run_recover(self, tmp_path, serial_expected):
        adapter, engine = self.pooled_engine(tmp_path)
        try:
            assert outcome_map(stream_batch(engine)) == serial_expected
            pool = adapter._pool
            assert pool is not None
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
            drop_results_keep_traces(tmp_path)
            assert outcome_map(stream_batch(engine)) == serial_expected
            # The broken pool was recreated, not limped along or leaked.
            assert adapter._pool is not None and adapter._pool is not pool
        finally:
            engine.close()
        assert adapter._pool is None

    def test_pool_survives_batches_and_counts_reuse(self, tmp_path, serial_expected):
        adapter, engine = self.pooled_engine(tmp_path)
        with engine:
            assert outcome_map(stream_batch(engine)) == serial_expected
            pool = adapter._pool
            assert pool is not None and engine.pool_reuses == 0
            drop_results_keep_traces(tmp_path)
            stream_batch(engine)
            assert adapter._pool is pool
            assert engine.pool_reuses >= 1
        assert adapter._pool is None


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


class TestBaselineMemo:
    def test_run_neon_answers_from_memo_not_store(self, tmp_path):
        """Regression: run_neon/run_gpu re-read and re-deserialized the
        persistent store on every call."""
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(engine=ParallelSweepEngine(jobs=1, store=store))
        first = runner.run_neon("csum", scale=0.25)
        lookups = store.hits + store.misses
        assert runner.run_neon("csum", scale=0.25) == first
        assert runner.run_gpu("csum", scale=0.25) == runner.run_gpu("csum", scale=0.25)
        assert store.hits + store.misses == lookups + 1  # one gpu miss, no re-reads

    def test_run_neon_honours_config_override(self):
        runner = ExperimentRunner()
        slow = dataclasses.replace(default_config(), frequency_ghz=1.4)
        base = runner.run_neon("csum", scale=0.25)
        slowed = runner.run_neon("csum", scale=0.25, config=slow)
        assert slowed.frequency_ghz == 1.4
        assert slowed.time_ms > base.time_ms

    def test_run_gpu_honours_config_keying(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(engine=ParallelSweepEngine(jobs=1, store=store))
        wide = default_config().with_arrays(64)
        runner.run_gpu("csum", scale=0.25)
        entries = len(store)
        runner.run_gpu("csum", scale=0.25, config=wide)
        assert len(store) == entries + 1  # distinct config, distinct entry


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

    def test_named_specs_match_figure_loop_jobs(self):
        """The CLI's named sweeps and the figure loops share one job set."""
        from repro.experiments.figure10 import (
            FIGURE10_KERNELS,
            figure10_sweep_spec,
            kernel_run_parameters,
        )
        from repro.experiments.figure13 import FIGURE13_KERNELS, figure13_sweep_spec
        from repro.sram.schemes import SCHEME_NAMES

        runner = ExperimentRunner()
        assert set(figure10_sweep_spec(runner.config).jobs()) == {
            runner.job(name, kind, **kernel_run_parameters(name))
            for name, _ in FIGURE10_KERNELS
            for kind in ("mve", "rvv")
        }
        assert set(figure13_sweep_spec(base_config=runner.config).jobs()) == {
            runner.job(name, kind, scheme_name=scheme, **kernel_run_parameters(name))
            for scheme in SCHEME_NAMES
            for name in FIGURE13_KERNELS
            for kind in ("mve", "rvv")
        }

    def test_kernel_run_exposes_executed_kernel(self):
        """KernelRun.kernel lazily executes the lowering, so post-run state
        (kernel.output()) is populated exactly as on the pre-engine path."""
        import numpy as np

        run = ExperimentRunner().run_mve("csum", scale=0.25)
        output = run.kernel.output()
        np.testing.assert_array_equal(np.asarray(output), np.asarray(run.kernel.reference()))

    def test_job_normalizes_scheme_into_config(self):
        # Directly-constructed jobs hash identically to spec/runner jobs
        # for the same simulation (scheme_name wins over config.scheme_name).
        direct = KernelJob(kernel="csum", scheme_name="bit-parallel")
        (from_spec,) = SweepSpec(
            kernels=[("csum", {"scale": 0.5})], schemes=("bit-parallel",)
        ).jobs()
        assert direct == from_spec
        assert direct.cache_key() == from_spec.cache_key()


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
