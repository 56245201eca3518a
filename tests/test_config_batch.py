"""Parity and counter suite for the config-batched replay engine.

Batched replay is the only production timing path (a single config is a
batch of one), so its contract is pinned against the per-config reference
simulator of ``tests/oracle.py``, bit-for-bit:

* ``simulate_trace_batch`` reproduces the oracle exactly -- the full
  ``SimulationResult`` dict including cache/DRAM statistics, plus compile
  spill counts -- across the compute-scheme axis, the cache geometry axis,
  the DRAM timing axis and mixed axes that force a compiled-kernel split
  inside one batch, and ``replay_trace`` does the same for cold
  (``warm_cache=False``) replays of compiled traces and for uncompiled
  Duality Cache traces,
* the sweep engine's replays match the oracle over the deduped job sets of
  every registered experiment, and
* the engine counters stay honest: a warm sweep counts one trace-store hit
  per distinct spec regardless of ``--jobs``, and an eight-config
  single-trace sweep replays exactly once, and
* a memory pass walks a trace's whole footprint stream at once: a warm
  replay, like Neon's steady-state footprint, makes two L2 walks, and
* a compute pass places each distinct instruction pattern once, not each
  engine entry.
"""

import dataclasses

import pytest

from repro.baselines import NeonModel
from repro.baselines.duality_cache import DualityCacheModel, to_simt_trace
from repro.compiler.pipeline import compile_trace_cached
from repro.core.address_gen import line_footprints
from repro.core.cache import ResultStore
from repro.core.config import default_config
from repro.core.controller import MVEControllerModel
from repro.core.replay import replay_group_key
from repro.core.simulator import replay_trace, simulate_trace, simulate_trace_batch
from repro.core.traces import TraceSpec
from repro.experiments.registry import all_experiments
from repro.experiments.sweep import (
    KernelJob,
    ParallelSweepEngine,
    SweepSpec,
    batch_partitions,
    simulate_traced_group,
)
from repro.isa import ArithmeticInstruction, MemoryInstruction, MoveInstruction
from repro.memory import CacheConfig, DRAMConfig, HierarchyConfig, VectorCache, vector_cache
from repro.sram.array import EngineGeometry, SramArrayGeometry
from repro.sram.schemes import SCHEME_NAMES
from repro.workloads import create_kernel

import oracle


@pytest.fixture(scope="module")
def csum_trace():
    return TraceSpec("csum", "mve", 0.25).capture().trace


@pytest.fixture(scope="module")
def gemm_trace():
    return TraceSpec("gemm", "mve", 0.25).capture().trace


def shrunk_rows_config():
    """Same SIMD lane count (so the same captured trace applies) but a
    different register-file geometry: forces a compile split in a batch."""
    engine = EngineGeometry(array=SramArrayGeometry(rows=128, cols=256))
    return dataclasses.replace(default_config(), engine=engine)


def assert_batch_parity(trace, configs):
    batched = simulate_trace_batch(trace, configs)
    assert len(batched) == len(configs)
    for config, (result, compiled) in zip(configs, batched):
        expected, expected_compiled = oracle.simulate_trace(trace, config=config)
        assert result.to_dict() == expected.to_dict()
        assert compiled.spill_count == expected_compiled.spill_count


class TestSimulateTraceBatchParity:
    """simulate_trace_batch vs the per-config oracle, axis by axis."""

    def test_scheme_axis(self, csum_trace):
        configs = [default_config().with_scheme(name) for name in SCHEME_NAMES]
        assert_batch_parity(csum_trace, configs)

    def test_cache_geometry_axis(self, csum_trace):
        base = default_config()
        small_l2 = HierarchyConfig(
            l2=CacheConfig(name="L2", size_bytes=256 * 1024, ways=8, hit_latency=12, mshr_entries=46)
        )
        configs = [
            dataclasses.replace(base, hierarchy=hierarchy, l2_compute_ways=ways)
            for hierarchy in (HierarchyConfig(), small_l2)
            for ways in (4, 6)
        ]
        assert_batch_parity(csum_trace, configs)

    def test_dram_axis(self, gemm_trace):
        base = default_config()
        variants = [
            DRAMConfig(),
            DRAMConfig(t_cas=60, t_rcd=70, t_rp=70),  # timing-only: shares one replay
            DRAMConfig(num_channels=2, num_banks=4),  # structure change: own memory pass
        ]
        configs = [
            dataclasses.replace(base, hierarchy=HierarchyConfig(dram=dram))
            for dram in variants
        ]
        assert_batch_parity(gemm_trace, configs)

    def test_mixed_axis_with_compile_split(self, gemm_trace):
        base = default_config()
        configs = [
            base,
            base.with_scheme("bit-parallel"),
            dataclasses.replace(base, sram_cycle_multiplier=2.0),
            dataclasses.replace(base, hierarchy=HierarchyConfig(dram=DRAMConfig(t_cas=60))),
            shrunk_rows_config(),
            shrunk_rows_config().with_scheme("associative"),
        ]
        assert len({replay_group_key(config) for config in configs}) == 2
        assert_batch_parity(gemm_trace, configs)

    def test_single_config_batch(self, csum_trace):
        assert_batch_parity(csum_trace, [default_config()])

    def test_cold_cache(self, gemm_trace):
        """Cold replays time a compiled trace through ``replay_trace``, one
        batch per compiled kernel."""
        base = default_config()
        for configs in ([base, base.with_scheme("bit-parallel")], [shrunk_rows_config()]):
            cold = [
                oracle.simulate_trace(gemm_trace, config=config, warm_cache=False)
                for config in configs
            ]
            results = replay_trace(cold[0][1].trace, configs, warm_cache=False)
            assert [result.to_dict() for result in results] == [
                expected.to_dict() for expected, _ in cold
            ]

    def test_uncompiled_duality_cache_trace(self, gemm_trace):
        """Duality Cache times its SIMT transform of a compiled trace as
        given (no second compile) and cold: the oracle's plain run."""
        config = default_config()
        compiled = simulate_trace(gemm_trace, config=config)[1].trace
        simt = to_simt_trace(compiled)
        expected = oracle.MVESimulator(config=config).run(simt)
        (result,) = replay_trace(simt, [config], warm_cache=False)
        assert result.to_dict() == expected.to_dict()
        assert DualityCacheModel(config).run(compiled).to_dict() == expected.to_dict()


class TestEngineEnvParity:
    """Acceptance: the sweep engine's replays are bit-identical to the
    per-config oracle, on its independent per-line cache, across the
    deduped job sets of all registered experiments."""

    @pytest.fixture(scope="class")
    def trace_groups(self):
        experiments = all_experiments()
        assert len(experiments) == 11
        jobs = []
        for experiment in experiments:
            jobs.extend(experiment.jobs())
        groups = {}
        for job in dict.fromkeys(jobs):
            groups.setdefault(job.trace_spec(), []).append(job)
        return groups

    def test_batched_matches_legacy_for_every_experiment_job(self, trace_groups):
        for spec, jobs in trace_groups.items():
            trace = spec.capture().trace
            for job, got in zip(jobs, simulate_traced_group(jobs, trace)):
                want, compiled = oracle.simulate_trace(trace, config=job.config)
                assert got.result.to_dict() == want.to_dict(), job.describe()
                assert got.spills == compiled.spill_count, job.describe()


def eight_config_jobs():
    """One trace spec, eight configurations: 4 schemes x 2 l2_compute_ways."""
    base = default_config()
    jobs = [
        KernelJob(
            kernel="csum",
            scale=0.25,
            config=dataclasses.replace(base.with_scheme(scheme), l2_compute_ways=ways),
        )
        for scheme in SCHEME_NAMES
        for ways in (4, 6)
    ]
    assert len({job.trace_spec() for job in jobs}) == 1
    return jobs


def warm_traces_only(store_root, jobs):
    """Run the sweep once, then drop the results but keep the trace
    artifacts -- the next engine must replay (results cold) from the
    stored captures (traces warm)."""
    ParallelSweepEngine(jobs=1, store=ResultStore(store_root)).run_jobs(jobs)
    trace_keys = {job.trace_spec().cache_key() for job in jobs}
    for path in store_root.glob("*/*.json"):
        if path.stem not in trace_keys:
            path.unlink()


class TestEngineCounters:
    """Satellite: trace_store_hits counts specs, not partitions or jobs."""

    @pytest.mark.parametrize("workers", [1, 2, 8], ids=["serial", "pool2", "pool8"])
    def test_warm_sweep_hits_once_per_spec(self, tmp_path, workers):
        jobs = SweepSpec(
            name="counters",
            kernels=[("csum", {"scale": 0.25}), ("memcpy", {"scale": 0.25})],
            schemes=SCHEME_NAMES,
        ).jobs()
        specs = {job.trace_spec() for job in jobs}
        assert len(specs) == 2
        warm_traces_only(tmp_path, jobs)

        engine = ParallelSweepEngine(jobs=workers, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert len(outcomes) == len(jobs)
        assert engine.computed == len(jobs)  # results really were cold
        assert engine.traces_captured == 0
        # The fixed counter: one hit per distinct warm spec, not one per
        # replay partition.
        assert engine.trace_store_hits == len(specs)
        assert engine.batched_replays == len(specs)

    def test_eight_config_sweep_replays_once(self, tmp_path):
        jobs = eight_config_jobs()
        warm_traces_only(tmp_path, jobs)

        engine = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
        outcomes = engine.run_jobs(jobs)
        assert len(outcomes) == len(jobs)
        assert engine.computed == len(jobs)
        assert engine.traces_captured == 0
        assert engine.trace_store_hits == 1
        assert engine.batched_replays == 1  # the whole axis in one replay

    def test_batch_partitions_split_on_register_geometry(self):
        jobs = [
            KernelJob(kernel="csum", scale=0.25, config=default_config().with_scheme(scheme))
            for scheme in SCHEME_NAMES
        ]
        assert [len(p) for p in batch_partitions(jobs)] == [len(jobs)]

        jobs.append(KernelJob(kernel="csum", scale=0.25, config=shrunk_rows_config()))
        assert len({job.trace_spec() for job in jobs}) == 1  # same lanes
        assert sorted(len(p) for p in batch_partitions(jobs)) == [1, len(jobs) - 1]


class TestOneWalkPerPass:
    """The memory pass walks a trace's whole footprint stream level by
    level, pinned with call counts on the L2 rather than wall time."""

    @pytest.fixture
    def l2_batches(self, monkeypatch):
        """Line count of every L2 ``access_batch`` call."""
        sizes = []
        access_batch = VectorCache.access_batch

        def counting(cache, addresses, is_write=False):
            if cache.config.name == "L2":
                sizes.append(len(addresses))
            return access_batch(cache, addresses, is_write)

        monkeypatch.setattr(VectorCache, "access_batch", counting)
        return sizes

    def test_warm_replay_walks_the_l2_twice(self, gemm_trace, l2_batches):
        """Fill, then measure: two walks of every line, not one per memory
        instruction."""
        compiled = compile_trace_cached(gemm_trace)
        memory = [entry for entry in compiled.trace if isinstance(entry, MemoryInstruction)]
        lines = sum(footprint.size for footprint in line_footprints(memory))
        assert len(memory) > 2 and lines < vector_cache._SLICE_LINES
        simulate_trace_batch(gemm_trace, [default_config()])
        assert l2_batches == [lines, lines]

    def test_neon_footprint_walks_the_l2_twice(self, l2_batches):
        kernel = create_kernel("gemm", scale=0.25)
        kernel.setup()
        profile = kernel.profile()
        NeonModel().run(profile)
        lines = -(-profile.bytes_read // 64) + -(-profile.bytes_written // 64)
        assert l2_batches == [lines, lines]


class TestOnePricingPerPattern:
    """The compute pass prices each distinct instruction pattern once per
    compute key, pinned with call counts on the controller rather than
    wall time."""

    def test_placement_runs_once_per_pattern_per_scheme(self, gemm_trace, monkeypatch):
        calls = []
        placement = MVEControllerModel.placement

        def counting(controller, instruction, element_bits):
            calls.append(instruction)
            return placement(controller, instruction, element_bits)

        monkeypatch.setattr(MVEControllerModel, "placement", counting)
        compiled = compile_trace_cached(gemm_trace).trace
        engine = [
            entry
            for entry in compiled
            if isinstance(entry, (MemoryInstruction, ArithmeticInstruction, MoveInstruction))
        ]
        patterns = {
            (
                type(entry),
                entry.opcode,
                entry.dtype,
                getattr(entry, "shape_lengths", ()),
                getattr(entry, "mask", ()),
                getattr(entry, "is_store", False),
            )
            for entry in engine
        }
        assert len(engine) > 2 * len(patterns)
        configs = [default_config().with_scheme(name) for name in ("bit-serial", "bit-parallel")]
        replay_trace(compiled, configs)
        assert len(calls) == 2 * len(patterns)
