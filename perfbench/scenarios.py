"""The benchmark's three workloads, each a closed loop over one iteration.

Every iteration has a *compute* phase that produces (or recalls) results
and a *read* phase that serves them back through an in-process
:class:`~repro.core.cache_service.CacheServer` over one keep-alive
connection; ``wall_s`` is the two phases together, and every request of the
read phase is timed on its own:

``eval_cold``
    all registered experiments at scale 0.5, serial, into an empty store;
    then every experiment document is read back as JSON and CSV.
``sweep_trace_warm``
    the deduplicated job set of figure9/10/12b/13 on a 2-worker pool, from
    a store that holds every trace but no result; then every job's store
    entry is read back.
``warm_read``
    a warm ``run_experiment`` of every experiment from a store filled before
    the run (no simulation); then a fixed number of experiment documents.

The seed shuffles the sweep's job order within each trace spec, the warm
recall order and every read order; none of them may change the result
digest.  The cold evaluation keeps the registry order, because the split
between captured traces and traces answered by the store depends on it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import fidelity

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
#: fixture stores, kept between invocations (keyed by the source tree)
FIXTURES = ROOT / ".perfbench_work" / "fixtures"

SCALE = 0.5
SWEEP_EXPERIMENTS = ("figure9", "figure10", "figure12b", "figure13")
#: experiments assembled from the sweep's own job results (no simulation)
SWEEP_ASSEMBLED = ("figure10", "figure11", "figure13")
POOL_WORKERS = 2
#: warm_read recalls of every experiment per iteration
WARM_RECALLS = 5
#: warm_read requests per iteration: this many passes over every
#: experiment document in both formats
WARM_READ_PASSES = 2
#: eval_cold read-back passes over every experiment document in both
#: formats; with the sweep's and warm_read's, every run answers 100+ reads,
#: enough for ten samples beyond the 90th percentile
COLD_READ_PASSES = 5
#: sweep read-back passes over every job's store entry
SWEEP_READ_PASSES = 2
#: jobs re-simulated serially per sweep run to check the pooled results
SPOT_CHECKS = 2
SETUP_PROBES = 3
FORMATS = ("json", "csv")


def options():
    from repro.experiments import ExperimentOptions

    return ExperimentOptions(scale=SCALE)


def job_identity(job) -> str:
    """A job's identity without the source fingerprint, so digests compare
    across commits that leave results unchanged."""
    from repro.core.cache import config_digest

    return json.dumps(
        {
            "kernel": job.kernel,
            "kind": job.kind,
            "scale": job.scale,
            "kwargs": [list(item) for item in job.kwargs],
            "scheme": job.scheme_name,
            "config": config_digest(job.config),
        },
        sort_keys=True,
        default=repr,
    )


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def instructions(result) -> int:
    return result.scalar_instructions + result.vector_instruction_total


def sweep_jobs() -> list:
    from repro.experiments import get_experiment

    jobs = []
    for name in SWEEP_EXPERIMENTS:
        jobs.extend(get_experiment(name).jobs(options()))
    return list(dict.fromkeys(jobs))


def join_children() -> None:
    """Wait for every child process this process started (pool workers),
    killing any that has not ended within 30 s."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()


def stop_children() -> None:
    """Stop every helper process and wait for each to end: the pool
    workers, then multiprocessing's resource tracker.  The shared-memory
    trace arena starts the tracker; left alone it outlives this process
    until it notices the closed pipe."""
    from multiprocessing import resource_tracker

    join_children()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


class Digest:
    """Order-independent SHA-256 over (kind, key, content) entries."""

    def __init__(self):
        self.entries: list[str] = []

    def add(self, kind: str, key: str, content) -> None:
        if isinstance(content, str):
            content = content.encode("utf-8")
        self.entries.append(f"{kind}\0{key}\0{hashlib.sha256(content).hexdigest()}")

    def hexdigest(self) -> str:
        return hashlib.sha256("\n".join(sorted(self.entries)).encode()).hexdigest()


class Tally:
    """Attempted and failed operations (jobs, reads, correctness checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def jobs(self, expected: int, done: int) -> None:
        """``expected`` simulation jobs attempted, of which ``done`` finished."""
        self.attempted += expected
        self.failed += max(0, expected - done)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"error in {what}:\n{traceback.format_exc()}", file=sys.stderr)


class Reader:
    """A CacheServer on an ephemeral port plus one keep-alive client."""

    def __init__(self, root: Path, tracer=None):
        from repro.core.cache_service import CacheServer

        self.server = CacheServer(("127.0.0.1", 0), root=root)
        if tracer is not None:
            tracer.wrap_backend(self.server.backend)
        self.thread = self.server.start_in_background()
        host, port = self.server.server_address[:2]
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def get(self, path: str) -> tuple[int, bytes, float]:
        start = time.perf_counter()
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        body = response.read()
        return response.status, body, time.perf_counter() - start

    def close(self) -> None:
        self.connection.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


def read_phase(reader: Reader, requests, expected: dict, tally: Tally, digest: Digest):
    """Send ``requests`` ((path, key) pairs) in order; every body must equal
    ``expected[key]``.  Returns the client-side latency of each answered
    request, in seconds."""
    latencies = []
    for path, key in requests:
        try:
            status, body, seconds = reader.get(path)
        except (OSError, http.client.HTTPException):
            tally.error(f"GET {path}")
            continue
        latencies.append(seconds)
        if tally.check(status == 200 and body == expected[key], f"served bytes of {path}"):
            digest.add("served", str(key), body)
    return latencies


def experiment_documents(store_root: Path, names) -> dict:
    """The bytes the read API must serve for every experiment and format:
    ``render_payload`` of the stored result."""
    from repro.core.store_backend import LocalDirBackend
    from repro.experiments.export import experiment_export_payload, render_payload
    from repro.experiments.registry import experiment_store_key

    backend = LocalDirBackend(store_root)
    documents = {}
    for name in names:
        record = backend.load_checked(experiment_store_key(name, options()))
        if record is None:
            continue
        payload = experiment_export_payload(name, options(), record["result"])
        for fmt in FORMATS:
            documents[(name, fmt)] = render_payload(payload, fmt)
    return documents


def document_requests(names, passes: int, rng: random.Random) -> list:
    requests = [
        (f"/v1/experiments/{name}?format={fmt}", (name, fmt))
        for _ in range(passes)
        for name in names
        for fmt in FORMATS
    ]
    rng.shuffle(requests)
    return requests


def engine_counters(engine) -> dict:
    captures = engine.traces_captured
    specs = len(engine.trace_captures)
    return {
        "engine.computed": engine.computed,
        "engine.captures": captures,
        "engine.trace_store_hits": engine.trace_store_hits,
        "engine.batched_replays": engine.batched_replays,
        "engine.captures_per_spec": captures / specs if specs else 0.0,
    }


def fixture(workload: str) -> tuple[Path, dict]:
    """The fixture store for ``workload`` and its fill summary.

    Filling takes up to a cold evaluation, so the store is built once per
    source tree and kept under :data:`FIXTURES`: the directory name carries
    the source fingerprint, and it appears (by rename) only once complete.
    """
    from repro.core.cache import code_fingerprint

    key = f"{workload}-{code_fingerprint()[:16]}"
    final = FIXTURES / key
    if not (final / "fill.json").is_file():
        FIXTURES.mkdir(parents=True, exist_ok=True)
        for stale in FIXTURES.glob(f"{workload}-*"):
            shutil.rmtree(stale, ignore_errors=True)
        partial = Path(tempfile.mkdtemp(prefix=f".{key}-", dir=FIXTURES))
        try:
            summary = run_subprocess(
                ["--fill", workload, "--store", str(partial / "store")], timeout=600
            )
            (partial / "fill.json").write_text(json.dumps(summary))
            os.replace(partial, final)
        finally:
            shutil.rmtree(partial, ignore_errors=True)
    return final / "store", json.loads((final / "fill.json").read_text())


def run_subprocess(arguments: list, timeout: float) -> dict:
    """Run ``run.py`` with internal ``arguments``; returns its last JSON line."""
    completed = subprocess.run(
        [sys.executable, str(RUN_PY), *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=True,
    )
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
#  Iteration results
# ---------------------------------------------------------------------- #


@dataclass
class Iteration:
    """What one iteration measured."""

    #: duration of the timed phases: producing the results, then reading
    #: them back (checks and fixture work between phases are excluded)
    wall_s: float = 0.0
    #: simulated instructions in the results produced (or recalled)
    instructions: int = 0
    #: client latency of every read, in seconds
    latencies: list = field(default_factory=list)
    #: tracer totals of the compute and the read phases
    layers: dict = field(default_factory=dict)
    read_layers: dict = field(default_factory=dict)
    #: engine counters after the compute phase
    counters: dict = field(default_factory=dict)
    #: ours / paper per headline pair
    fidelity: dict = field(default_factory=dict)
    digest: str = ""


class Scenario:
    """Shared loop: prepare once, then iterate for a time window."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(seed)
        self.tally = Tally()

    # -- hooks ----------------------------------------------------------- #

    def prepare(self) -> None:
        """Once per invocation, before any run: find or build fixtures."""

    def probe_arguments(self, workdir: Path) -> list:
        return ["--probe", self.name, "--store", str(workdir)]

    def iterate(self, tracer) -> Iteration:
        raise NotImplementedError

    def finish(self) -> None:
        """Once per invocation, after every run."""

    # -- shared ---------------------------------------------------------- #

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    def setup_seconds(self) -> list[float]:
        """Set-up time of fresh interpreters that import the package, load
        the registry and build this workload's store, runner and server."""
        samples = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            run_subprocess(self.probe_arguments(self.fresh_dir("probe-")), timeout=120)
            samples.append(time.perf_counter() - start)
        return samples

    def measure(self, seconds: float, tracer=None) -> list[Iteration]:
        iterations = []
        start = time.perf_counter()
        while not iterations or time.perf_counter() - start < seconds:
            iterations.append(self.iterate(tracer))
        return iterations

    def timed(self, it: Iteration, tracer, phase, *args, read: bool = False):
        """Run one timed phase of ``it``, traced when a tracer is given: its
        duration adds to ``it.wall_s`` and its spans to the iteration's
        compute (or, with ``read``, read) layers.  Returns the phase's result."""
        if tracer is not None:
            tracer.reset()
            tracer.enabled = True
        start = time.perf_counter()
        try:
            return phase(*args)
        finally:
            it.wall_s += time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
                if read:
                    it.read_layers = merge_layers(it.read_layers, tracer.snapshot())
                else:
                    it.layers = merge_layers(it.layers, tracer.snapshot())


# ---------------------------------------------------------------------- #


class EvalCold(Scenario):
    name = "eval_cold"

    def iterate(self, tracer) -> Iteration:
        from repro.compiler.pipeline import compile_cache_info
        from repro.core.cache import ResultStore
        from repro.experiments import (
            build_runner,
            experiment_names,
            get_experiment,
            run_experiment,
        )

        it = Iteration()
        # Registry order, as a full regeneration runs them: which traces are
        # captured and which come back from the store depends on the order.
        names = experiment_names()
        store_root = self.fresh_dir("cold-") / "store"
        runner = build_runner(jobs=1, store=ResultStore(store_root), default_scale=SCALE)
        computed = []
        results = {}

        def collect(job, outcome, completed, total):
            if outcome.source == "computed":
                computed.append((job, outcome.result))

        def evaluate():
            for name in names:
                if tracer is not None:
                    tracer.enter(f"exp.{name}")
                try:
                    results[name] = run_experiment(
                        name, runner=runner, options=options(), on_result=collect
                    )
                except Exception:
                    self.tally.error(f"run_experiment({name!r})")
                finally:
                    if tracer is not None:
                        tracer.exit()

        memo_before = compile_cache_info()
        self.timed(it, tracer, evaluate)
        memo_after = compile_cache_info()
        runner.engine.close()
        it.counters = engine_counters(runner.engine)
        it.counters.update(memo_delta(memo_before, memo_after))

        digest = Digest()
        distinct = {
            job_identity(job) for name in names for job in get_experiment(name).jobs(options())
        }
        self.tally.jobs(len(distinct), len(computed))
        self.tally.check(
            len(computed) == len(distinct) == runner.engine.computed,
            "cold store computes every distinct job exactly once",
        )
        for job, result in computed:
            digest.add("job", job_identity(job), canonical(result))
            it.instructions += instructions(result)
        for name, result in results.items():
            text = canonical(result)
            self.tally.check(
                canonical(type(result).from_dict(json.loads(text))) == text,
                f"{name} result round-trips",
            )
            digest.add("experiment", name, text)
        it.fidelity = fidelity.fidelity(results)

        expected = experiment_documents(store_root, names)
        self.tally.check(len(expected) == 2 * len(names), "every experiment is stored")
        reader = Reader(store_root, tracer)
        try:
            requests = document_requests(names, COLD_READ_PASSES, self.rng)
            it.latencies = self.timed(
                it, tracer, read_phase, reader, requests, expected, self.tally, digest,
                read=True,
            )
        finally:
            reader.close()
        it.digest = digest.hexdigest()
        shutil.rmtree(store_root.parent, ignore_errors=True)
        return it


def merge_layers(total: dict, phase: dict) -> dict:
    """Sum two tracer snapshots."""
    merged = {}
    for table in ("self_s", "calls", "counts"):
        merged[table] = dict(total.get(table, {}))
        for name, value in phase.get(table, {}).items():
            merged[table][name] = merged[table].get(name, 0) + value
    return merged


def memo_delta(before: dict, after: dict) -> dict:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    lookups = hits + misses
    return {"compile.memo_hit_ratio": hits / lookups if lookups else 0.0}


class SweepTraceWarm(Scenario):
    name = "sweep_trace_warm"

    def prepare(self) -> None:
        self.template, _ = fixture(self.name)
        self.jobs = sweep_jobs()
        specs = dict.fromkeys(job.trace_spec() for job in self.jobs)
        self.spec_rank = {spec: rank for rank, spec in enumerate(specs)}
        self.spot_checked = False

    def probe_arguments(self, workdir: Path) -> list:
        return [
            "--probe", self.name, "--store", str(workdir), "--template", str(self.template)
        ]

    def iterate(self, tracer) -> Iteration:
        from repro.compiler.pipeline import compile_cache_info
        from repro.core.cache import ResultStore
        from repro.core.store_backend import LocalDirBackend
        from repro.experiments import ExperimentRunner, ParallelSweepEngine, run_experiment

        it = Iteration()
        store_root = self.fresh_dir("sweep-") / "store"
        shutil.copytree(self.template, store_root)
        engine = ParallelSweepEngine(jobs=POOL_WORKERS, store=ResultStore(store_root))
        # Shuffle the jobs, but keep each trace spec's first appearance in
        # place: the pool's task order (and with it the makespan) stays
        # fixed, while batched replays see their configs in a seeded order.
        jobs = list(self.jobs)
        self.rng.shuffle(jobs)
        jobs.sort(key=lambda job: self.spec_rank[job.trace_spec()])

        memo_before = compile_cache_info()
        try:
            outcomes = self.timed(it, tracer, engine.run_jobs, jobs)
        except Exception:
            self.tally.error("pooled sweep")
            outcomes = {}
        memo_after = compile_cache_info()
        engine.close()
        join_children()
        it.counters = engine_counters(engine)
        it.counters.update(memo_delta(memo_before, memo_after))

        digest = Digest()
        self.tally.jobs(len(jobs), len(outcomes))
        self.tally.check(
            len(outcomes) == len(jobs) == engine.computed,
            "every sweep job is computed exactly once",
        )
        for job, outcome in outcomes.items():
            digest.add("job", job_identity(job), canonical(outcome.result))
            it.instructions += instructions(outcome.result)
        if not self.spot_checked and outcomes:
            self.spot_check(outcomes)

        backend = LocalDirBackend(store_root)
        expected = {}
        for job in jobs:
            record = backend.load(job.cache_key())
            expected[job.cache_key()] = json.dumps(record).encode("utf-8")
        requests = [(f"/v1/entry/{key}", key) for key in expected] * SWEEP_READ_PASSES
        self.rng.shuffle(requests)
        reader = Reader(store_root, tracer)
        try:
            it.latencies = self.timed(
                it, tracer, read_phase, reader, requests, expected, self.tally, Digest(),
                read=True,
            )
        finally:
            reader.close()

        runner = ExperimentRunner(engine=engine)
        results = {}
        for name in SWEEP_ASSEMBLED:
            try:
                results[name] = run_experiment(name, runner=runner, options=options())
            except Exception:
                self.tally.error(f"run_experiment({name!r}) from the sweep's results")
        self.tally.check(engine.computed == len(jobs), "assembly needs no simulation")
        for name, result in results.items():
            digest.add("experiment", name, canonical(result))
        it.fidelity = fidelity.fidelity(results)
        it.digest = digest.hexdigest()
        shutil.rmtree(store_root.parent, ignore_errors=True)
        return it

    def spot_check(self, outcomes) -> None:
        """Re-simulate a few jobs serially (fresh capture, no store): the
        pooled results must be bit-identical."""
        from repro.experiments import execute_job

        self.spot_checked = True
        # A fixed choice, so the check adds the same work (and memory) to
        # every run: the first jobs in identity order, skipping figure9's
        # full-size GEMM/SpMM.
        candidates = sorted(
            (job for job in outcomes if job.kernel not in ("gemm", "spmm") or job.scale < 1.0),
            key=job_identity,
        )
        for job in candidates[:SPOT_CHECKS]:
            serial = execute_job(job)
            self.tally.check(
                canonical(serial.result) == canonical(outcomes[job].result),
                f"pooled result of {job.describe()} equals a serial run",
            )


class WarmRead(Scenario):
    name = "warm_read"

    def prepare(self) -> None:
        from repro.experiments import experiment_names

        self.store_root, fill = fixture(self.name)
        self.fill_instructions = fill["instructions"]
        self.fill_results = fill["results"]
        self.names = experiment_names()
        self.expected = experiment_documents(self.store_root, self.names)
        self.tally.check(len(self.expected) == 2 * len(self.names), "every experiment is stored")
        self.reader = None
        self.reader_tracer = None

    def iterate(self, tracer) -> Iteration:
        if self.reader is None or self.reader_tracer is not tracer:
            # One server per measuring window, so a traced window times the
            # server's store loads too.
            self.finish()
            self.reader = Reader(self.store_root, tracer)
            self.reader_tracer = tracer
        it = Iteration()
        digest = Digest()
        for _ in range(WARM_RECALLS):
            self.recall(tracer, it, digest)
        it.instructions = WARM_RECALLS * self.fill_instructions

        requests = document_requests(self.names, WARM_READ_PASSES, self.rng)
        it.latencies = self.timed(
            it, tracer, read_phase, self.reader, requests, self.expected, self.tally, digest,
            read=True,
        )
        it.digest = digest.hexdigest()
        return it

    def recall(self, tracer, it: Iteration, digest: Digest) -> None:
        """One warm ``run_experiment`` of every experiment, on a fresh runner
        (so nothing is answered from an in-process memo)."""
        from repro.core.cache import ResultStore
        from repro.experiments import build_runner, run_experiment

        names = list(self.names)
        self.rng.shuffle(names)
        runner = build_runner(jobs=1, store=ResultStore(self.store_root), default_scale=SCALE)
        results = {}

        def recall_all():
            for name in names:
                if tracer is not None:
                    tracer.enter(f"exp.{name}")
                try:
                    results[name] = run_experiment(name, runner=runner, options=options())
                except Exception:
                    self.tally.error(f"warm run_experiment({name!r})")
                finally:
                    if tracer is not None:
                        tracer.exit()

        self.timed(it, tracer, recall_all)
        it.counters = engine_counters(runner.engine)
        it.counters["compile.memo_hit_ratio"] = 0.0

        self.tally.check(runner.engine.computed == 0, "a warm store simulates nothing")
        for name, result in results.items():
            text = canonical(result)
            self.tally.check(
                hashlib.sha256(text.encode()).hexdigest() == self.fill_results.get(name),
                f"warm {name} equals the filled result",
            )
            digest.add("experiment", name, text)
        it.fidelity = fidelity.fidelity(results)

    def finish(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None


SCENARIOS = {cls.name: cls for cls in (EvalCold, SweepTraceWarm, WarmRead)}


# ---------------------------------------------------------------------- #
#  Subprocess entry points: fixture fills and set-up probes
# ---------------------------------------------------------------------- #


def fill(workload: str, store_root: Path) -> dict:
    """Build a workload's fixture store; runs in its own interpreter so the
    measuring process's memory and caches stay untouched."""
    from repro.core.cache import ResultStore
    from repro.experiments import ParallelSweepEngine, build_runner, experiment_names
    from repro.experiments import run_experiment

    if workload == "sweep_trace_warm":
        engine = ParallelSweepEngine(jobs=1, store=ResultStore(store_root))
        specs = list(dict.fromkeys(job.trace_spec() for job in sweep_jobs()))
        for spec in specs:
            engine.captured_trace(spec)
        return {"specs": len(specs)}
    runner = build_runner(jobs=POOL_WORKERS, store=ResultStore(store_root), default_scale=SCALE)
    total = 0

    def count(job, outcome, completed, total_jobs):
        nonlocal total
        if outcome.source == "computed":
            total += instructions(outcome.result)

    results = {}
    try:
        for name in experiment_names():
            result = run_experiment(name, runner=runner, options=options(), on_result=count)
            results[name] = hashlib.sha256(canonical(result).encode()).hexdigest()
    finally:
        runner.engine.close()
        join_children()
    return {"instructions": total, "results": results}


def probe(workload: str, workdir: Path, template) -> dict:
    """Everything a run does before its timed region, in a fresh interpreter."""
    from repro.core.cache import ResultStore
    from repro.experiments import ParallelSweepEngine, build_runner, experiment_names

    names = experiment_names()
    store_root = workdir / "store"
    if workload == "sweep_trace_warm":
        shutil.copytree(template, store_root)
        engine = ParallelSweepEngine(jobs=POOL_WORKERS, store=ResultStore(store_root))
        jobs = sweep_jobs()
        engine.close()
        return {"jobs": len(jobs)}
    build_runner(jobs=1, store=ResultStore(store_root), default_scale=SCALE)
    from repro.core.cache_service import CacheServer

    CacheServer(("127.0.0.1", 0), root=store_root).server_close()
    return {"experiments": len(names)}

