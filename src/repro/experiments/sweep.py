"""Declarative kernel sweeps with staged execution and persistent caching.

This is the execution engine underneath every experiment module: a sweep is
the Cartesian product of kernels x lowerings x machine configs (whose axes
include the compute scheme and the array count), each point an independent,
deterministic simulation job.  Execution is staged, mirroring the paper's
capture-once/replay-many methodology:

* **Capture** -- jobs are grouped by :class:`~repro.core.traces.TraceSpec`
  (kernel, lowering, scale, kwargs, SIMD lanes); each distinct trace is
  captured exactly once per batch -- or loaded from the
  :class:`~repro.core.traces.TraceStore` namespace of the persistent cache
  -- and fanned out to every machine configuration in the group.
  :meth:`ParallelSweepEngine.captured_trace` (memo, then store, then
  capture) is the one resolver every in-process lookup goes through.
* **Replay** -- each job replays the shared trace through the timing model;
  configurations with the same register-file geometry also share the
  compiled (register-allocated) kernel via
  :func:`~repro.compiler.pipeline.compile_trace_cached`.

The engine also

* deduplicates jobs and answers repeats from an in-process memo,
* answers previously-simulated jobs from the persistent, content-addressed
  :class:`~repro.core.cache.ResultStore` (keyed by the full machine config
  and a source-tree fingerprint, so results can never go stale), and
* with ``jobs > 1``, shards the remaining work across a persistent process
  pool -- simulation is pure Python + numpy, so process-level parallelism
  is the only way to use more than one core.  A group whose trace is not
  in hand yet ships whole and captures in its worker (keeping every
  capture single-shot); a group whose trace is in hand splits per
  batched-replay partition (:func:`batch_partitions`): configs sharing a
  compiled kernel replay together through
  :func:`~repro.core.replay.simulate_trace_batch`, so a K-config
  scheme/cache/DRAM axis costs ~1 decomposed replay instead of K.

``python -m repro`` exposes the same engine as a batch CLI; the
:class:`~repro.experiments.runner.ExperimentRunner` sits on top of it so the
figure modules, the experiment registry, the benchmark suite and the example
scripts all share one cache.  :meth:`ParallelSweepEngine.run_jobs` streams
results through an optional ``on_result`` callback as jobs complete, so
callers can report progress and rely on partial batches being persisted.
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..core.cache import ResultStore, code_fingerprint, config_digest, stable_hash
from ..core.config import MachineConfig, default_config
from ..core.replay import replay_group_key, simulate_trace_batch
from ..core.results import SimulationResult
from ..core.simulator import simulate_trace
from ..core.traces import TraceSpec, TraceStore
from ..isa.instructions import TraceEntry
from ..isa.trace_io import decode_trace
from .adapters import LocalPoolAdapter

__all__ = [
    "KernelJob",
    "JobOutcome",
    "OnResult",
    "SweepSpec",
    "SweepResult",
    "ParallelSweepEngine",
    "LocalPoolAdapter",
    "batch_partitions",
    "execute_job",
    "execute_trace_group",
    "simulate_traced_group",
    "simulate_traced_job",
    "default_job_count",
]

#: progress callback: ``on_result(job, outcome, completed, total)``
OnResult = Callable[["KernelJob", "JobOutcome", int, int], None]


def default_job_count() -> int:
    """Worker processes to use when the caller does not say: all cores."""
    env = os.environ.get("REPRO_SWEEP_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring REPRO_SWEEP_JOBS={env!r}: not an integer; "
                "falling back to the core count",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class KernelJob:
    """One independent simulation: a kernel lowering on one configuration.

    A job validates and canonicalizes itself at construction, so every
    front end that builds one (sweep specs, the runner, the explorer, the
    CLI) shares one check and equal requests share one cache key: the
    capture fields go through :class:`~repro.core.traces.TraceSpec`
    (kernel, kind and lowering, a float ``scale`` above zero, ``kwargs``
    sorted by name), and the config names its own canonical compute scheme
    (:class:`~repro.core.config.MachineConfig` checks it).  A bad request
    raises ``ValueError``.
    """

    kernel: str
    kind: str = "mve"  # "mve" or "rvv"
    scale: float = 0.5
    kwargs: tuple[tuple[str, Any], ...] = ()
    config: MachineConfig = field(default_factory=default_config)

    def __post_init__(self):
        spec = self.trace_spec()
        object.__setattr__(self, "scale", spec.scale)
        object.__setattr__(self, "kwargs", spec.kwargs)

    @property
    def scheme_name(self) -> str:
        """The compute scheme this job simulates: its config's."""
        return self.config.scheme_name

    def cache_key(self) -> str:
        """Content hash identifying this job's result in the persistent store."""
        return stable_hash(
            {
                "fingerprint": code_fingerprint(),
                "kernel": self.kernel,
                "kind": self.kind,
                "scale": self.scale,
                "kwargs": list(self.kwargs),
                "config": config_digest(self.config),
            }
        )

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.kwargs)
        suffix = f", {params}" if params else ""
        return f"{self.kernel}/{self.kind} (scale={self.scale}{suffix}, {self.scheme_name})"

    def trace_spec(self) -> TraceSpec:
        """Identity of the capture-stage artifact this job replays.

        Only the SIMD lane count survives from the machine configuration:
        every other config field is a replay-time (timing) parameter, so
        jobs that differ only in those share one captured trace.
        """
        return TraceSpec(
            kernel=self.kernel,
            kind=self.kind,
            scale=self.scale,
            kwargs=self.kwargs,
            simd_lanes=self.config.simd_lanes,
        )


@dataclass
class JobOutcome:
    """Simulation result of one job plus where it came from."""

    result: SimulationResult
    spills: int = 0
    #: "computed", "memo" (in-process) or "disk" (the persistent store)
    source: str = "computed"


def simulate_traced_job(job: KernelJob, trace: Sequence[TraceEntry]) -> JobOutcome:
    """Replay an already-captured trace under one job's configuration."""
    result, compiled = simulate_trace(trace, config=job.config)
    return JobOutcome(result=result, spills=compiled.spill_count)


def batch_partitions(jobs: Sequence[KernelJob]) -> list[list[KernelJob]]:
    """Partition jobs (sharing one trace spec) into batched-replay units.

    Jobs in one partition share the compiled kernel
    (:func:`~repro.core.replay.replay_group_key`: register-file geometry) and
    replay together through one :func:`simulate_trace_batch` pass; every
    other config axis -- scheme, cache geometry, DRAM structure/timing, TMU
    and latency knobs -- batches.  Partition order follows first appearance,
    and each partition preserves the input job order."""
    groups: dict[tuple, list[KernelJob]] = {}
    for job in jobs:
        groups.setdefault(replay_group_key(job.config), []).append(job)
    return list(groups.values())


def simulate_traced_group(
    jobs: Sequence[KernelJob], trace: Sequence[TraceEntry]
) -> list[JobOutcome]:
    """Replay one resolved trace for every job, batching the config axis.

    Jobs replay through :func:`simulate_trace_batch`, which groups them by
    compiled-kernel geometry internally -- a K-config axis costs ~1
    decomposed replay instead of K."""
    replays = simulate_trace_batch(trace, [job.config for job in jobs])
    return [
        JobOutcome(result=result, spills=compiled.spill_count)
        for result, compiled in replays
    ]


def execute_trace_group(
    jobs: Sequence[KernelJob], trace: Optional[list[TraceEntry]] = None
) -> tuple[list[JobOutcome], Optional[dict]]:
    """Replay one shared trace for every job, capturing it first when
    ``trace`` is None.

    All jobs must share one :meth:`KernelJob.trace_spec`.  Returns the
    outcomes in job order plus the encoded payload of a fresh capture
    (None when ``trace`` was given), so the parent can count and persist it.

    Module-level so worker processes can import it by qualified name.
    """
    payload = None
    if trace is None:
        artifact = jobs[0].trace_spec().capture()
        trace, payload = artifact.trace, artifact.to_payload()
    return simulate_traced_group(jobs, trace), payload


def execute_job(job: KernelJob) -> JobOutcome:
    """Capture the job's lowering and simulate it, with no store and
    therefore no encode.

    Module-level so worker processes can import it by qualified name.
    """
    return simulate_traced_job(job, job.trace_spec().capture().trace)


class ParallelSweepEngine:
    """Executes :class:`KernelJob` batches with memoization and sharding.

    ``jobs=1`` (the default for the interactive :class:`ExperimentRunner`)
    runs every trace group in-process and never creates a pool; higher
    counts hand the groups to a persistent
    :class:`~repro.experiments.adapters.LocalPoolAdapter`.  Both paths
    look traces up the way :meth:`captured_trace` does (memo, then store)
    and share this engine's memo, store and counters; a cold group captures
    in-process on the loop and in its worker on the pool.
    """

    def __init__(self, jobs: int = 1, store: Optional[ResultStore] = None):
        self.pool = LocalPoolAdapter(jobs) if jobs > 1 else None
        self.store = store
        self.computed = 0
        self._memo: dict[KernelJob, JobOutcome] = {}
        # -- capture stage state -------------------------------------- #
        self._trace_store = TraceStore(store)
        # Bounded LRU of decoded traces: repeats within a run (and no-store
        # pooled runs, which have no other tier to answer from) hit the
        # memo; everything older is re-answered by the TraceStore.
        self._trace_memo: "OrderedDict[TraceSpec, list[TraceEntry]]" = OrderedDict()
        #: capture invocations per spec; a staged batch performs exactly one
        #: capture per distinct trace spec (asserted by the parity suite)
        self.trace_captures: dict[TraceSpec, int] = {}
        #: distinct specs answered by the persistent store instead of
        #: captured; a set (not an event counter) so the count stays "one per
        #: warm trace" no matter how many partitions, workers or repeat
        #: lookups touch the same record
        self._trace_store_hit_specs: set[TraceSpec] = set()
        #: multi-config batched replay passes performed (one per partition
        #: of :func:`batch_partitions` with at least two jobs)
        self.batched_replays = 0
        #: batches answered by an already-live persistent worker pool
        #: (vs. batches that had to create one)
        self.pool_reuses = 0

    @property
    def trace_store_hits(self) -> int:
        """Distinct traces answered by the persistent store this engine's
        lifetime.  Derived from a per-spec set, which structurally prevents
        the historical over-count where a warm single-kernel sweep split
        into ``--jobs`` chunks reported one hit per chunk."""
        return len(self._trace_store_hit_specs)

    @property
    def traces_captured(self) -> int:
        """Total functional-machine capture runs this engine performed."""
        return sum(self.trace_captures.values())

    #: decoded traces kept in memory at once; older entries fall back to
    #: the persistent TraceStore (or recapture, on store-less engines)
    _TRACE_MEMO_CAPACITY = 32

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the persistent worker pool, if any.

        Idempotent; also invoked by ``__del__`` and ``__exit__`` so
        engines used as locals or context managers cannot strand worker
        processes.  A closed engine stays usable -- the next parallel
        batch simply recreates the pool.
        """
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ParallelSweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter teardown: modules may already be gone

    def _count_batched_replays(self, group: Sequence[KernelJob]) -> None:
        """Record the batched replay passes a group's execution performed
        (the parent computes the same geometry partitioning the worker
        does, so pool-side replays are counted without shipping state
        back)."""
        for partition in batch_partitions(group):
            if len(partition) > 1:
                self.batched_replays += 1

    def _memo_trace(self, spec: TraceSpec, trace: list[TraceEntry]) -> None:
        self._trace_memo[spec] = trace
        self._trace_memo.move_to_end(spec)
        while len(self._trace_memo) > self._TRACE_MEMO_CAPACITY:
            self._trace_memo.popitem(last=False)

    def _stored_trace(self, spec: TraceSpec) -> Optional[list[TraceEntry]]:
        """The trace for ``spec`` from the memo or the persistent store, or
        None; never captures.

        The only reader of the trace tier.  A store hit is counted once the
        record decodes: a corrupt record is a miss (and recaptures), never
        a hit plus a capture.
        """
        trace = self._trace_memo.get(spec)
        if trace is not None:
            self._trace_memo.move_to_end(spec)
            return trace
        artifact = self._trace_store.load(spec)
        if artifact is None:
            return None
        self._trace_store_hit_specs.add(spec)
        self._memo_trace(spec, artifact.trace)
        return artifact.trace

    def captured_trace(self, spec: TraceSpec) -> list[TraceEntry]:
        """The captured trace for ``spec``: memo, then store, then capture.

        Every in-process trace lookup goes through here -- the serial loop,
        the pool's in-process leftovers, figure12's Duality Cache transform
        and ``repro trace`` -- so they all share captures with the timing
        pipeline and every capture is counted and persisted once.
        """
        trace = self._stored_trace(spec)
        if trace is None:
            artifact = spec.capture()
            self.trace_captures[spec] = self.trace_captures.get(spec, 0) + 1
            self._trace_store.save(artifact)
            trace = artifact.trace
            self._memo_trace(spec, trace)
        return trace

    def _record_worker_capture(self, spec: TraceSpec, payload: dict) -> None:
        """Book a capture a pool worker ran: count it and persist its
        payload, or -- with no store to answer later lookups -- memoize the
        decoded trace so :meth:`captured_trace` and follow-up batches never
        recapture."""
        self.trace_captures[spec] = self.trace_captures.get(spec, 0) + 1
        if self.store is not None:
            self._trace_store.save_payload(spec, payload)
        else:
            self._memo_trace(spec, decode_trace(payload["trace"]))

    def _replay_group(
        self,
        group: Sequence[KernelJob],
        trace: list[TraceEntry],
        emit: Callable[[KernelJob, JobOutcome], None],
    ) -> None:
        """Replay one resolved trace in-process for every job of ``group``."""
        self._count_batched_replays(group)
        for job, outcome in zip(group, simulate_traced_group(group, trace)):
            emit(job, outcome)

    def _from_store(self, job: KernelJob) -> Optional[JobOutcome]:
        if self.store is None:
            return None
        payload = self.store.load(job.cache_key())
        if payload is None:
            return None
        try:
            return JobOutcome(
                result=SimulationResult.from_dict(payload["result"]),
                spills=int(payload["spills"]),
                source="disk",
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _to_store(self, job: KernelJob, outcome: JobOutcome) -> None:
        if self.store is None:
            return
        self.store.store(
            job.cache_key(),
            {"result": outcome.result.to_dict(), "spills": outcome.spills},
        )

    def run_jobs(
        self,
        jobs: Sequence[KernelJob],
        on_result: Optional[OnResult] = None,
    ) -> dict[KernelJob, JobOutcome]:
        """Execute (or recall) every distinct job; returns job -> outcome.

        When ``on_result`` is given it is called as
        ``on_result(job, outcome, completed, total)`` for every distinct job
        -- cached answers immediately, computed ones as they finish (which is
        out of submission order on the parallel path).  Computed results are
        persisted to the store *before* their callback fires, so partial
        sweep progress survives an interrupted batch.

        Uncached jobs run in trace groups, the unit of capture: each group
        captures (or loads) its trace once and replays it for every member
        job, so a multi-config sweep runs the functional machine once per
        distinct trace even when sharded across worker processes.
        """
        distinct = list(dict.fromkeys(jobs))
        total = len(distinct)
        outcomes: dict[KernelJob, JobOutcome] = {}

        def emit(job: KernelJob, outcome: JobOutcome) -> None:
            outcomes[job] = outcome
            if on_result is not None:
                on_result(job, outcome, len(outcomes), total)

        groups: dict[TraceSpec, list[KernelJob]] = {}
        for job in distinct:
            memo = self._memo.get(job)
            if memo is not None:
                emit(job, JobOutcome(memo.result, memo.spills, source="memo"))
                continue
            stored = self._from_store(job)
            if stored is not None:
                self._memo[job] = stored
                emit(job, stored)
                continue
            groups.setdefault(job.trace_spec(), []).append(job)

        def record(job: KernelJob, outcome: JobOutcome) -> None:
            self.computed += 1
            self._memo[job] = outcome
            self._to_store(job, outcome)
            emit(job, outcome)

        if groups and self.pool is not None:
            self.pool.execute(self, groups, record)
        else:
            for spec, group in groups.items():
                self._replay_group(group, self.captured_trace(spec), record)
        # Return in the caller's job order regardless of completion order.
        return {job: outcomes[job] for job in distinct}

    def run_one(self, job: KernelJob) -> JobOutcome:
        return self.run_jobs([job])[job]


# ---------------------------------------------------------------------- #
#  Declarative sweeps
# ---------------------------------------------------------------------- #


@dataclass
class SweepSpec:
    """The Cartesian product of kernels x kinds x configurations.

    ``kernels`` maps a kernel name to its run parameters: ``scale`` is the
    job's dataset scale (:class:`KernelJob`'s default when absent), and
    everything else is forwarded to the kernel constructor.  The configs
    are ``base_config`` expanded over the engine-size and scheme axes.
    Adding a new sweep axis means adding a field here and expanding it in
    :meth:`configs` -- the engine and cache key handle any
    ``MachineConfig`` change automatically.
    """

    name: str = "sweep"
    kernels: Sequence[tuple[str, Mapping[str, Any]]] = ()
    kinds: Sequence[str] = ("mve",)
    #: compute-scheme axis; None keeps the base config's scheme
    schemes: Optional[Sequence[str]] = None
    #: engine-size axis; None keeps the base config's array count
    array_counts: Optional[Sequence[int]] = None
    base_config: MachineConfig = field(default_factory=default_config)

    def configs(self) -> list[MachineConfig]:
        """Every configuration of the arrays x schemes axes; a bad scheme
        raises the config's ``ValueError``."""
        sized = [self.base_config]
        if self.array_counts:
            sized = [self.base_config.with_arrays(count) for count in self.array_counts]
        if not self.schemes:
            return sized
        return [config.with_scheme(scheme) for config in sized for scheme in self.schemes]

    def jobs(self) -> list[KernelJob]:
        """Every point of the product; a bad axis value raises the
        ``ValueError`` of the config or job it would build."""
        expanded: list[KernelJob] = []
        for kernel, params in self.kernels:
            kwargs = dict(params)
            scale = kwargs.pop("scale", KernelJob.scale)
            for config in self.configs():
                for kind in self.kinds:
                    expanded.append(
                        KernelJob(
                            kernel=kernel, kind=kind, scale=scale, kwargs=kwargs, config=config
                        )
                    )
        return expanded


@dataclass
class SweepResult:
    spec: SweepSpec
    outcomes: dict[KernelJob, JobOutcome]
    elapsed_s: float = 0.0

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.source == "computed")

    @property
    def from_cache(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.source != "computed")
