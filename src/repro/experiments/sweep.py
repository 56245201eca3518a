"""Declarative kernel sweeps with staged execution and persistent caching.

This is the execution engine underneath every experiment module: a sweep is
the Cartesian product of kernels x lowerings x schemes x machine configs,
each point an independent, deterministic simulation job.  Execution is
staged, mirroring the paper's capture-once/replay-many methodology:

* **Capture** -- jobs are grouped by :class:`~repro.core.traces.TraceSpec`
  (kernel, lowering, scale, kwargs, SIMD lanes); each distinct trace is
  captured exactly once per batch -- or loaded from the
  :class:`~repro.core.traces.TraceStore` namespace of the persistent cache,
  where captures are shared fleet-wide like any other result -- and fanned
  out to every machine configuration in the group.
* **Replay** -- each job replays the shared trace through the timing model;
  configurations with the same register-file geometry also share the
  compiled (scheduled + register-allocated) kernel via
  :func:`~repro.compiler.pipeline.compile_trace_cached`.

The engine also

* deduplicates jobs and answers repeats from an in-process memo,
* answers previously-simulated jobs from the persistent, content-addressed
  :class:`~repro.core.cache.ResultStore` (keyed by the full machine config
  and a source-tree fingerprint, so results can never go stale) -- including
  its remote tier when the store is pointed at a shared cache service
  (``python -m repro serve``), and
* shards the remaining work across a ``ProcessPoolExecutor`` -- simulation
  is pure Python + numpy, so process-level parallelism is the only way to
  use more than one core.  Capture work is pinned to one worker per trace
  group (keeping every capture single-shot even under a pool); replays of
  already-resolved traces are split per batched-replay partition
  (:func:`batch_partitions`): configs sharing a compiled kernel replay
  together through :func:`~repro.core.replay.simulate_trace_batch`, so a
  K-config scheme/cache/DRAM axis costs ~1 decomposed replay instead of K.

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
from ..core.traces import TraceArtifact, TraceSpec, TraceStore
from ..isa.instructions import TraceEntry
from ..isa.trace_io import decode_trace
from ..sram.schemes import get_scheme
from .adapters import ExecutionAdapter, LocalPoolAdapter, SerialAdapter

__all__ = [
    "KernelJob",
    "JobOutcome",
    "OnResult",
    "SweepSpec",
    "SweepResult",
    "ParallelSweepEngine",
    "ExecutionAdapter",
    "LocalPoolAdapter",
    "SerialAdapter",
    "batch_partitions",
    "partition_jobs",
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
    """One independent simulation: a kernel lowering on one configuration."""

    kernel: str
    kind: str = "mve"  # "mve" or "rvv"
    scale: float = 0.5
    kwargs: tuple[tuple[str, Any], ...] = ()
    scheme_name: str = "bit-serial"
    config: MachineConfig = field(default_factory=default_config)

    def __post_init__(self):
        if self.kind not in ("mve", "rvv"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        # Normalize so scheme_name and config.scheme_name never disagree:
        # the simulation only reads scheme_name, and without this two jobs
        # describing the same simulation would hash to different cache keys.
        if self.config.scheme_name != self.scheme_name:
            object.__setattr__(self, "config", self.config.with_scheme(self.scheme_name))

    def cache_key(self) -> str:
        """Content hash identifying this job's result in the persistent store."""
        return stable_hash(
            {
                "fingerprint": code_fingerprint(),
                "kernel": self.kernel,
                "kind": self.kind,
                "scale": self.scale,
                "kwargs": list(self.kwargs),
                "scheme": self.scheme_name,
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
    #: "computed", "memo" (in-process), "disk" (local store tier) or
    #: "remote" (answered by the shared cache service)
    source: str = "computed"


def simulate_traced_job(job: KernelJob, trace: Sequence[TraceEntry]) -> JobOutcome:
    """Replay an already-captured trace under one job's configuration."""
    result, compiled = simulate_trace(
        trace, config=job.config, scheme=get_scheme(job.scheme_name)
    )
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


def partition_jobs(jobs: Sequence[KernelJob]) -> list[list[KernelJob]]:
    """Any job set split into the fleet's lease-sized units: first by trace
    spec (one partition replays one captured trace), then by batched-replay
    partition (:func:`batch_partitions`).  Deterministic given the source
    tree -- the coordinator and every worker derive identical partitions,
    whether the jobs came from an experiment or an exploration round."""
    groups: dict[TraceSpec, list[KernelJob]] = {}
    for job in jobs:
        groups.setdefault(job.trace_spec(), []).append(job)
    partitions: list[list[KernelJob]] = []
    for group in groups.values():
        partitions.extend(batch_partitions(group))
    return partitions


def simulate_traced_group(
    jobs: Sequence[KernelJob], trace: Sequence[TraceEntry]
) -> list[JobOutcome]:
    """Replay one resolved trace for every job, batching the config axis.

    Jobs replay through :func:`simulate_trace_batch`, which groups them by
    compiled-kernel geometry internally -- a K-config axis costs ~1
    decomposed replay instead of K."""
    replays = simulate_trace_batch(
        trace,
        [job.config for job in jobs],
        schemes=[get_scheme(job.scheme_name) for job in jobs],
    )
    return [
        JobOutcome(result=result, spills=compiled.spill_count)
        for result, compiled in replays
    ]


def _resolve_group_trace(
    spec: TraceSpec,
    payload: Optional[dict],
    trace: Optional[list[TraceEntry]],
) -> tuple[list[TraceEntry], Optional["TraceArtifact"]]:
    """One group's trace from whatever source is at hand.

    Preference order: an already-decoded ``trace``, then a stored
    ``payload`` (a corrupt one degrades to recapture rather than failing
    the group), then a fresh capture.  Returns the trace plus the
    freshly-captured artifact when capture ran (None on reuse) so the
    caller can persist and count it -- encoding is the caller's decision,
    so storeless paths never pay for a payload they would discard.
    Single source of truth for the decode-else-capture contract shared by
    the serial and pool paths.
    """
    if trace is not None:
        return trace, None
    if payload is not None:
        try:
            return decode_trace(payload["trace"]), None
        except (KeyError, TypeError, ValueError):
            pass
    artifact = spec.capture()
    return artifact.trace, artifact


def execute_trace_group(
    jobs: Sequence[KernelJob],
    payload: Optional[dict] = None,
    trace: Optional[list[TraceEntry]] = None,
) -> tuple[list[JobOutcome], Optional[dict]]:
    """Capture (or decode) one shared trace, then replay it for every job.

    All jobs must share one :meth:`KernelJob.trace_spec`.  ``payload`` is a
    stored trace record body (decoded here, in the worker, so the parent
    never pays for traces it only forwards); ``trace`` short-circuits with
    an already-decoded entry list.  Returns the outcomes in job order plus
    the freshly-captured payload when capture ran (None on reuse), so the
    parent can persist it.

    Module-level so worker processes can import it by qualified name.
    """
    trace, artifact = _resolve_group_trace(jobs[0].trace_spec(), payload, trace)
    captured = artifact.to_payload() if artifact is not None else None
    return simulate_traced_group(jobs, trace), captured


def execute_job(job: KernelJob) -> JobOutcome:
    """Capture the job's lowering and simulate it (the fused path, now a
    one-job staged run with no persistence and therefore no encode).

    Module-level so worker processes can import it by qualified name.
    """
    trace, _ = _resolve_group_trace(job.trace_spec(), None, None)
    return simulate_traced_job(job, trace)


class ParallelSweepEngine:
    """Executes :class:`KernelJob` batches with memoization and sharding.

    *How* the surviving jobs run is delegated to a pluggable
    :class:`~repro.experiments.adapters.ExecutionAdapter`: ``jobs=1``
    (the default for the interactive :class:`ExperimentRunner`) selects
    the in-process :class:`SerialAdapter` -- no pool is ever created --
    and higher counts the :class:`LocalPoolAdapter`; an explicit
    ``adapter`` overrides both.  The fleet worker
    (``python -m repro worker``) drains coordinator-leased partitions
    through this same engine, so every execution path shares one
    cache/counter/trace-resolution implementation.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        adapter: Optional[ExecutionAdapter] = None,
    ):
        if adapter is None:
            adapter = SerialAdapter() if max(1, jobs) == 1 else LocalPoolAdapter(jobs)
        self.adapter = adapter
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
        #: warm trace" no matter how many chunks, workers or repeat lookups
        #: touch the same payload
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

    def _count_capture(self, spec: TraceSpec) -> None:
        self.trace_captures[spec] = self.trace_captures.get(spec, 0) + 1

    def _count_pool_reuse(self) -> None:
        self.pool_reuses += 1

    def close(self) -> None:
        """Release adapter-held resources (the persistent worker pool).

        Idempotent; also invoked by ``__del__`` and ``__exit__`` so
        engines used as locals or context managers cannot strand worker
        processes.  A closed engine stays usable -- the next parallel
        batch simply recreates the pool.
        """
        close = getattr(self.adapter, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ParallelSweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter teardown: modules may already be gone

    def _count_store_hit(self, spec: TraceSpec) -> None:
        self._trace_store_hit_specs.add(spec)

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

    def _memoized_trace(self, spec: TraceSpec) -> Optional[list[TraceEntry]]:
        trace = self._trace_memo.get(spec)
        if trace is not None:
            self._trace_memo.move_to_end(spec)
        return trace

    def captured_trace(self, spec: TraceSpec) -> list[TraceEntry]:
        """The captured trace for ``spec``: memo, then store, then capture.

        The capture-stage analogue of :meth:`run_jobs`'s per-job lookup;
        experiments that need the raw instruction stream (figure12's
        Duality Cache transform, ``repro trace``) go through here so they
        share captures with the timing pipeline instead of re-running the
        functional machine.
        """
        trace = self._memoized_trace(spec)
        if trace is None:
            artifact = self._trace_store.load(spec)
            if artifact is not None:
                self._count_store_hit(spec)
            else:
                artifact = spec.capture()
                self._count_capture(spec)
                self._trace_store.save(artifact)
            trace = artifact.trace
            self._memo_trace(spec, trace)
        return trace

    def _from_store(self, job: KernelJob) -> Optional[JobOutcome]:
        if self.store is None:
            return None
        payload = self.store.load(job.cache_key())
        if payload is None:
            return None
        source = "remote" if getattr(self.store, "last_tier", None) == "remote" else "disk"
        try:
            return JobOutcome(
                result=SimulationResult.from_dict(payload["result"]),
                spills=int(payload["spills"]),
                source=source,
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

    def _resolve_groups(
        self, pending: list[KernelJob]
    ) -> list[tuple[TraceSpec, list[KernelJob], Optional[list[TraceEntry]], Optional[dict]]]:
        """Group uncached jobs by trace spec and resolve each group's trace
        source up front: the in-process trace memo, a stored payload, or
        None (the group must capture)."""
        groups: dict[TraceSpec, list[KernelJob]] = {}
        for job in pending:
            groups.setdefault(job.trace_spec(), []).append(job)
        if self.store is not None:
            unknown = [spec for spec in groups if spec not in self._trace_memo]
            if len(unknown) > 1:
                # Same batched remote probe the job lookup uses: one round
                # trip instead of a guaranteed-404 GET per cold trace.
                self.store.prefetch(spec.cache_key() for spec in unknown)
        tasks = []
        for spec, group in groups.items():
            trace = self._memoized_trace(spec)
            payload = None
            if trace is None:
                # A store hit is only counted once the payload actually
                # decodes (split/serial/worker paths below): a corrupt
                # record recaptures and must not read as hit + capture.
                payload = self._trace_store.load_payload(spec)
            tasks.append((spec, group, trace, payload))
        return tasks

    def _run_group_serial(
        self,
        spec: TraceSpec,
        group: list[KernelJob],
        trace: Optional[list[TraceEntry]],
        payload: Optional[dict],
        emit: Callable[[KernelJob, JobOutcome], None],
    ) -> None:
        """Capture/decode one group's trace in-process and replay it."""
        had_payload = trace is None and payload is not None
        trace, artifact = _resolve_group_trace(spec, payload, trace)
        if artifact is not None:
            self._count_capture(spec)
            self._trace_store.save(artifact)
        elif had_payload:
            self._count_store_hit(spec)
        self._memo_trace(spec, trace)
        self._count_batched_replays(group)
        for job, outcome in zip(group, simulate_traced_group(group, trace)):
            emit(job, outcome)

    def _split_resolved_groups(self, tasks):
        """Split multi-job groups whose trace is already in hand so a worker
        pool can parallelize the replays of a single-kernel multi-config
        sweep.

        The split unit is a :func:`batch_partitions` partition: one
        partition is ~one decomposed replay pass, so finer chunks would only
        re-run shared passes in separate workers.  Groups that still need
        their capture stay whole --
        splitting them would break the capture-once-per-batch invariant.
        Stored payloads are decoded here (once, in the parent) rather than
        per task in the workers -- single-job groups included, so no task
        ever re-decodes an envelope the parent already resolved; a corrupt
        payload leaves its group whole so it degrades to a single
        recapture."""
        split = []
        for spec, group, trace, payload in tasks:
            if trace is None and payload is not None:
                try:
                    trace = decode_trace(payload["trace"])
                except (KeyError, TypeError, ValueError):
                    payload = None  # corrupt: let the group recapture once
                else:
                    payload = None
                    self._count_store_hit(spec)
                    self._memo_trace(spec, trace)
            if trace is None or len(group) == 1:
                split.append((spec, group, trace, payload))
            else:
                split.extend(
                    (spec, partition, trace, None)
                    for partition in batch_partitions(group)
                )
        return split

    def _capture_starved_groups(self, tasks):
        """Capture multi-job cold groups in the parent when they would
        starve the pool.

        Capture is the cheap stage; replay dominates.  When there are
        fewer tasks than workers (e.g. a cold single-kernel multi-config
        sweep: one group, one task), running each cold group's capture
        here -- still exactly once per spec -- turns it into a resolved
        group whose replays can then fan out per job."""
        resolved = []
        for spec, group, trace, payload in tasks:
            if trace is None and payload is None and len(group) > 1:
                artifact = spec.capture()
                self._count_capture(spec)
                self._trace_store.save(artifact)
                self._memo_trace(spec, artifact.trace)
                trace = artifact.trace
            resolved.append((spec, group, trace, payload))
        return resolved

    def _execute_streaming(
        self,
        pending: list[KernelJob],
        emit: Callable[[KernelJob, JobOutcome], None],
    ) -> None:
        """Execute ``pending`` in trace groups, calling ``emit(job, outcome)``
        for each job as soon as its result is available (group-completion
        order when a worker pool is used, submission order serially).

        The trace group is the unit of capture: each group captures (or
        loads) its trace once and replays it for every member job, so a
        multi-config sweep runs the functional machine once per distinct
        trace even when sharded across worker processes.  The adapter owns
        the parallelism strategy (pool sharding, partition splitting,
        broken-pool degradation); see :mod:`repro.experiments.adapters`.
        """
        self.adapter.execute(self, pending, emit)

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
        """
        return self._run_jobs(jobs, on_result, collect=True)

    def stream_jobs(
        self,
        jobs: Sequence[KernelJob],
        on_result: Optional[OnResult] = None,
    ) -> int:
        """:meth:`run_jobs` without materializing anything: outcomes flow
        through ``on_result`` only, and neither the returned dict nor the
        in-process memo is populated -- peak memory is one in-flight
        partition, independent of batch size, which is what makes
        10^5-job explorations and streaming assemblers safe.  Persistence
        is unchanged (results still hit the store before each callback);
        returns the number of distinct jobs processed.
        """
        distinct = self._run_jobs(jobs, on_result, collect=False)
        return len(distinct)

    def _run_jobs(
        self,
        jobs: Sequence[KernelJob],
        on_result: Optional[OnResult],
        collect: bool,
    ) -> Any:
        distinct = list(dict.fromkeys(jobs))
        total = len(distinct)
        outcomes: dict[KernelJob, JobOutcome] = {}
        completed = 0

        def emit(job: KernelJob, outcome: JobOutcome) -> None:
            nonlocal completed
            if collect:
                outcomes[job] = outcome
            completed += 1
            if on_result is not None:
                on_result(job, outcome, completed, total)

        if self.store is not None:
            unmemoized = [job for job in distinct if job not in self._memo]
            if len(unmemoized) > 1:
                # One batched existence probe against a remote cache tier
                # instead of a guaranteed-404 GET per cold job (no-op for
                # purely local stores, and not worth a round trip for one).
                self.store.prefetch(job.cache_key() for job in unmemoized)

        pending: list[KernelJob] = []
        for job in distinct:
            memo = self._memo.get(job)
            if memo is not None:
                emit(job, JobOutcome(memo.result, memo.spills, source="memo"))
                continue
            stored = self._from_store(job)
            if stored is not None:
                if collect:
                    self._memo[job] = stored
                emit(job, stored)
                continue
            pending.append(job)

        def record(job: KernelJob, outcome: JobOutcome) -> None:
            self.computed += 1
            if collect:
                self._memo[job] = outcome
            self._to_store(job, outcome)
            emit(job, outcome)

        if pending:
            self._execute_streaming(pending, record)
        if not collect:
            return distinct
        # Return in the caller's job order regardless of completion order.
        return {job: outcomes[job] for job in distinct}

    def run_one(self, job: KernelJob) -> JobOutcome:
        return self.run_jobs([job])[job]


# ---------------------------------------------------------------------- #
#  Declarative sweeps
# ---------------------------------------------------------------------- #


@dataclass
class SweepSpec:
    """The Cartesian product of kernels x kinds x schemes x configurations.

    ``kernels`` maps a kernel name to its run parameters; ``scale`` inside
    the parameter dict overrides ``default_scale``, everything else is
    forwarded to the kernel constructor.  Adding a new sweep axis means
    adding a field here and expanding it in :meth:`jobs` -- the engine and
    cache key handle any ``MachineConfig`` change automatically.
    """

    name: str = "sweep"
    kernels: Sequence[tuple[str, Mapping[str, Any]]] = ()
    kinds: Sequence[str] = ("mve",)
    schemes: Sequence[str] = ("bit-serial",)
    #: engine-size axis; None keeps the base config's array count
    array_counts: Optional[Sequence[int]] = None
    default_scale: float = 0.5
    base_config: MachineConfig = field(default_factory=default_config)

    def configs(self) -> list[MachineConfig]:
        if not self.array_counts:
            return [self.base_config]
        return [self.base_config.with_arrays(count) for count in self.array_counts]

    def jobs(self) -> list[KernelJob]:
        expanded: list[KernelJob] = []
        for kernel, params in self.kernels:
            params = dict(params)
            scale = params.pop("scale", self.default_scale)
            kwargs = tuple(sorted(params.items()))
            for config in self.configs():
                for scheme in self.schemes:
                    for kind in self.kinds:
                        expanded.append(
                            KernelJob(
                                kernel=kernel,
                                kind=kind,
                                scale=scale,
                                kwargs=kwargs,
                                scheme_name=scheme,
                                config=config,
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
