"""Execution adapters: *how* a batch of pending jobs actually runs.

:class:`~repro.experiments.sweep.ParallelSweepEngine` owns the *what* --
memoization, the persistent store tiers, trace-group resolution, counters
-- and delegates the *where/how* of executing the jobs that survive every
cache tier to a pluggable :class:`ExecutionAdapter`:

* :class:`SerialAdapter` -- everything in-process, no pool ever created.
  The default for ``jobs=1`` (the interactive :class:`ExperimentRunner`).
* :class:`LocalPoolAdapter` -- a **persistent** ``ProcessPoolExecutor``
  (created on first use, kept for the engine's lifetime, recreated once
  after a mid-batch ``BrokenProcessPool``).  Each task pickles its jobs
  together with the trace they replay; a pool that cannot start or dies
  twice degrades to the serial path.  The default for ``jobs > 1``.

The fleet path reuses the same seam from the outside: ``python -m repro
worker`` (:mod:`repro.worker`) leases partitions from a coordinator
(:mod:`repro.core.coordinator`) and drains every one through a single
long-lived engine carrying one of the adapters above -- so fleet workers
keep one process pool across partitions, and distribution lives in the
lease protocol, not in yet another execution code path, keeping fleet
results bit-identical to local runs by construction.

Adapters call back into engine helpers (``_resolve_groups``,
``_split_resolved_groups``, ``_capture_starved_groups``,
``_run_group_serial``) rather than owning copies: those helpers maintain
engine state (trace memo, capture/store-hit/batched-replay counters) that
must stay consistent no matter which adapter ran the jobs.  Engines call
:meth:`ExecutionAdapter.close` (via ``engine.close()`` / ``__del__``) to
release whatever the adapter holds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

__all__ = [
    "ExecutionAdapter",
    "LocalPoolAdapter",
    "SerialAdapter",
]


class ExecutionAdapter(ABC):
    """Strategy for executing one batch of uncached jobs.

    ``execute`` receives the engine (for its resolution helpers, counters
    and store), the pending job list, and an ``emit(job, outcome)``
    callback that must be invoked exactly once per job as its result
    becomes available -- the engine layers persistence and progress
    streaming on top of it.
    """

    #: worker processes this adapter runs jobs on
    jobs: int = 1
    name: str = "base"

    @abstractmethod
    def execute(self, engine, pending: list, emit: Callable) -> None:
        """Run every job in ``pending``, emitting each outcome once."""

    def close(self) -> None:
        """Release long-lived resources (pools); default: nothing held."""


class SerialAdapter(ExecutionAdapter):
    """Run every trace group in-process, in submission order."""

    name = "serial"

    def execute(self, engine, pending: list, emit: Callable) -> None:
        for spec, group, trace, payload in engine._resolve_groups(pending):
            engine._run_group_serial(spec, group, trace, payload, emit)


class LocalPoolAdapter(ExecutionAdapter):
    """Shard trace groups across a persistent local process pool.

    Simulation is pure Python + numpy, so process-level parallelism is
    the only way to use more than one core.  Capture work is pinned to
    one worker per trace group (keeping every capture single-shot even
    under a pool); replays of already-resolved traces are split per
    batched-replay partition before submission, and each task pickles
    its partition's jobs together with the resolved trace.  The pool
    outlives the batch, so follow-up batches skip the worker start-up.
    A pool that cannot start (fork blocked) degrades to the serial path;
    one that dies mid-batch is recreated once and, failing that, the
    leftovers run serially -- never failing the sweep.
    """

    name = "local-pool"

    def __init__(self, jobs: Optional[int] = None):
        from .sweep import default_job_count

        self.jobs = max(1, default_job_count() if jobs is None else jobs)
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifetime ------------------------------------------------- #

    def _ensure_pool(self, engine) -> Optional[ProcessPoolExecutor]:
        """The live pool, creating it on first use (None: cannot start)."""
        if self._pool is not None:
            engine._count_pool_reuse()
            return self._pool
        try:
            import multiprocessing

            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        except OSError:
            # Restricted environments (fork blocked by seccomp/cgroups):
            # degrade to the serial path rather than failing the sweep.
            self._pool = None
        return self._pool

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- batch execution ----------------------------------------------- #

    def _submit(self, pool, task):
        """Submit one (spec, group, trace, payload) task to the pool."""
        from .sweep import execute_trace_group

        _, group, trace, payload = task
        return pool.submit(execute_trace_group, group, payload, trace)

    def _drain_once(self, engine, pool, tasks, remaining, emit) -> bool:
        """Submit every remaining task and consume completions.  Returns
        True when the pool broke mid-batch (caller recreates and retries,
        then degrades to serial)."""
        from ..isa.trace_io import decode_trace

        broken = False
        futures: dict = {}
        try:
            for index in sorted(remaining):
                futures[self._submit(pool, tasks[index])] = index
        except (OSError, BrokenProcessPool):
            broken = True
        for future in as_completed(futures):
            index = futures[future]
            spec, group, task_trace, task_payload = tasks[index]
            try:
                outcomes, captured = future.result()
            except (OSError, BrokenProcessPool):
                # Workers killed mid-batch: leave this task for the retry
                # pool (or the serial pass).
                broken = True
                continue
            if captured is not None:
                engine._count_capture(spec)
                engine._trace_store.save_payload(spec, captured)
                if engine.store is None:
                    # No store to answer later lookups: memoize the
                    # decoded trace so captured_trace() and follow-up
                    # batches never recapture.
                    try:
                        engine._memo_trace(spec, decode_trace(captured["trace"]))
                    except (KeyError, TypeError, ValueError):
                        pass
            elif task_trace is None and task_payload is not None:
                # The worker replayed a stored payload: that is the store
                # hit (counted here, post-decode; the per-spec set keeps
                # repeats idempotent).
                engine._count_store_hit(spec)
            engine._count_batched_replays(group)
            remaining.discard(index)
            # emit runs outside the except scopes above so a
            # callback/persistence error propagates instead of being
            # mistaken for a broken pool (which would silently
            # re-simulate already-finished jobs).
            for job, outcome in zip(group, outcomes):
                emit(job, outcome)
        return broken

    def execute(self, engine, pending: list, emit: Callable) -> None:
        from .sweep import batch_partitions

        tasks = engine._resolve_groups(pending)
        if self.jobs > 1:
            # Will splitting alone feed the pool?  Resolved groups yield one
            # task per batched-replay partition; capture-needed groups stay
            # whole.
            projected = sum(
                1 if trace is None and payload is None else len(batch_partitions(group))
                for _, group, trace, payload in tasks
            )
            if projected < min(self.jobs, len(pending)):
                # Too few tasks to feed the pool: capture the cold groups
                # up front (cheap) so their replays parallelize too.
                tasks = engine._capture_starved_groups(tasks)
            tasks = engine._split_resolved_groups(tasks)
        remaining = set(range(len(tasks)))
        if self.jobs > 1 and len(tasks) > 1:
            # Two attempts: the live (or fresh) pool, then -- if it broke
            # mid-batch -- one recreated pool for the leftovers.
            for _ in range(2):
                if not remaining:
                    break
                pool = self._ensure_pool(engine)
                if pool is None:
                    break
                if not self._drain_once(engine, pool, tasks, remaining, emit):
                    break
                self.close()
        for index, (spec, group, trace, payload) in enumerate(tasks):
            if index in remaining:
                engine._run_group_serial(spec, group, trace, payload, emit)
