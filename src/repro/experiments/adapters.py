"""The persistent local process pool behind ``ParallelSweepEngine(jobs > 1)``.

:class:`~repro.experiments.sweep.ParallelSweepEngine` owns the *what* --
memoization, the persistent store, trace resolution, counters -- and, for
``jobs > 1``, hands its uncached trace groups to a :class:`LocalPoolAdapter`:
a ``ProcessPoolExecutor`` created on first use, kept for the engine's
lifetime and recreated once after a mid-batch ``BrokenProcessPool``.

Every group is resolved in the parent before anything is submitted, through
the engine's memo-then-store lookup.  A group whose trace is in hand splits
into one task per batched-replay partition and pickles the trace with it; a
cold group ships whole and captures in its worker, which returns the
encoded capture for the engine to count and persist.  A batch of one task,
a pool that cannot start or one that dies twice runs its leftovers
in-process through :meth:`ParallelSweepEngine.captured_trace` -- never
failing the sweep.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

__all__ = ["LocalPoolAdapter"]


class LocalPoolAdapter:
    """Shard trace groups across a persistent local process pool (see the
    module docstring)."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- pool lifetime ------------------------------------------------- #

    def _ensure_pool(self, engine) -> Optional[ProcessPoolExecutor]:
        """The live pool, creating it on first use (None: cannot start)."""
        if self._executor is not None:
            engine.pool_reuses += 1
            return self._executor
        try:
            import multiprocessing

            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        except OSError:
            # Restricted environments (fork blocked by seccomp/cgroups):
            # degrade to the in-process path rather than failing the sweep.
            self._executor = None
        return self._executor

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- batch execution ----------------------------------------------- #

    def _submit(self, pool, task):
        """Submit one (spec, jobs, trace) task to the pool."""
        from .sweep import execute_trace_group

        _, group, trace = task
        return pool.submit(execute_trace_group, group, trace)

    def _drain_once(self, engine, pool, tasks, remaining, emit) -> bool:
        """Submit every remaining task and consume completions.  Returns
        True when the pool broke mid-batch (the caller recreates it once,
        then runs the leftovers in-process)."""
        broken = False
        futures: dict = {}
        try:
            for index in sorted(remaining):
                futures[self._submit(pool, tasks[index])] = index
        except (OSError, BrokenProcessPool):
            broken = True
        for future in as_completed(futures):
            index = futures[future]
            spec, group, _ = tasks[index]
            try:
                outcomes, payload = future.result()
            except (OSError, BrokenProcessPool):
                # Workers killed mid-batch: leave this task for the retry
                # pool (or the in-process pass).
                broken = True
                continue
            if payload is not None:
                engine._record_worker_capture(spec, payload)
            engine._count_batched_replays(group)
            remaining.discard(index)
            # emit runs outside the except scopes above so a
            # callback/persistence error propagates instead of being
            # mistaken for a broken pool (which would silently
            # re-simulate already-finished jobs).
            for job, outcome in zip(group, outcomes):
                emit(job, outcome)
        return broken

    def execute(self, engine, groups: dict, emit: Callable) -> None:
        """Run every ``{spec: jobs}`` group, calling ``emit(job, outcome)``
        once per job in completion order."""
        from .sweep import batch_partitions

        tasks = []
        for spec, group in groups.items():
            trace = engine._stored_trace(spec)
            if trace is None:
                tasks.append((spec, group, None))
            else:
                tasks.extend((spec, partition, trace) for partition in batch_partitions(group))
        remaining = set(range(len(tasks)))
        if len(tasks) > 1:
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
        for index in sorted(remaining):
            spec, group, trace = tasks[index]
            if trace is None:
                trace = engine.captured_trace(spec)
            engine._replay_group(group, trace, emit)
