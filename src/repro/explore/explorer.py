"""The adaptive search loop: propose, simulate, fold into the frontier.

One :class:`Explorer` round is

1. **propose** -- round 0 takes the seed grid (every value of a
   categorical axis, both endpoints of a numeric one); each later round
   takes the frontier's unevaluated grid neighbors, sorted.  A round that
   proposes nothing means the search converged: no frontier point has an
   unevaluated neighbor.  On monotone-ish cost surfaces this walks the
   frontier out to the exact non-dominated set while leaving interior
   regions unevaluated.
2. **evaluate** -- the points compile to :class:`KernelJob` s and run
   through the sweep engine's ``run_jobs`` (results persist to the store
   *before* each callback, so a round is kill-safe; the engine memoizes
   one outcome per evaluated point), each arrival folding into the
   :class:`~repro.explore.pareto.ParetoFrontier` incrementally.

Every run starts at round 0 and is a pure function of the space,
objectives, budget and round limit, so a rerun -- after a kill, or with a
bigger budget -- proposes the same points and the store answers every one
simulated before.  Warm-store answers count as *evaluated* but not
*simulated*; the run summary reports both against the space size, which
is how "finds the frontier while simulating measurably fewer configs" is
made a checkable claim rather than a slogan.  :func:`exhaustive_frontier`
folds every point of the grid the same way: the ground truth the tests
compare the search against.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..core.cache import ResultStore
from ..experiments.sweep import KernelJob, OnResult, ParallelSweepEngine
from .pareto import DEFAULT_OBJECTIVES, FrontierPoint, ParetoFrontier, metrics_from_outcome
from .space import SearchSpace
from .state import BUDGET_SPENT, CONVERGED, ROUND_LIMIT, SearchState

__all__ = ["ExploreSummary", "Explorer", "exhaustive_frontier"]


@dataclass
class ExploreSummary:
    """What one ``Explorer.run`` call did."""

    state: SearchState
    space_size: int
    elapsed_s: float

    @property
    def simulated_this_run(self) -> int:
        """Fresh simulations of this call (a fully warm rerun reports 0)."""
        return self.state.simulated

    @property
    def evaluated(self) -> int:
        return len(self.state.evaluated)

    @property
    def frontier_size(self) -> int:
        return len(self.state.frontier)

    def describe(self) -> str:
        state = self.state
        return (
            f"frontier {self.frontier_size} points | evaluated {self.evaluated}"
            f"/{self.space_size} configs ({self.space_size - self.evaluated} never "
            f"evaluated) | {self.simulated_this_run} simulated this run | "
            f"{state.rounds} rounds, {state.stopped} | {self.elapsed_s:.1f}s"
        )


def _neighbors(space: SearchSpace, point: int) -> Iterator[int]:
    """Grid neighbors: one step along one axis (categorical axes included
    -- their declared order acts as the step order, which keeps every
    category reachable from any seed)."""
    indices = space.point_indices(point)
    shape = space.shape()
    for position, index in enumerate(indices):
        for step in (-1, 1):
            moved = index + step
            if 0 <= moved < shape[position]:
                yield space.point_from_indices(
                    indices[:position] + (moved,) + indices[position + 1 :]
                )


class Explorer:
    """Drives one search over one :class:`SearchSpace` (see module doc)."""

    def __init__(
        self,
        space: SearchSpace,
        store: Optional[ResultStore] = None,
        engine: Optional[ParallelSweepEngine] = None,
        jobs: int = 1,
        objectives: tuple[str, ...] = DEFAULT_OBJECTIVES,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.space = space
        self.engine = engine if engine is not None else ParallelSweepEngine(jobs=jobs, store=store)
        self.objectives = tuple(objectives)
        ParetoFrontier(self.objectives)  # validate objective names eagerly
        self.log = log or (lambda message: None)

    def _propose(self, state: SearchState) -> list[int]:
        """The next round's point ids (see module doc); empty once the
        search has converged."""
        space = self.space
        if not state.rounds:
            picks = [
                range(len(axis.values))
                if axis.is_categorical
                else sorted({0, len(axis.values) - 1})
                for axis in space.axes
            ]
            return [
                space.point_from_indices(indices)
                for indices in itertools.product(*picks)
            ]
        neighbors = {
            neighbor
            for member in state.frontier
            for neighbor in _neighbors(space, member.point)
        }
        return sorted(neighbors - set(state.evaluated))

    def _evaluate(
        self,
        points: list[int],
        state: SearchState,
        frontier: ParetoFrontier,
        on_result: Optional[OnResult] = None,
    ) -> bool:
        """Run ``points`` through the engine, folding each arrival into
        ``state`` and ``frontier``; True iff the frontier changed."""
        jobs = self.space.jobs(points)
        point_of = dict(zip(jobs, points))
        computed_before = self.engine.computed
        changed = False

        def fold(job: KernelJob, outcome, completed: int, total: int) -> None:
            nonlocal changed
            point = point_of[job]
            metrics = metrics_from_outcome(job.config, outcome)
            state.evaluated[point] = frontier.vector(metrics)
            member = FrontierPoint(
                point=point,
                values=self.space.point_values(point),
                cache_key=job.cache_key(),
                metrics=metrics,
            )
            if frontier.update(member):
                changed = True
            if on_result is not None:
                on_result(job, outcome, completed, total)

        self.engine.run_jobs(jobs, on_result=fold)
        state.simulated += self.engine.computed - computed_before
        state.frontier = frontier.points
        return changed

    def run(
        self,
        budget: int = 64,
        max_rounds: int = 64,
        on_result: Optional[OnResult] = None,
    ) -> ExploreSummary:
        """Search until converged, or ``budget`` evaluated points /
        ``max_rounds`` rounds -- whichever first; ``state.stopped`` says
        which.  Always starts at round 0; the store answers every point an
        earlier run simulated."""
        started = time.perf_counter()
        state = SearchState(objectives=self.objectives)
        frontier = ParetoFrontier(self.objectives)

        while True:
            remaining_budget = budget - len(state.evaluated)
            if remaining_budget <= 0:
                state.stopped = BUDGET_SPENT
                break
            if state.rounds >= max_rounds:
                state.stopped = ROUND_LIMIT
                break
            proposals = self._propose(state)[:remaining_budget]
            if not proposals:
                state.stopped = CONVERGED
                break
            simulated_before = state.simulated
            changed = self._evaluate(proposals, state, frontier, on_result)
            self.log(
                f"round {state.rounds}: {len(proposals)} points "
                f"({state.simulated - simulated_before} simulated), "
                f"frontier {len(frontier)}{' (changed)' if changed else ''}, "
                f"evaluated {len(state.evaluated)}/{self.space.size}"
            )
            state.rounds += 1

        return ExploreSummary(
            state=state,
            space_size=self.space.size,
            elapsed_s=time.perf_counter() - started,
        )


def exhaustive_frontier(
    space: SearchSpace,
    store: Optional[ResultStore] = None,
    engine: Optional[ParallelSweepEngine] = None,
    objectives: tuple[str, ...] = DEFAULT_OBJECTIVES,
) -> list[FrontierPoint]:
    """Brute-force ground truth: the frontier of the *entire* grid, every
    point folded as a search round folds its points.  Shares the store with
    any prior search, so it only simulates the points the search skipped."""
    explorer = Explorer(space, store=store, engine=engine, objectives=objectives)
    state = SearchState(objectives=explorer.objectives)
    explorer._evaluate(list(range(space.size)), state, ParetoFrontier(explorer.objectives))
    return state.frontier
