"""The adaptive search loop: propose, simulate, fold into the frontier.

One :class:`Explorer` round is

1. **propose** -- the strategy names the next point ids (deterministic:
   the round RNG derives from the search seed and round index),
2. **evaluate** -- the points compile to :class:`KernelJob` s and run
   through the sweep engine's ``run_jobs`` (results persist to the store
   *before* each callback, so a round is kill-safe; the engine memoizes
   one outcome per evaluated point), each arrival folding into the
   :class:`~repro.explore.pareto.ParetoFrontier` incrementally.

Every run starts at round 0 and is a pure function of the space, strategy,
objectives, budget and round limit (and, for ``random``, of seed and
batch), so a rerun -- after a kill, or with a bigger budget -- proposes
the same points and the store answers every one simulated before.
Warm-store answers count as *evaluated* but not *simulated*; the run
summary reports both against the space size, which is how "finds the
frontier while simulating measurably fewer configs" is made a checkable
claim rather than a slogan.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..core.cache import ResultStore
from ..experiments.sweep import KernelJob, OnResult, ParallelSweepEngine
from .pareto import DEFAULT_OBJECTIVES, FrontierPoint, ParetoFrontier, metrics_from_outcome
from .space import SearchSpace
from .state import BUDGET_SPENT, CONVERGED, ROUND_LIMIT, SearchState
from .strategy import Strategy, get_strategy

__all__ = ["ExploreSummary", "Explorer", "exhaustive_frontier"]

#: default per-round proposal cap for sampling strategies
DEFAULT_BATCH = 16


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


class Explorer:
    """Drives one search over one :class:`SearchSpace` (see module doc)."""

    def __init__(
        self,
        space: SearchSpace,
        store: Optional[ResultStore] = None,
        engine: Optional[ParallelSweepEngine] = None,
        jobs: int = 1,
        strategy: Union[str, Strategy] = "frontier",
        seed: int = 0,
        objectives: tuple[str, ...] = DEFAULT_OBJECTIVES,
        batch: int = DEFAULT_BATCH,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.space = space
        self.engine = engine if engine is not None else ParallelSweepEngine(jobs=jobs, store=store)
        self.strategy = get_strategy(strategy) if isinstance(strategy, str) else strategy
        self.seed = int(seed)
        self.objectives = tuple(objectives)
        ParetoFrontier(self.objectives)  # validate objective names eagerly
        self.batch = max(1, int(batch))
        self.log = log or (lambda message: None)

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
        state = SearchState(
            seed=self.seed, strategy=self.strategy.name, objectives=self.objectives
        )
        frontier = ParetoFrontier(self.objectives)

        while True:
            remaining_budget = budget - len(state.evaluated)
            if remaining_budget <= 0:
                state.stopped = BUDGET_SPENT
                break
            if state.rounds >= max_rounds:
                state.stopped = ROUND_LIMIT
                break
            index = state.rounds
            rng = random.Random(f"{self.seed}:{index}")
            proposals = self.strategy.propose(self.space, state, rng, self.batch)
            proposals = [
                point
                for point in dict.fromkeys(proposals)
                if point not in state.evaluated
            ]
            if not proposals:
                state.stopped = CONVERGED
                break
            proposals = proposals[:remaining_budget]
            jobs = self.space.jobs(proposals)
            point_of = dict(zip(jobs, proposals))
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
            simulated = self.engine.computed - computed_before
            state.simulated += simulated
            state.frontier = frontier.points
            state.rounds += 1
            self.log(
                f"round {index} [{self.strategy.name}]: {len(proposals)} points "
                f"({simulated} simulated), frontier {len(frontier)}"
                f"{' (changed)' if changed else ''}, "
                f"evaluated {len(state.evaluated)}/{self.space.size}"
            )

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
    seed: int = 0,
) -> list[FrontierPoint]:
    """Brute-force ground truth: the frontier of the *entire* grid.  Shares
    the store with any prior adaptive run, so it only simulates the
    points the search skipped."""
    explorer = Explorer(
        space,
        store=store,
        engine=engine,
        strategy="exhaustive",
        seed=seed,
        objectives=objectives,
    )
    summary = explorer.run(budget=space.size, max_rounds=space.size)
    return summary.state.frontier
