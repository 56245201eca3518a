"""Pluggable proposal strategies for the design-space explorer.

A :class:`Strategy` proposes the next batch of point ids given the space
and the search state; proposing nothing signals convergence.  All
randomness comes from the per-round RNG the explorer hands in (seeded
from the search seed and the round index), so a search is a pure function
of its space, strategy, objectives, budget and round limit (and, for
``random``, of seed and batch) -- rerunning a killed search replays
identical proposals and the warm store answers the overlap.

Shipped strategies:

* ``frontier`` (default) -- coarse seed grid (every value of categorical
  axes, endpoints of numeric ones), then repeatedly evaluate the grid
  neighborhood of the current frontier until no frontier point has an
  unevaluated neighbor.  On monotone-ish cost surfaces this walks the
  frontier out to the exact non-dominated set while leaving interior
  regions unevaluated.
* ``random`` -- seeded uniform sampling without replacement; converges
  only by exhausting the space.  The baseline the adaptive strategies
  are judged against.
* ``exhaustive`` -- propose everything (brute force); the ground truth
  the equivalence tests compare frontiers against.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .space import SearchSpace
    from .state import SearchState

__all__ = [
    "STRATEGY_NAMES",
    "ExhaustiveStrategy",
    "FrontierNeighborhoodStrategy",
    "RandomStrategy",
    "Strategy",
    "get_strategy",
]


class Strategy:
    """Proposal seam: subclass and register in :func:`get_strategy`."""

    name = "abstract"

    def propose(
        self,
        space: "SearchSpace",
        state: "SearchState",
        rng: random.Random,
        batch: int,
    ) -> list[int]:
        """Point ids to evaluate next (the explorer dedups against
        ``state.evaluated``); an empty list means converged."""
        raise NotImplementedError


def _unevaluated(space: "SearchSpace", state: "SearchState") -> list[int]:
    return [point for point in range(space.size) if point not in state.evaluated]


def _neighbors(space: "SearchSpace", point: int) -> Iterator[int]:
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


class ExhaustiveStrategy(Strategy):
    name = "exhaustive"

    def propose(self, space, state, rng, batch):
        return _unevaluated(space, state)


class RandomStrategy(Strategy):
    name = "random"

    def propose(self, space, state, rng, batch):
        remaining = _unevaluated(space, state)
        if len(remaining) <= batch:
            return remaining
        return sorted(rng.sample(remaining, batch))


class FrontierNeighborhoodStrategy(Strategy):
    """Seed coarsely, then grow the frontier's grid neighborhood to a
    fixed point (see module docstring)."""

    name = "frontier"

    def __init__(self, seed_points_per_axis: int = 2):
        self.seed_points_per_axis = max(2, seed_points_per_axis)

    def _seed_grid(self, space: "SearchSpace") -> list[int]:
        per_axis = []
        for axis in space.axes:
            count = len(axis.values)
            if axis.is_categorical or count <= self.seed_points_per_axis:
                picks = list(range(count))
            else:
                # Evenly spaced value indices, endpoints always included.
                span = self.seed_points_per_axis - 1
                picks = sorted({round(k * (count - 1) / span) for k in range(span + 1)})
            per_axis.append(picks)
        return [
            space.point_from_indices(indices)
            for indices in itertools.product(*per_axis)
        ]

    def propose(self, space, state, rng, batch):
        if not state.rounds:
            return [p for p in self._seed_grid(space) if p not in state.evaluated]
        frontier_neighbors = {
            neighbor
            for member in state.frontier
            for neighbor in _neighbors(space, member.point)
        }
        return sorted(frontier_neighbors - set(state.evaluated))


def get_strategy(name: str) -> Strategy:
    try:
        return {
            ExhaustiveStrategy.name: ExhaustiveStrategy,
            RandomStrategy.name: RandomStrategy,
            FrontierNeighborhoodStrategy.name: FrontierNeighborhoodStrategy,
        }[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}"
        ) from None


STRATEGY_NAMES: tuple[str, ...] = (
    FrontierNeighborhoodStrategy.name,
    RandomStrategy.name,
    ExhaustiveStrategy.name,
)
