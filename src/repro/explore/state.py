"""In-memory progress of one search.

A :class:`SearchState` is what the search reads to propose the next
round and what the frontier export publishes: the objective vector of
every point evaluated so far (compact -- no full metrics for interior
points), the current frontier (full metrics, but bounded by the frontier
size) and how many rounds and fresh simulations this run took.

It is never stored.  Every result it holds came from a job whose outcome
the content-addressed :class:`~repro.core.cache.ResultStore` keeps, and a
search is a pure function of its inputs, so a rerun rebuilds the same
state with the store answering every point simulated before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pareto import FrontierPoint

__all__ = ["SearchState", "CONVERGED", "BUDGET_SPENT", "ROUND_LIMIT"]

#: why a search stopped (:attr:`SearchState.stopped`): the search
#: proposed nothing new, every point of the budget was evaluated, or the
#: round limit was reached
CONVERGED = "converged"
BUDGET_SPENT = "budget spent"
ROUND_LIMIT = "round limit reached"


@dataclass
class SearchState:
    """One search's progress (see module docstring)."""

    objectives: tuple[str, ...]
    #: point id -> objective vector, for every point evaluated
    evaluated: dict[int, tuple[float, ...]] = field(default_factory=dict)
    frontier: list[FrontierPoint] = field(default_factory=list)
    #: completed rounds
    rounds: int = 0
    #: fresh simulations (vs points answered by the store or the engine memo)
    simulated: int = 0
    #: why the search stopped (one of the reasons above); ``""`` while it runs
    stopped: str = ""

    @property
    def done(self) -> bool:
        """The search converged (vs stopping on its budget or round limit)."""
        return self.stopped == CONVERGED
