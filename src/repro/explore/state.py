"""Resumable search state, checkpointed in the content-addressed store.

A :class:`SearchState` is everything the explorer needs to continue a
search: the space (as declarative data), the per-point objective vectors it
has evaluated (compact -- no full metrics for interior points, so state
stays small even for 10^5-point explorations), the current frontier (full
metrics, but bounded by the frontier size) and one :class:`RoundRecord`
per completed round.

State lives in the same :class:`~repro.core.cache.ResultStore` as job
results and traces, under a key that hashes the space, the search knobs
(seed/strategy/objectives) and the source fingerprint -- so it can never be
replayed against code it does not match.  The *budget* is deliberately not part of the key:
resuming a finished-early search with a bigger budget continues from the
checkpoint instead of starting over.

Checkpointing is per round; a kill *mid-round* loses only the round's
bookkeeping, never simulations -- the sweep engine persists every result
to the store before its ``on_result`` callback fires, so the re-proposed
round is answered from the store without re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.cache import (
    ResultStore,
    code_fingerprint,
    load_cached_result,
    stable_hash,
    store_cached_result,
)
from ..experiments.serialize import SerializableResult
from .pareto import FrontierPoint
from .space import SearchSpace

__all__ = ["RoundRecord", "SearchState", "load_state", "save_state", "state_key"]


@dataclass
class RoundRecord(SerializableResult):
    """What one completed exploration round did."""

    index: int
    proposed: int
    #: fresh simulations this round (vs points answered by the store)
    simulated: int
    frontier_size: int
    frontier_changed: bool


@dataclass
class SearchState(SerializableResult):
    """One search's full resumable state (see module docstring)."""

    space: dict
    seed: int
    strategy: str
    objectives: tuple[str, ...]
    #: point id -> objective vector, for every point ever evaluated
    evaluated: dict[int, tuple[float, ...]] = field(default_factory=dict)
    frontier: list[FrontierPoint] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    #: the strategy proposed nothing new: the search converged (vs merely
    #: running out of budget, which leaves done=False so it can resume)
    done: bool = False

    @property
    def simulated_total(self) -> int:
        return sum(record.simulated for record in self.rounds)


def state_key(
    space: SearchSpace, seed: int, strategy: str, objectives: tuple[str, ...]
) -> str:
    return stable_hash(
        {
            "namespace": "explore-state",
            "fingerprint": code_fingerprint(),
            "space": space.to_dict(),
            "seed": seed,
            "strategy": strategy,
            "objectives": list(objectives),
        }
    )


def load_state(store: Optional[ResultStore], key: str) -> Optional[SearchState]:
    return load_cached_result(store, key, SearchState)


def save_state(store: Optional[ResultStore], key: str, state: SearchState) -> None:
    store_cached_result(store, key, state)
