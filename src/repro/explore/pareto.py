"""Streaming Pareto-frontier maintenance over cost/performance metrics.

The explorer's objectives are the paper's three evaluation currencies:
cycles (performance), silicon area (:mod:`repro.core.area`, Table V) and
energy (:mod:`repro.core.energy`).  :class:`ParetoFrontier` consumes one
:class:`FrontierPoint` at a time -- the shape ``on_result`` streaming
delivers -- and keeps exactly the non-dominated set, so memory is bounded
by the frontier size, never the number of evaluated points, and the final
frontier is invariant to the order results arrive in (asserted with
hypothesis): dominance is a property of the point set, and insertion
prunes exactly the points a batch rebuild would.

Dominance is the standard weak form: ``a`` dominates ``b`` iff ``a`` is
no worse on every objective and strictly better on at least one.  Points
with *equal* objective vectors do not dominate each other, so ties are
all kept -- which is what makes adaptive and exhaustive searches compare
bit-identical instead of keeping an arbitrary tie representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.area import AreaModel, AreaReport
from ..core.config import MachineConfig
from ..core.energy import EnergyBreakdown
from ..experiments.serialize import SerializableResult
from ..experiments.sweep import JobOutcome

__all__ = [
    "DEFAULT_OBJECTIVES",
    "FrontierPoint",
    "ParetoFrontier",
    "PointMetrics",
    "metrics_from_outcome",
]


@dataclass
class PointMetrics(SerializableResult):
    """Everything the frontier (and its export) knows about one point."""

    cycles: float
    time_us: float
    energy: EnergyBreakdown
    area: AreaReport
    spills: int = 0


#: objective name -> minimized scalar extracted from :class:`PointMetrics`
_OBJECTIVES: dict[str, Callable[[PointMetrics], float]] = {
    "cycles": lambda metrics: float(metrics.cycles),
    "time_us": lambda metrics: float(metrics.time_us),
    "area": lambda metrics: float(metrics.area.total_mm2),
    "energy": lambda metrics: float(metrics.energy.total_nj),
}

DEFAULT_OBJECTIVES: tuple[str, ...] = ("cycles", "area", "energy")


def metrics_from_outcome(config: MachineConfig, outcome: JobOutcome) -> PointMetrics:
    """Metrics for one simulated point: timing/energy from the simulation
    result, area from the analytic Table V model (config-only, so it costs
    nothing extra per point)."""
    area = AreaModel(
        num_arrays=config.engine.num_arrays,
        arrays_per_control_block=config.engine.arrays_per_control_block,
    ).report()
    result = outcome.result
    return PointMetrics(
        cycles=float(result.total_cycles),
        time_us=float(result.time_us),
        energy=result.energy,
        area=area,
        spills=int(outcome.spills),
    )


@dataclass
class FrontierPoint(SerializableResult):
    """One point on (or fed to) the frontier, in wire-serializable form."""

    point: int
    values: dict[str, Any]
    cache_key: str
    metrics: PointMetrics


class ParetoFrontier:
    """Incremental non-dominated set under the named minimized objectives."""

    def __init__(self, objectives: Sequence[str] = DEFAULT_OBJECTIVES):
        unknown = [name for name in objectives if name not in _OBJECTIVES]
        if unknown:
            raise ValueError(
                f"unknown objectives {unknown}; known: {', '.join(sorted(_OBJECTIVES))}"
            )
        if not objectives:
            raise ValueError("need at least one objective")
        repeated = sorted({name for name in objectives if objectives.count(name) > 1})
        if repeated:
            raise ValueError(f"repeated objectives {repeated}")
        self.objectives = tuple(objectives)
        self._members: list[tuple[tuple[float, ...], FrontierPoint]] = []

    def vector(self, metrics: PointMetrics) -> tuple[float, ...]:
        return tuple(_OBJECTIVES[name](metrics) for name in self.objectives)

    @staticmethod
    def _dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    def update(self, point: FrontierPoint) -> bool:
        """Fold one point in; True iff the frontier changed.

        A dominated arrival leaves the set untouched, so the peak cost of a
        round is O(frontier x arrivals), independent of how many points the
        search has evaluated."""
        vector = self.vector(point.metrics)
        if any(self._dominates(held, vector) for held, _ in self._members):
            return False
        self._members = [
            (held, member)
            for held, member in self._members
            if not self._dominates(vector, held)
        ]
        self._members.append((vector, point))
        return True

    @property
    def points(self) -> list[FrontierPoint]:
        """The frontier in canonical (point-id) order -- the comparable,
        exportable form."""
        return [member for _, member in sorted(self._members, key=lambda m: m[1].point)]

    def __len__(self) -> int:
        return len(self._members)
