"""Design-space exploration: adaptive Pareto search over machine configs.

The subsystem behind ``python -m repro explore``: declare a
:class:`SearchSpace` (axes over scheme, engine geometry, cache/L2-compute
geometry, DRAM variant), hand it to an :class:`Explorer`, and get back the
Pareto frontier of cycles vs area vs energy -- evaluating (and above all
*simulating*) far fewer points than the full grid.  There is one search;
:func:`exhaustive_frontier` is the brute-force frontier of the whole grid
that the tests compare it against.  A search keeps no state of its own:
every point's result lives in the content-addressed store, so rerunning a
search -- after a kill, or with a bigger budget -- re-simulates nothing it
has simulated before.
"""

from .explorer import ExploreSummary, Explorer, exhaustive_frontier
from .pareto import (
    DEFAULT_OBJECTIVES,
    FrontierPoint,
    ParetoFrontier,
    PointMetrics,
    metrics_from_outcome,
)
from .space import AXIS_NAMES, Axis, DRAM_PRESETS, SearchSpace, default_space
from .state import SearchState

__all__ = [
    "AXIS_NAMES",
    "Axis",
    "DEFAULT_OBJECTIVES",
    "DRAM_PRESETS",
    "ExploreSummary",
    "Explorer",
    "FrontierPoint",
    "ParetoFrontier",
    "PointMetrics",
    "SearchSpace",
    "SearchState",
    "default_space",
    "exhaustive_frontier",
    "metrics_from_outcome",
]
