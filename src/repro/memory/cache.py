"""Set-associative cache hierarchy model (Table IV configuration).

The configuration mirrors the Snapdragon 855 prime core the paper evaluates
against: 64 KB L1-D, a 512 KB private L2 (half of which can be repurposed
for in-cache computing) and a 2 MB shared LLC, backed by the DRAM model.
Only vector memory instructions enter the cache model, and they start at
the L2 (Section V-C), so the L1-D geometry just sets the line size.  Each
simulated level tracks hit/miss statistics, and the L2's limited number of
Miss Status Holding Registers (MSHRs) bounds the memory-level parallelism
available to wide vector gathers.

This module holds the configuration types; the engine itself is the
batched, numpy-backed :class:`~repro.memory.vector_cache.VectorCacheHierarchy`,
which :func:`make_hierarchy` builds.  It walks a whole stream of vector
memory blocks through the levels at once, level by level and in bounded
slices.  An independent, per-line reference that walks the same stream one
line at a time lives beside the tests (``tests/oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dram import DRAMConfig

if TYPE_CHECKING:
    from .vector_cache import VectorCacheHierarchy

__all__ = [
    "CacheConfig",
    "CacheStats",
    "HierarchyConfig",
    "make_hierarchy",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 4
    mshr_entries: int = 20
    #: descriptive (Table IV); no timing model back-invalidates on eviction
    inclusive: bool = True

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0:
            raise ValueError(f"cache {self.name} too small for {self.ways} ways")
        return sets


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache-hierarchy configuration (defaults follow Table IV)."""

    #: only its line size is read: no L1-D level is simulated
    l1d: CacheConfig = CacheConfig(
        name="L1-D", size_bytes=64 * 1024, ways=4, hit_latency=4, mshr_entries=20
    )
    l2: CacheConfig = CacheConfig(
        name="L2", size_bytes=512 * 1024, ways=8, hit_latency=12, mshr_entries=46
    )
    llc: CacheConfig = CacheConfig(
        name="LLC", size_bytes=2 * 1024 * 1024, ways=8, hit_latency=31, mshr_entries=64
    )
    #: backing-memory timing; part of the machine config so DRAM becomes a
    #: sweepable axis (and flows into result cache keys via config_digest)
    dram: DRAMConfig = DRAMConfig()


def make_hierarchy(
    config: HierarchyConfig | None = None,
    l2_compute_ways: int = 4,
) -> "VectorCacheHierarchy":
    """Build the cache hierarchy (L2 / LLC / DRAM) for ``config``."""
    from .vector_cache import VectorCacheHierarchy

    return VectorCacheHierarchy(config, l2_compute_ways)
