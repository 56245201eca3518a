"""Set-associative cache hierarchy model (Table IV configuration).

The hierarchy mirrors the Snapdragon 855 prime-core configuration the paper
evaluates against: 64 KB L1-D, a 512 KB private inclusive L2 (half of which
can be repurposed for in-cache computing) and a 2 MB shared LLC, backed by
the DRAM model.  Each level tracks hit/miss statistics and models a limited
number of Miss Status Holding Registers (MSHRs) which bound the memory-level
parallelism available to wide vector gathers.

This module holds the configuration types and the block-timing helpers;
the engine itself is the batched, numpy-backed
:class:`~repro.memory.vector_cache.VectorCacheHierarchy`, which
:func:`make_hierarchy` builds.  The scalar, per-line reference it is tested
against lives beside the tests (``tests/oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np

from .dram import DRAMConfig, DRAMModel

if TYPE_CHECKING:
    from .vector_cache import VectorCacheHierarchy

__all__ = [
    "CacheConfig",
    "CacheStats",
    "AccessResult",
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


@dataclass
class AccessResult:
    """Outcome of a single cache-line access through the hierarchy."""

    latency: int
    hit_level: str


# ---------------------------------------------------------------------- #
#  Block-timing helpers (shared by the engine, the config-batched replay's
#  DRAM re-pricing and the scalar reference, so the paths cannot drift apart)
# ---------------------------------------------------------------------- #


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def dedup_lines(line_addresses: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """The line-address stream as an int64 array, deduplicated in
    first-occurrence order (the order the MSHRs would see the requests)."""
    if isinstance(line_addresses, np.ndarray):
        lines = line_addresses.astype(np.int64, copy=False).ravel()
    else:
        lines = np.fromiter(line_addresses, dtype=np.int64)
    if lines.size < 2:
        return lines
    if np.all(lines[1:] > lines[:-1]):
        # Already strictly increasing (the common output of
        # cache_line_addresses): sorted and unique by construction.
        return lines
    _, first = np.unique(lines, return_index=True)
    first.sort()
    return lines[first]


def aggregate_block_cycles(
    hit_count: int,
    miss_latencies: Sequence[int],
    mshr_entries: int,
    hit_latency: int,
    bandwidth_floor: float,
    lines_per_cycle: int,
) -> int:
    """Combine per-line outcomes of one vector block access into cycles.

    Hits stream bank-parallel after the initial access latency; misses
    overlap in windows of ``mshr_entries`` outstanding requests but can
    never beat the DRAM peak bandwidth.  Both the hit and the per-window
    streaming terms use the same rounding (the first line arrives with the
    base latency, the remaining ``n - 1`` stream at ``lines_per_cycle``,
    rounded up) and the result is an integer cycle count.
    """
    hit_cycles = 0
    if hit_count:
        hit_cycles = hit_latency + _ceil_div(hit_count - 1, lines_per_cycle)
    if not miss_latencies:
        return hit_cycles
    miss_cycles = 0
    for start in range(0, len(miss_latencies), mshr_entries):
        window = miss_latencies[start : start + mshr_entries]
        miss_cycles += max(window) + _ceil_div(len(window) - 1, lines_per_cycle)
    return hit_cycles + max(miss_cycles, math.ceil(bandwidth_floor))


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache-hierarchy configuration (defaults follow Table IV)."""

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
    dram: DRAMModel | None = None,
    l2_compute_ways: int = 4,
) -> "VectorCacheHierarchy":
    """Build the cache hierarchy (L1-D / L2 / LLC / DRAM) for ``config``."""
    from .vector_cache import VectorCacheHierarchy

    return VectorCacheHierarchy(config, dram, l2_compute_ways)
