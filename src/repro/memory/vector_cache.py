"""Batched, numpy-backed cache hierarchy: the engine every simulation uses.

:func:`repro.memory.cache.make_hierarchy` builds it.  Tags, valid/dirty
bits and the LRU clock live in ``(num_sets, ways)`` arrays, and
:meth:`VectorCacheHierarchy.block_access` walks a whole vector op's
deduplicated line list through L2 -> LLC -> DRAM in array form:
set-indexing, tag compare, victim selection, the MSHR windowing and the DRAM
row-buffer classification are all vectorized.  Only vector memory
instructions enter the model; scalar loads and stores are charged in the
core timeline and never reach it.

The engine is bit-for-bit identical to the independent, per-line reference
in ``tests/oracle.py``; the property suite in ``tests/test_properties.py``
drives random block streams through both and asserts identical latencies
and statistics.  Exactness hinges on three observations:

* the levels are non-inclusive and never talk back to each other, so each
  one sees the same ordered line stream whether lines walk the hierarchy
  one at a time or level by level,
* the LRU clock only ever *compares* within one set, so per-access tick
  values can be assigned up front from each line's position in the batch,
  and
* sets are independent of each other, so the batch is replayed as rounds --
  round *r* carries every set's *r*-th line -- where each round touches
  pairwise-distinct sets and resolves fully in parallel.  A batch with no
  set conflicts (the common case) is a single round.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Sequence, Union

import numpy as np

from .cache import CacheConfig, CacheStats, HierarchyConfig
from .dram import DRAMModel

__all__ = ["VectorCache", "VectorCacheHierarchy"]


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


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


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


class VectorCache:
    """One set-associative, write-back, LRU cache level on numpy state."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        shape = (self._num_sets, config.ways)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._valid = np.zeros(shape, dtype=bool)
        self._dirty = np.zeros(shape, dtype=bool)
        self._lru = np.zeros(shape, dtype=np.int64)
        self._tick = 0

    def reset(self) -> None:
        self.stats = CacheStats()
        self._tags.fill(-1)
        self._valid.fill(False)
        self._dirty.fill(False)
        self._lru.fill(0)
        self._tick = 0

    # -- read-only probes (tests) ---------------------------------------- #

    def probe(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no stats update)."""
        line_addr = address // self.config.line_bytes
        index, tag = line_addr % self._num_sets, line_addr // self._num_sets
        return bool((self._valid[index] & (self._tags[index] == tag)).any())

    def dirty_line_count(self) -> int:
        return int((self._valid & self._dirty).sum())

    def valid_line_count(self) -> int:
        return int(self._valid.sum())

    # -- batched access -------------------------------------------------- #

    def access_batch(self, addresses: np.ndarray, is_write: bool = False) -> np.ndarray:
        """Access a batch of distinct lines; returns the per-line hit mask.

        Equivalent to accessing the lines one at a time in order: a hit
        refreshes the line's LRU tick (and dirties it on a write); a miss
        installs the line, filling invalid ways before evicting the LRU one.
        Each access's LRU tick comes from its batch position, so the only
        ordering that matters is between lines mapping to the same set;
        those resolve over successive all-distinct-sets rounds.
        """
        addresses = addresses.astype(np.int64, copy=False).ravel()
        n = int(addresses.size)
        hits = np.zeros(n, dtype=bool)
        if n == 0:
            return hits
        line_addr = addresses // self.config.line_bytes
        index = line_addr % self._num_sets
        tag = line_addr // self._num_sets
        ticks = self._tick + 1 + np.arange(n, dtype=np.int64)
        self._tick += n

        # Rank each line within its set (0 for the set's first line in the
        # batch, 1 for its second, ...).  Round r then touches every set at
        # most once, so all of round r resolves in parallel, and per-set
        # request order -- the only order that matters -- is preserved
        # across rounds.  Sets receiving many lines are inherently
        # sequential, so they are replayed in one tight per-set loop instead
        # of degenerating into thousands of single-line rounds.
        order = np.argsort(index, kind="stable")
        sorted_index = index[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        starts[1:] = sorted_index[1:] != sorted_index[:-1]
        group_first = np.flatnonzero(starts)
        group_id = np.cumsum(starts) - 1
        counts = np.diff(np.append(group_first, n))
        rank = np.arange(n, dtype=np.int64) - group_first[group_id]

        hot = counts > self._HOT_SET_THRESHOLD
        if hot.any():
            for group in np.flatnonzero(hot).tolist():
                begin = int(group_first[group])
                members = order[begin : begin + int(counts[group])]
                self._replay_set(
                    int(sorted_index[begin]),
                    tag[members],
                    ticks[members],
                    is_write,
                    hits,
                    members,
                )
            cold_sorted = ~hot[group_id]
            round_count = int(counts[~hot].max()) if (~hot).any() else 0
        else:
            cold_sorted = None
            round_count = int(counts.max())

        for round_number in range(round_count):
            in_round = rank == round_number
            if cold_sorted is not None:
                in_round &= cold_sorted
            members = order[in_round]
            if members.size == 0:
                break
            self._access_distinct_sets(
                index[members], tag[members], ticks[members], is_write, hits, members
            )
        return hits

    #: batch lines landing in one set before it is replayed sequentially
    #: rather than spread over all-distinct-sets rounds
    _HOT_SET_THRESHOLD = 8

    def _replay_set(
        self,
        index: int,
        tags: np.ndarray,
        ticks: np.ndarray,
        is_write: bool,
        hits: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Replay one heavily-conflicted set's lines in request order.

        The set's ways are pulled into plain Python lists once, mutated in a
        tight loop (identical transition rules to
        :meth:`_access_distinct_sets`) and written back, so a set receiving hundreds of batch lines costs
        O(lines * ways) Python-level operations and no per-line numpy calls.
        """
        way_tags = self._tags[index].tolist()
        way_valid = self._valid[index].tolist()
        way_dirty = self._dirty[index].tolist()
        way_lru = self._lru[index].tolist()
        ways = len(way_tags)
        hit_count = miss_count = evictions = writebacks = 0

        for tag, tick, position in zip(tags.tolist(), ticks.tolist(), positions.tolist()):
            way = None
            for candidate in range(ways):
                if way_valid[candidate] and way_tags[candidate] == tag:
                    way = candidate
                    break
            if way is not None:
                hits[position] = True
                hit_count += 1
                way_lru[way] = tick
                if is_write:
                    way_dirty[way] = True
                continue
            miss_count += 1
            way = None
            for candidate in range(ways):
                if not way_valid[candidate]:
                    way = candidate
                    break
            if way is None:
                way = min(range(ways), key=way_lru.__getitem__)
                evictions += 1
                if way_dirty[way]:
                    writebacks += 1
            way_tags[way] = tag
            way_valid[way] = True
            way_dirty[way] = is_write
            way_lru[way] = tick

        self._tags[index] = way_tags
        self._valid[index] = way_valid
        self._dirty[index] = way_dirty
        self._lru[index] = way_lru
        self.stats.hits += hit_count
        self.stats.misses += miss_count
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks

    def _access_distinct_sets(
        self,
        index: np.ndarray,
        tag: np.ndarray,
        ticks: np.ndarray,
        is_write: bool,
        hits: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Resolve a round of lines mapping to pairwise-distinct sets."""
        set_valid = self._valid[index]  # (m, ways) gathers
        match = set_valid & (self._tags[index] == tag[:, None])
        is_hit = match.any(axis=1)
        hits[positions] = is_hit

        hit_sets = index[is_hit]
        if hit_sets.size:
            hit_ways = match[is_hit].argmax(axis=1)
            self._lru[hit_sets, hit_ways] = ticks[is_hit]
            if is_write:
                self._dirty[hit_sets, hit_ways] = True

        missed = ~is_hit
        miss_sets = index[missed]
        if miss_sets.size:
            invalid = ~set_valid[missed]
            has_invalid = invalid.any(axis=1)
            victim = np.where(
                has_invalid, invalid.argmax(axis=1), self._lru[miss_sets].argmin(axis=1)
            )
            victim_valid = self._valid[miss_sets, victim]
            self.stats.evictions += int(victim_valid.sum())
            self.stats.writebacks += int(
                (victim_valid & self._dirty[miss_sets, victim]).sum()
            )
            self._tags[miss_sets, victim] = tag[missed]
            self._valid[miss_sets, victim] = True
            self._dirty[miss_sets, victim] = is_write
            self._lru[miss_sets, victim] = ticks[missed]

        self.stats.hits += int(is_hit.sum())
        self.stats.misses += int(missed.sum())


class VectorCacheHierarchy:
    """Private L2 / shared LLC backed by DRAM, on :class:`VectorCache` levels.

    ``l2_compute_ways`` of the L2 are repurposed for in-cache computing
    (default: half), which halves the cache capacity available to normal
    lookups while MVE is active.  :meth:`block_access` is the one walk of a
    vector memory op through the levels.
    """

    #: cache lines the L2 can hand to the TMU per cycle once streaming
    #: (the compute half reads whole 64 B lines bank-parallel)
    VECTOR_LINES_PER_CYCLE = 2

    def __init__(self, config: HierarchyConfig | None = None, l2_compute_ways: int = 4):
        self.config = config or HierarchyConfig()
        l2 = self.config.l2
        storage_ways = max(1, l2.ways - l2_compute_ways)
        self.l2 = VectorCache(
            replace(l2, size_bytes=l2.size_bytes * storage_ways // l2.ways, ways=storage_ways)
        )
        self.llc = VectorCache(self.config.llc)
        self.dram = DRAMModel(self.config.dram)

    def reset(self) -> None:
        self.l2.reset()
        self.llc.reset()
        self.dram.reset()

    def reset_stats(self) -> None:
        """Clear statistics while keeping cache contents (warm-cache runs)."""
        self.l2.stats = CacheStats()
        self.llc.stats = CacheStats()
        self.dram.stats = type(self.dram.stats)()

    @property
    def line_bytes(self) -> int:
        return self.config.l1d.line_bytes

    def block_access(
        self,
        line_addresses: Union[np.ndarray, Iterable[int]],
        is_write: bool,
        dram_models: Sequence[DRAMModel],
    ) -> tuple[list[int], int, int, int]:
        """Walk one vector memory op's cache lines through L2 -> LLC -> DRAM.

        Returns ``(cycles, l2_hits, llc_hits, dram_accesses)``.  The state
        walk -- hits, victims, open DRAM rows -- runs once, on this
        hierarchy's own DRAM; ``cycles`` then prices the block under each of
        ``dram_models`` (timing variants sharing this DRAM's structure; an
        empty list only walks).  A block's cycles are the estimate until all
        its lines reach the Transpose Memory Unit's input: hits stream at
        :data:`VECTOR_LINES_PER_CYCLE`, misses overlap up to the L2 MSHR
        count.
        """
        lines = dedup_lines(line_addresses)
        if lines.size == 0:
            return [0] * len(dram_models), 0, 0, 0
        config = self.config
        l2_hits = self.l2.access_batch(lines, is_write)
        hit_count = int(l2_hits.sum())
        miss_lines = lines[~l2_hits]
        llc_hit_count = 0
        dram_lines = miss_lines
        if miss_lines.size:
            llc_hits = self.llc.access_batch(miss_lines, is_write)
            llc_hit_count = int(llc_hits.sum())
            dram_lines = miss_lines[~llc_hits]
        row_hit = None
        if dram_lines.size:
            row_hit = self.dram.classify_batch(dram_lines, is_write, self.line_bytes)

        cycles = []
        for model in dram_models:
            latencies = np.full(
                miss_lines.size, config.l2.hit_latency + config.llc.hit_latency, dtype=np.int64
            )
            if row_hit is not None:
                latencies[~llc_hits] += model.latencies_from_classification(
                    row_hit, self.line_bytes
                )
            cycles.append(
                aggregate_block_cycles(
                    hit_count,
                    latencies.tolist(),
                    config.l2.mshr_entries,
                    config.l2.hit_latency,
                    model.bandwidth_cycles(miss_lines.size * self.line_bytes),
                    self.VECTOR_LINES_PER_CYCLE,
                )
            )
        return cycles, hit_count, llc_hit_count, int(dram_lines.size)
