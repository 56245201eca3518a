"""Batched, numpy-backed cache hierarchy: the engine every simulation uses.

:func:`repro.memory.cache.make_hierarchy` builds it.  Tags, dirty bits and
the LRU clock live in ``(num_sets, ways)`` arrays.  Only vector memory
instructions enter the model; scalar loads and stores are charged in the
core timeline and never reach it.

:meth:`VectorCacheHierarchy.walk` takes a whole stream of vector memory
blocks -- one line list per instruction, one write flag per block -- and
walks it level by level: the L2 sees the concatenated line
stream, the LLC sees the L2-miss stream and DRAM classifies the LLC-miss
stream.  Per-block hit counts and cycles then fall out of segment
reductions over block ids.  The result is bit-for-bit what walking the
blocks one line at a time gives (the per-line reference in
``tests/oracle.py``; ``tests/test_properties.py`` drives random block
streams through both).  Exactness hinges on three observations:

* the levels are non-inclusive and never talk back to each other, so each
  one sees the same ordered line stream whether lines walk the hierarchy
  one at a time or level by level, and a line's write flag only feeds dirty
  bits and read/write statistics, never a hit;
* the LRU clock only ever *compares* within one set, so per-access tick
  values can be assigned up front from each line's position in the stream;
  and
* sets are independent of each other, so a batch is replayed as rounds --
  round *r* carries every set's *r*-th line -- where each round touches
  pairwise-distinct sets and resolves fully in parallel.  Sorting the batch
  once by (rank within set, set) makes every round one contiguous slice.

Walking stream A and then stream B equals walking A+B, so the walk cuts the
stream into slices of whole consecutive blocks holding at most
:data:`_SLICE_LINES` lines.  That bounds the temporaries (sort keys,
per-round gathers) without changing a single result.  Walk time is flat
from 2^14-line slices up to whole traces, but unsliced walks raise the peak
memory of a storeless evaluation at scale 0.5 from 178 to 238 MB.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Union

import numpy as np

from .cache import CacheConfig, CacheStats, HierarchyConfig
from .dram import DRAMModel

__all__ = ["VectorCache", "VectorCacheHierarchy"]

#: most lines one slice of a block stream carries (a larger block walks alone)
_SLICE_LINES = 1 << 16


def _ceil_div(numerator, denominator):
    return -(-numerator // denominator)


class VectorCache:
    """One set-associative, write-back, LRU cache level on numpy state.

    A way is valid once it holds an access tick: ticks start at 1, and an
    invalid way holds tag -1 and tick 0, so the least-recently-used way of a
    set is always an invalid one while the set has any.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        shape = (self._num_sets, config.ways)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=bool)
        self._lru = np.zeros(shape, dtype=np.int64)
        self._tick = 0

    def reset(self) -> None:
        self.stats = CacheStats()
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._lru.fill(0)
        self._tick = 0

    # -- read-only probes (tests) ---------------------------------------- #

    def probe(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no stats update)."""
        line_addr = address // self.config.line_bytes
        index, tag = line_addr % self._num_sets, line_addr // self._num_sets
        return bool(((self._lru[index] > 0) & (self._tags[index] == tag)).any())

    def dirty_line_count(self) -> int:
        return int(((self._lru > 0) & self._dirty).sum())

    def valid_line_count(self) -> int:
        return int((self._lru > 0).sum())

    # -- batched access -------------------------------------------------- #

    def access_batch(
        self, addresses: np.ndarray, is_write: Union[bool, np.ndarray] = False
    ) -> np.ndarray:
        """Access a stream of lines in order; returns the per-line hit mask.

        ``is_write`` is one flag for the whole stream or one per line.
        Equivalent to accessing the lines one at a time in order: a hit
        refreshes the line's LRU tick (and dirties it on a write); a miss
        installs the line, filling invalid ways before evicting the LRU one.
        Each access's LRU tick comes from its stream position, so the only
        ordering that matters is between lines mapping to the same set;
        those resolve over successive all-distinct-sets rounds.
        """
        addresses = addresses.astype(np.int64, copy=False).ravel()
        n = int(addresses.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        writes = np.broadcast_to(np.asarray(is_write, dtype=bool), (n,))
        line_addr = addresses // self.config.line_bytes
        index = line_addr % self._num_sets

        # Rank each line within its set (0 for the set's first line, 1 for
        # its second, ...), then order the stream by (rank, set): round r is
        # the contiguous run of rank-r lines, one per set, and per-set
        # request order -- the only order that matters -- is kept across
        # rounds.  Both sort keys are cast to their smallest unsigned type,
        # which lets numpy's stable sort count rather than compare.
        by_set = np.argsort(index.astype(np.min_scalar_type(self._num_sets)), kind="stable")
        first = np.flatnonzero(np.diff(index[by_set], prepend=-1))
        rank = np.arange(n) - np.repeat(first, np.diff(first, append=n))
        order = by_set[np.argsort(rank.astype(np.min_scalar_type(n)), kind="stable")]
        round_ends = np.cumsum(np.bincount(rank)).tolist()

        index = index[order]
        tag = line_addr[order] // self._num_sets
        ticks = self._tick + 1 + order
        writes = writes[order]
        self._tick += n
        ordered_hits = np.empty(n, dtype=bool)
        begin = 0
        for end in round_ends:
            ordered_hits[begin:end] = self._access_distinct_sets(
                index[begin:end], tag[begin:end], ticks[begin:end], writes[begin:end]
            )
            begin = end
        hits = np.empty(n, dtype=bool)
        hits[order] = ordered_hits
        return hits

    def _access_distinct_sets(
        self, index: np.ndarray, tag: np.ndarray, ticks: np.ndarray, writes: np.ndarray
    ) -> np.ndarray:
        """Resolve a round of lines mapping to pairwise-distinct sets;
        returns its hit mask."""
        set_lru = self._lru.take(index, axis=0)  # tick 0 marks an invalid way
        match = (self._tags.take(index, axis=0) == tag[:, None]) & (set_lru > 0)
        # A hit refreshes its own way (priority -1); a miss fills the set's
        # first invalid way or evicts its least-recently-used one -- both the
        # lowest tick.
        priority = np.where(match, -1, set_lru)
        way = priority.argmin(axis=1)
        chosen = priority[np.arange(index.size), way]
        is_hit = chosen < 0
        evicted = chosen > 0
        slot = index * self.config.ways + way
        tags, lru, dirty = self._tags.reshape(-1), self._lru.reshape(-1), self._dirty.reshape(-1)
        was_dirty = dirty[slot]
        tags[slot] = tag
        lru[slot] = ticks
        dirty[slot] = writes | (is_hit & was_dirty)

        hit_count = int(np.count_nonzero(is_hit))
        self.stats.hits += hit_count
        self.stats.misses += int(index.size) - hit_count
        self.stats.evictions += int(np.count_nonzero(evicted))
        self.stats.writebacks += int(np.count_nonzero(evicted & was_dirty))
        return is_hit


class VectorCacheHierarchy:
    """Private L2 / shared LLC backed by DRAM, on :class:`VectorCache` levels.

    ``l2_compute_ways`` of the L2 are repurposed for in-cache computing
    (default: half), which halves the cache capacity available to normal
    lookups while MVE is active.  :meth:`walk` is the one walk of vector
    memory ops through the levels.
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

    def walk(
        self,
        blocks: Sequence[Union[np.ndarray, Sequence[int]]],
        writes: Sequence[bool],
        dram_models: Sequence[DRAMModel],
    ) -> tuple[list[list[int]], list[int], list[int], list[int]]:
        """Walk a stream of vector memory ops through L2 -> LLC -> DRAM.

        ``blocks`` holds each op's line addresses (a repeated line counts
        once, at its first occurrence) and ``writes`` its write flag.
        Returns ``(cycles, l2_hits, llc_hits, dram_accesses)`` with one
        entry per block; ``cycles`` holds one such list per model in
        ``dram_models`` (timing variants sharing this DRAM's structure; an
        empty list only walks).  The state walk -- hits, victims, open DRAM
        rows -- runs once, on this hierarchy's own DRAM.  A block's cycles
        are the estimate until all its lines reach the Transpose Memory
        Unit's input: hits stream at :data:`VECTOR_LINES_PER_CYCLE`, misses
        overlap up to the L2 MSHR count and never beat DRAM peak bandwidth.
        """
        blocks = [np.asarray(block, dtype=np.int64).ravel() for block in blocks]
        ends = np.cumsum([block.size for block in blocks], dtype=np.int64)
        parts = []
        start = 0
        while start < len(blocks):
            slice_end = int(ends[start] - blocks[start].size) + _SLICE_LINES
            stop = max(start + 1, int(np.searchsorted(ends, slice_end, side="right")))
            parts.append(self._walk_slice(blocks[start:stop], writes[start:stop], dram_models))
            start = stop
        columns = [np.concatenate(column).tolist() for column in zip(*parts)]
        if not columns:  # no blocks
            columns = [[] for _ in range(len(dram_models) + 3)]
        *cycles, l2_hits, llc_hits, dram_accesses = columns
        return cycles, l2_hits, llc_hits, dram_accesses

    def _walk_slice(
        self,
        blocks: list[np.ndarray],
        writes: Sequence[bool],
        dram_models: Sequence[DRAMModel],
    ) -> list[np.ndarray]:
        """Walk consecutive blocks as one line stream; returns one per-block
        cycle array per model, then the per-block L2 hits, LLC hits and
        DRAM accesses."""
        count = len(blocks)
        sizes = np.array([block.size for block in blocks], dtype=np.int64)
        lines = np.concatenate(blocks)
        block = np.repeat(np.arange(count), sizes)
        # Footprints arrive sorted and unique; any other block is checked
        # for repeated lines, which count once, at their first occurrence.
        unsorted = np.flatnonzero(lines[1:] <= lines[:-1]) + 1
        unsorted = unsorted[block[unsorted] == block[unsorted - 1]]
        if unsorted.size:
            for position in np.unique(block[unsorted]).tolist():
                _, first = np.unique(blocks[position], return_index=True)
                blocks[position] = blocks[position][np.sort(first)]
                sizes[position] = first.size
            lines = np.concatenate(blocks)
            block = np.repeat(np.arange(count), sizes)
        line_writes = np.repeat(np.asarray(writes, dtype=bool), sizes)

        l2_hit = self.l2.access_batch(lines, line_writes)
        missed = ~l2_hit
        miss_lines, miss_block, miss_writes = lines[missed], block[missed], line_writes[missed]
        to_dram = ~self.llc.access_batch(miss_lines, miss_writes)
        row_hit = self.dram.classify_batch(
            miss_lines[to_dram], miss_writes[to_dram], self.line_bytes
        )

        l2_hits = np.bincount(block[l2_hit], minlength=count)
        misses = sizes - l2_hits
        dram_accesses = np.bincount(miss_block[to_dram], minlength=count)
        cycles = self._price(l2_hits, misses, miss_block, to_dram, row_hit, dram_models)
        return [*cycles, l2_hits, misses - dram_accesses, dram_accesses]

    def _price(
        self,
        l2_hits: np.ndarray,
        misses: np.ndarray,
        miss_block: np.ndarray,
        to_dram: np.ndarray,
        row_hit: np.ndarray,
        dram_models: Sequence[DRAMModel],
    ) -> list[np.ndarray]:
        """Per-block cycles under each DRAM model, in integer arithmetic.

        Hits stream bank-parallel after one L2 latency.  A block's misses
        overlap in windows of ``mshr_entries`` outstanding requests (a miss's
        index within its block gives its window); each window costs its
        slowest latency plus the streaming of its other lines.  The block's
        windows never beat the DRAM peak bandwidth.  Hits and windows share
        one rounding: the first line arrives with the latency, the remaining
        ``n - 1`` stream at :data:`VECTOR_LINES_PER_CYCLE`, rounded up.
        """
        l2, llc = self.config.l2, self.config.llc
        per_cycle = self.VECTOR_LINES_PER_CYCLE
        hit_cycles = np.where(l2_hits > 0, l2.hit_latency + _ceil_div(l2_hits - 1, per_cycle), 0)
        total = miss_block.size
        if total == 0:
            return [hit_cycles for _ in dram_models]
        first_miss = np.cumsum(misses) - misses
        rank = np.arange(total) - first_miss[miss_block]
        window_start = np.flatnonzero(rank % l2.mshr_entries == 0)
        window_stream = _ceil_div(np.diff(window_start, append=total) - 1, per_cycle)
        window_block = miss_block[window_start]

        cycles = []
        for model in dram_models:
            latency = np.full(total, l2.hit_latency + llc.hit_latency, dtype=np.int64)
            latency[to_dram] += model.latencies_from_classification(row_hit, self.line_bytes)
            windows = np.zeros(misses.size, dtype=np.int64)
            np.add.at(
                windows, window_block, np.maximum.reduceat(latency, window_start) + window_stream
            )
            floor = np.ceil(model.bandwidth_cycles(misses * self.line_bytes)).astype(np.int64)
            cycles.append(hit_cycles + np.maximum(windows, floor))
        return cycles
