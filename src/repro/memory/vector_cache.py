"""Batched, numpy-backed cache hierarchy: the engine every simulation uses.

:func:`repro.memory.cache.make_hierarchy` builds it.  Tags, valid/dirty
bits, the L1-presence bit and the LRU clock live in ``(num_sets, ways)``
arrays, and :meth:`VectorCacheHierarchy.vector_block_access` resolves a
whole vector op's deduplicated line list in array form: set-indexing, tag
compare, victim selection, the MSHR windowing and the DRAM row-buffer
classification are all vectorized.

The engine is bit-for-bit identical to the scalar, per-line reference in
``tests/oracle.py``; the property suite in ``tests/test_properties.py``
drives random access streams through both and asserts identical latencies
and statistics.  Exactness hinges on two observations:

* the LRU clock only ever *compares* within one set, so per-access tick
  values can be assigned up front from each line's position in the batch,
  and
* sets are independent of each other, so the batch is replayed as rounds --
  round *r* carries every set's *r*-th line -- where each round touches
  pairwise-distinct sets and resolves fully in parallel.  A batch with no
  set conflicts (the common case) is a single round.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from .cache import (
    AccessResult,
    CacheConfig,
    CacheStats,
    HierarchyConfig,
    aggregate_block_cycles,
    dedup_lines,
)
from .dram import DRAMModel

__all__ = ["VectorCache", "VectorCacheHierarchy"]


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
        self._present = np.zeros(shape, dtype=bool)
        self._lru = np.zeros(shape, dtype=np.int64)
        self._tick = 0
        #: line-aligned address evicted by the most recent single ``access``
        self.last_eviction: Optional[int] = None
        #: when not None, every batch eviction's line address is appended
        #: here (as int or int64 array) for inclusive back-invalidation
        self._evictions_buffer: Optional[list] = None

    def reset(self) -> None:
        self.stats = CacheStats()
        self._tags.fill(-1)
        self._valid.fill(False)
        self._dirty.fill(False)
        self._present.fill(False)
        self._lru.fill(0)
        self._tick = 0
        self.last_eviction = None
        self._evictions_buffer = None

    # -- single-line API (scalar-core path and tests) ------------------- #

    def _index_tag(self, address: int) -> tuple[int, int]:
        line_addr = address // self.config.line_bytes
        return line_addr % self._num_sets, line_addr // self._num_sets

    def _find_way(self, index: int, tag: int) -> Optional[int]:
        match = self._valid[index] & (self._tags[index] == tag)
        if not match.any():
            return None
        return int(match.argmax())

    def lookup(self, address: int) -> Optional[int]:
        """The way holding ``address``, or None (no stats update)."""
        index, tag = self._index_tag(address)
        return self._find_way(index, tag)

    def probe(self, address: int) -> bool:
        return self.lookup(address) is not None

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one cache line; returns True on hit.

        On a miss the line is installed (the caller models the fill latency
        through the next level); invalid ways fill before the LRU line is
        evicted.
        """
        self._tick += 1
        index, tag = self._index_tag(address)
        return self._access_one(index, tag, self._tick, is_write)

    def _access_one(
        self,
        index: int,
        tag: int,
        tick: int,
        is_write: bool,
        clear_presence: bool = False,
    ) -> bool:
        self.last_eviction = None
        way = self._find_way(index, tag)
        if way is not None:
            if clear_presence:
                self._present[index, way] = False
            self._lru[index, way] = tick
            if is_write:
                self._dirty[index, way] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        invalid = ~self._valid[index]
        if invalid.any():
            way = int(invalid.argmax())
        else:
            way = int(self._lru[index].argmin())
        if self._valid[index, way]:
            self.stats.evictions += 1
            if self._dirty[index, way]:
                self.stats.writebacks += 1
            self.last_eviction = (
                int(self._tags[index, way]) * self._num_sets + index
            ) * self.config.line_bytes
            if self._evictions_buffer is not None:
                self._evictions_buffer.append(self.last_eviction)
        self._tags[index, way] = tag
        self._valid[index, way] = True
        self._dirty[index, way] = is_write
        self._present[index, way] = False
        self._lru[index, way] = tick
        return False

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` (inclusive back-invalidation);
        returns True if a line was resident.  No statistics are updated."""
        index, tag = self._index_tag(address)
        way = self._find_way(index, tag)
        if way is None:
            return False
        self._invalidate_way(index, way)
        return True

    def _invalidate_way(self, index, way) -> None:
        self._valid[index, way] = False
        self._tags[index, way] = -1
        self._dirty[index, way] = False
        self._present[index, way] = False
        self._lru[index, way] = 0

    def invalidate_batch(self, addresses: np.ndarray) -> None:
        """Drop every resident line among ``addresses`` (distinct lines)."""
        addresses = addresses.astype(np.int64, copy=False).ravel()
        if addresses.size == 0:
            return
        line_addr = addresses // self.config.line_bytes
        index = line_addr % self._num_sets
        tag = line_addr // self._num_sets
        match = self._valid[index] & (self._tags[index] == tag[:, None])
        resident = match.any(axis=1)
        if not resident.any():
            return
        self._invalidate_way(index[resident], match[resident].argmax(axis=1))

    def mark_present_in_l1(self, address: int, present: bool = True) -> None:
        way = self.lookup(address)
        if way is not None:
            index, _ = self._index_tag(address)
            self._present[index, way] = present

    def present_in_l1(self, address: int) -> bool:
        index, tag = self._index_tag(address)
        way = self._find_way(index, tag)
        return bool(way is not None and self._present[index, way])

    def dirty_line_count(self) -> int:
        return int((self._valid & self._dirty).sum())

    def valid_line_count(self) -> int:
        return int(self._valid.sum())

    # -- batched API ----------------------------------------------------- #

    def access_batch(
        self,
        addresses: np.ndarray,
        is_write: bool = False,
        clear_presence: bool = False,
        collect_evictions: bool = False,
    ) -> np.ndarray:
        """Access a batch of distinct lines; returns the per-line hit mask.

        Equivalent to calling :meth:`access` per address in order (with
        ``clear_presence`` additionally dropping the presence bit of every
        hit, as an engine-side access does).  Each access's LRU tick comes
        from its batch position, so the only ordering that matters is
        between lines mapping to the same set; those resolve over
        successive all-distinct-sets rounds.

        With ``collect_evictions`` the line addresses of every displaced
        valid victim are recorded; drain them with :meth:`take_evictions`
        (the hierarchy uses this for inclusive L1 back-invalidation).
        """
        self._evictions_buffer = [] if collect_evictions else None
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
                    clear_presence,
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
            if members.size >= 4:
                self._access_distinct_sets(
                    index[members],
                    tag[members],
                    ticks[members],
                    is_write,
                    clear_presence,
                    hits,
                    members,
                )
            else:
                for position in members.tolist():
                    hits[position] = self._access_one(
                        int(index[position]),
                        int(tag[position]),
                        int(ticks[position]),
                        is_write,
                        clear_presence,
                    )
        return hits

    #: batch lines landing in one set before it is replayed sequentially
    #: rather than spread over all-distinct-sets rounds
    _HOT_SET_THRESHOLD = 8

    def take_evictions(self) -> np.ndarray:
        """Line addresses evicted by the last ``collect_evictions`` batch
        (drains the buffer).

        **Ordering guarantee: set equality, not per-access order.**  Hot-set
        groups (more than :data:`_HOT_SET_THRESHOLD` lines on one set) are
        replayed before the all-distinct-sets rounds, so the buffer's order
        can differ from the order a per-access scalar replay would evict in.
        The *multiset* of evicted lines is always identical to the scalar
        reference: eviction decisions are local to a set (victim choice reads
        only that set's ways, and per-set request order is preserved by both
        the hot-set replay and the round schedule), so reordering whole sets
        against each other cannot change which lines each set evicts.  That
        is sufficient for the only consumer, inclusive L1 back-invalidation:
        ``invalidate_batch`` drops the L1 copy of every listed line, and
        between a batch's first eviction and the batch's end no L1 fill can
        interleave (L1 traffic only originates from core accesses, never from
        the engine-side batch), so dropping the lines in any order leaves the
        same L1 state.  ``tests/test_memory.py`` pins both properties against
        the scalar reference."""
        buffer, self._evictions_buffer = self._evictions_buffer, None
        if not buffer:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [np.atleast_1d(np.asarray(chunk, dtype=np.int64)) for chunk in buffer]
        )

    def _replay_set(
        self,
        index: int,
        tags: np.ndarray,
        ticks: np.ndarray,
        is_write: bool,
        clear_presence: bool,
        hits: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Replay one heavily-conflicted set's lines in request order.

        The set's ways are pulled into plain Python lists once, mutated in a
        tight loop (identical transition rules to :meth:`_access_one`) and
        written back, so a set receiving hundreds of batch lines costs
        O(lines * ways) Python-level operations and no per-line numpy calls.
        """
        way_tags = self._tags[index].tolist()
        way_valid = self._valid[index].tolist()
        way_dirty = self._dirty[index].tolist()
        way_present = self._present[index].tolist()
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
                if clear_presence:
                    way_present[way] = False
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
                if self._evictions_buffer is not None:
                    self._evictions_buffer.append(
                        (way_tags[way] * self._num_sets + index) * self.config.line_bytes
                    )
            way_tags[way] = tag
            way_valid[way] = True
            way_dirty[way] = is_write
            way_present[way] = False
            way_lru[way] = tick

        self._tags[index] = way_tags
        self._valid[index] = way_valid
        self._dirty[index] = way_dirty
        self._present[index] = way_present
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
        clear_presence: bool,
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
            if clear_presence:
                self._present[hit_sets, hit_ways] = False
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
            if self._evictions_buffer is not None and victim_valid.any():
                evicted_sets = miss_sets[victim_valid]
                evicted_tags = self._tags[evicted_sets, victim[victim_valid]]
                self._evictions_buffer.append(
                    (evicted_tags * self._num_sets + evicted_sets) * self.config.line_bytes
                )
            self._tags[miss_sets, victim] = tag[missed]
            self._valid[miss_sets, victim] = True
            self._dirty[miss_sets, victim] = is_write
            self._present[miss_sets, victim] = False
            self._lru[miss_sets, victim] = ticks[missed]

        self.stats.hits += int(is_hit.sum())
        self.stats.misses += int(missed.sum())


class VectorCacheHierarchy:
    """L1-D / private L2 / shared LLC backed by DRAM, on :class:`VectorCache`
    levels.

    ``l2_compute_ways`` of the L2 are repurposed for in-cache computing
    (default: half), which halves the cache capacity available to normal
    lookups while MVE is active.  Engine traffic goes through the batched
    :meth:`vector_block_access`; single-line :meth:`core_access` /
    :meth:`l2_access` model scalar-core traffic and the inclusive L1
    presence bookkeeping the engine path reacts to.
    """

    #: per-level cache implementation (the scalar reference the tests
    #: compare against swaps in its per-line levels)
    cache_class = VectorCache

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        dram: DRAMModel | None = None,
        l2_compute_ways: int = 4,
    ):
        self.config = config or HierarchyConfig()
        self.dram = dram or DRAMModel(self.config.dram)
        self.l2_compute_ways = l2_compute_ways

        l2_cfg = self.config.l2
        storage_ways = max(1, l2_cfg.ways - l2_compute_ways)
        l2_storage_cfg = CacheConfig(
            name=l2_cfg.name,
            size_bytes=l2_cfg.size_bytes * storage_ways // l2_cfg.ways,
            ways=storage_ways,
            line_bytes=l2_cfg.line_bytes,
            hit_latency=l2_cfg.hit_latency,
            mshr_entries=l2_cfg.mshr_entries,
            inclusive=l2_cfg.inclusive,
        )
        self.l1d = self.cache_class(self.config.l1d)
        self.l2 = self.cache_class(l2_storage_cfg)
        self.llc = self.cache_class(self.config.llc)

    def reset(self) -> None:
        self.l1d.reset()
        self.l2.reset()
        self.llc.reset()
        self.dram.reset()

    def reset_stats(self) -> None:
        """Clear statistics while keeping cache contents (warm-cache runs)."""
        self.l1d.stats = CacheStats()
        self.l2.stats = CacheStats()
        self.llc.stats = CacheStats()
        self.dram.stats = type(self.dram.stats)()

    @property
    def line_bytes(self) -> int:
        return self.config.l1d.line_bytes

    def core_access(self, address: int, is_write: bool = False) -> AccessResult:
        """A scalar-core access that goes through L1 first."""
        latency = self.config.l1d.hit_latency
        if self.l1d.access(address, is_write):
            return AccessResult(latency, "L1-D")
        # The L1 fill may have displaced another line; the inclusive L2 must
        # drop its presence bit or later engine-side accesses to that line
        # pay a phantom coherence penalty.
        evicted = self.l1d.last_eviction
        if evicted is not None:
            self.l2.mark_present_in_l1(evicted, False)
        result = self.l2_access(address, is_write, from_core=True)
        return AccessResult(latency + result.latency, result.hit_level)

    def l2_access(self, address: int, is_write: bool = False, from_core: bool = False) -> AccessResult:
        """An access that starts at the L2 (used by the MVE controller).

        When the access originates from the in-cache engine (``from_core``
        False) and the line is present in the L1, the inclusive presence bit
        forces an L1 eviction to preserve coherency (Section V-C); the
        eviction cost is folded into the returned latency.
        """
        latency = self.config.l2.hit_latency
        coherence_penalty = 0
        if not from_core and self.l2.present_in_l1(address):
            coherence_penalty = self.config.l1d.hit_latency
            self.l2.mark_present_in_l1(address, False)
        if self.l2.access(address, is_write):
            if from_core:
                self.l2.mark_present_in_l1(address, True)
            return AccessResult(latency + coherence_penalty, "L2")
        # The install displaced an L2 victim; an inclusive L2 must
        # back-invalidate the victim's L1 copy, or the L1 keeps serving a
        # line the L2 no longer tracks (and later engine accesses to it
        # would skip the coherence penalty bookkeeping entirely).  The LLC
        # is modelled non-inclusive, so no such propagation happens there.
        evicted = self.l2.last_eviction
        if evicted is not None and self.config.l2.inclusive:
            self.l1d.invalidate(evicted)
        latency += self.config.llc.hit_latency
        if self.llc.access(address, is_write):
            if from_core:
                self.l2.mark_present_in_l1(address, True)
            return AccessResult(latency + coherence_penalty, "LLC")
        latency += self.dram.access(address, is_write, self.line_bytes)
        if from_core:
            self.l2.mark_present_in_l1(address, True)
        return AccessResult(latency + coherence_penalty, "DRAM")

    #: cache lines the L2 can hand to the TMU per cycle once streaming
    #: (the compute half reads whole 64 B lines bank-parallel)
    VECTOR_LINES_PER_CYCLE = 2

    def vector_block_access(
        self, line_addresses: Union[np.ndarray, Iterable[int]], is_write: bool = False
    ) -> int:
        """Access a set of cache lines on behalf of one vector memory op.

        Hits stream at :data:`VECTOR_LINES_PER_CYCLE`; misses overlap up to
        the L2 MSHR count.  The returned value is the estimated cycles until
        all lines are available at the Transpose Memory Unit's input.
        """
        lines = dedup_lines(line_addresses)
        if lines.size == 0:
            return 0
        inclusive = self.config.l2.inclusive
        l2_hits = self.l2.access_batch(
            lines, is_write, clear_presence=True, collect_evictions=inclusive
        )
        if inclusive:
            evicted = self.l2.take_evictions()
            if evicted.size:
                # Inclusive back-invalidation: L1 copies of displaced L2
                # lines are dropped, as a per-line l2_access would.
                self.l1d.invalidate_batch(evicted)
        hit_count = int(l2_hits.sum())
        miss_lines = lines[~l2_hits]
        miss_latencies: list[int] = []
        if miss_lines.size:
            llc_hits = self.llc.access_batch(miss_lines, is_write)
            latencies = np.full(
                miss_lines.size,
                self.config.l2.hit_latency + self.config.llc.hit_latency,
                dtype=np.int64,
            )
            dram_lines = miss_lines[~llc_hits]
            if dram_lines.size:
                latencies[~llc_hits] += self.dram.access_batch(
                    dram_lines, is_write, self.line_bytes
                )
            miss_latencies = latencies.tolist()
        return aggregate_block_cycles(
            hit_count,
            miss_latencies,
            self.config.l2.mshr_entries,
            self.config.l2.hit_latency,
            self.dram.bandwidth_cycles(len(miss_latencies) * self.line_bytes),
            self.VECTOR_LINES_PER_CYCLE,
        )

    def flush_dirty_cycles(self) -> int:
        """Cycles to flush dirty L2 lines before entering compute mode."""
        dirty = self.l2.dirty_line_count()
        return dirty * (self.config.llc.hit_latency // 2 + 1)
