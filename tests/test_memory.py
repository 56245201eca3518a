"""Unit tests for the memory substrates: flat memory, DRAM, caches.

The cache tests run against both implementations -- the per-line reference
(``tests/oracle.py``) and the batched numpy engine -- via the
``cache_class`` / ``hierarchy_class`` fixtures, so every behavioural
assertion doubles as a parity check.  The engine's levels are driven
through ``access_batch`` (one line at a time for the single-line tests),
and both hierarchies through their shared ``walk`` call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import DataType
from repro.memory import (
    CacheConfig,
    DRAMConfig,
    DRAMModel,
    FlatMemory,
    VectorCache,
    VectorCacheHierarchy,
    make_hierarchy,
)

from oracle import DRAM, Cache, CacheHierarchy, dram_latency


@pytest.fixture(params=[Cache, VectorCache], ids=["scalar", "vector"])
def cache_class(request):
    return request.param


@pytest.fixture(params=[CacheHierarchy, VectorCacheHierarchy], ids=["scalar", "vector"])
def hierarchy_class(request):
    return request.param


def access(cache, address, is_write=False):
    """One line through either level: the reference's ``access``, or a
    one-line batch on the engine."""
    if isinstance(cache, VectorCache):
        return bool(cache.access_batch(np.array([address]), is_write)[0])
    return cache.access(address, is_write)


def walk_block(hierarchy, lines, is_write=False, dram_models=()):
    """One vector block through either hierarchy's ``walk``: its
    ``(cycles, l2_hits, llc_hits, dram_accesses)``, one cycle count per
    model in ``dram_models``."""
    cycles, (l2_hits,), (llc_hits,), (dram_accesses,) = hierarchy.walk(
        [lines], [is_write], dram_models
    )
    return [column[0] for column in cycles], l2_hits, llc_hits, dram_accesses


def block_cycles(hierarchy, lines, is_write=False):
    """A vector block's cycles under the hierarchy's own DRAM timing."""
    (cycles,), _, _, _ = walk_block(hierarchy, lines, is_write, (hierarchy.dram,))
    return cycles


def batch_latencies(dram, addresses, is_write=False, size_bytes=64):
    """Production DRAM latencies: one classification pass, then pricing."""
    row_hit = dram.classify_batch(np.asarray(addresses, dtype=np.int64), is_write, size_bytes)
    return dram.latencies_from_classification(row_hit, size_bytes).tolist()


def reference_latencies(dram, addresses, is_write=False, size_bytes=64):
    """The per-access reference DRAM's latencies for the same stream."""
    return [
        dram_latency(dram.config, dram.access(int(a), is_write, size_bytes), size_bytes)
        for a in addresses
    ]


class TestFlatMemory:
    def test_allocate_and_roundtrip(self):
        mem = FlatMemory()
        alloc = mem.allocate(DataType.INT32, 16)
        alloc.write(np.arange(16, dtype=np.int32))
        np.testing.assert_array_equal(alloc.read(), np.arange(16, dtype=np.int32))

    def test_allocate_array_initialises(self):
        mem = FlatMemory()
        alloc = mem.allocate_array([1.5, 2.5], DataType.FLOAT32)
        np.testing.assert_allclose(alloc.read(), [1.5, 2.5])

    def test_alignment(self):
        mem = FlatMemory()
        mem.allocate(DataType.INT8, 3)
        second = mem.allocate(DataType.INT32, 4, align=64)
        assert second.address % 64 == 0

    def test_element_address(self):
        mem = FlatMemory()
        alloc = mem.allocate(DataType.INT32, 8)
        assert alloc.element_address(2) == alloc.address + 8
        with pytest.raises(IndexError):
            alloc.element_address(8)

    def test_gather_scatter(self):
        mem = FlatMemory()
        alloc = mem.allocate_array(np.arange(10, dtype=np.int32), DataType.INT32)
        addresses = np.array([alloc.element_address(i) for i in (3, 1, 7)])
        np.testing.assert_array_equal(
            mem.read_elements(addresses, DataType.INT32), [3, 1, 7]
        )
        mem.write_elements(addresses, np.array([30, 10, 70]), DataType.INT32)
        np.testing.assert_array_equal(alloc.read()[[3, 1, 7]], [30, 10, 70])

    def test_out_of_bounds_rejected(self):
        mem = FlatMemory(size_bytes=1024)
        with pytest.raises(IndexError):
            mem.view(mem.base_address + 2048, DataType.INT8, 1)

    def test_exhaustion(self):
        mem = FlatMemory(size_bytes=1024)
        with pytest.raises(MemoryError):
            mem.allocate(DataType.INT32, 10_000)

    def test_pointer_table(self):
        mem = FlatMemory()
        table = mem.allocate_array(
            np.array([0x2000, 0x3000], dtype=np.uint64), DataType.UINT64
        )
        pointers = mem.read_pointer_table(table.address, 2)
        np.testing.assert_array_equal(pointers, [0x2000, 0x3000])

    def test_write_wrong_count_rejected(self):
        mem = FlatMemory()
        alloc = mem.allocate(DataType.INT32, 4)
        with pytest.raises(ValueError):
            alloc.write([1, 2, 3])


class TestDRAM:
    def test_row_hit_cheaper_than_miss(self):
        dram = DRAMModel()
        (miss,) = batch_latencies(dram, [0])
        # Same channel and bank, same row: 256 bytes away on a 4-channel map.
        (hit,) = batch_latencies(dram, [256])
        assert hit < miss
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_different_rows_miss(self):
        dram = DRAMModel()
        batch_latencies(dram, [0])
        (latency,) = batch_latencies(dram, [dram.config.row_size_bytes * dram.config.num_banks])
        assert latency == dram.config.row_miss_latency

    def test_large_transfer_adds_bursts(self):
        dram = DRAMModel()
        (small,) = batch_latencies(dram, [0], size_bytes=64)
        dram.reset()
        (large,) = batch_latencies(dram, [0], size_bytes=256)
        assert large > small

    def test_bandwidth_cycles(self):
        dram = DRAMModel(DRAMConfig(peak_bytes_per_cycle=16.0))
        assert dram.bandwidth_cycles(160) == pytest.approx(10.0)

    def test_stats_accumulate(self):
        dram = DRAMModel()
        batch_latencies(dram, [0], is_write=True)
        batch_latencies(dram, [64])
        assert dram.stats.writes == 1 and dram.stats.reads == 1
        assert dram.stats.bytes_transferred == 128
        assert 0.0 <= dram.stats.row_hit_rate() <= 1.0


def make_cache(cache_class, size=4096, ways=4, line=64):
    return cache_class(CacheConfig(name="test", size_bytes=size, ways=ways, line_bytes=line))


class TestCache:
    def test_miss_then_hit(self, cache_class):
        cache = make_cache(cache_class)
        assert access(cache, 0x100) is False
        assert access(cache, 0x100) is True
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_hits(self, cache_class):
        cache = make_cache(cache_class)
        access(cache, 0x100)
        assert access(cache, 0x13C) is True  # same 64-byte line

    def test_lru_eviction(self, cache_class):
        cache = make_cache(cache_class, size=4 * 64, ways=4)  # one set
        for i in range(4):
            access(cache, i * 64)
        access(cache, 0)  # touch line 0 so it is MRU
        access(cache, 4 * 64)  # evict the LRU line (line 1)
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_writeback_counted(self, cache_class):
        cache = make_cache(cache_class, size=4 * 64, ways=4)
        for i in range(4):
            access(cache, i * 64, is_write=True)
        access(cache, 4 * 64)
        assert cache.stats.writebacks >= 1

    def test_dirty_line_count(self, cache_class):
        cache = make_cache(cache_class)
        access(cache, 0, is_write=True)
        access(cache, 64, is_write=False)
        assert cache.dirty_line_count() == 1
        assert cache.valid_line_count() == 2

    def test_per_line_write_flags(self):
        """One write flag per line dirties exactly the lines written, as the
        reference walking the same stream one line at a time does."""
        reference, engine = make_cache(Cache, size=4 * 64), make_cache(VectorCache, size=4 * 64)
        lines = np.array([0, 64, 0, 128, 256, 320, 64, 384], dtype=np.int64)
        writes = np.array([True, False, False, False, True, False, True, False])
        expected = [reference.access(int(line), bool(w)) for line, w in zip(lines, writes)]
        assert engine.access_batch(lines, writes).tolist() == expected
        assert vars(engine.stats) == vars(reference.stats)
        assert engine.dirty_line_count() == reference.dirty_line_count()
        assert engine.valid_line_count() == reference.valid_line_count()

    def test_num_sets_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=32, ways=4).num_sets

    def test_reset_clears_lru_state(self, cache_class):
        """Regression: lru values surviving reset() while the tick restarts
        at 0 made freshly-installed lines evict before never-touched ways."""
        cache = make_cache(cache_class, size=4 * 64, ways=4)  # one set
        for i in range(64):
            access(cache, i * 64)  # drive the tick (and lru values) up
        cache.reset()
        access(cache, 0)  # fresh line, lru=1
        access(cache, 64)  # must fill an invalid way, not evict line 0
        assert cache.probe(0)
        assert cache.probe(64)
        assert cache.stats.evictions == 0
        assert cache.valid_line_count() == 2

    def test_invalid_ways_preferred_over_lru(self, cache_class):
        """Victim selection fills invalid ways before evicting any valid
        line, whatever lru values the invalid ways carry."""
        cache = make_cache(cache_class, size=4 * 64, ways=4)
        access(cache, 0)
        access(cache, 64)
        access(cache, 128)  # three valid ways, one invalid
        access(cache, 192)
        assert cache.stats.evictions == 0
        access(cache, 256)  # set full now: this one evicts LRU (line 0)
        assert cache.stats.evictions == 1
        assert not cache.probe(0)


class TestCacheHierarchy:
    def test_compute_ways_shrink_l2(self, hierarchy_class):
        hierarchy = hierarchy_class(l2_compute_ways=4)
        assert hierarchy.l2.config.size_bytes == 256 * 1024
        assert hierarchy.l2.config.ways == 4

    def test_vector_block_access_warm_faster(self, hierarchy_class):
        hierarchy = hierarchy_class()
        lines = [0x10000 + i * 64 for i in range(128)]
        cold = block_cycles(hierarchy, lines)
        warm = block_cycles(hierarchy, lines)
        assert warm < cold

    def test_vector_block_access_empty(self, hierarchy_class):
        assert block_cycles(hierarchy_class(), []) == 0
        assert block_cycles(hierarchy_class(), np.zeros(0, dtype=np.int64)) == 0

    def test_vector_block_access_returns_int(self, hierarchy_class):
        """Regression: the scalar path used to return a float (the DRAM
        bandwidth floor) despite the ``-> int`` annotation."""
        hierarchy = hierarchy_class()
        lines = [0x100000 + i * 64 for i in range(512)]
        cycles = block_cycles(hierarchy, lines)
        assert isinstance(cycles, int)
        warm = block_cycles(hierarchy, lines)
        assert isinstance(warm, int)

    def test_vector_block_access_ndarray_and_list_agree(self, hierarchy_class):
        addresses = [0x40000 + i * 64 for i in range(200)]
        from_list = block_cycles(hierarchy_class(), addresses)
        from_array = block_cycles(hierarchy_class(), np.asarray(addresses))
        assert from_list == from_array

    def test_vector_block_hit_and_miss_rounding_unified(self, hierarchy_class):
        """Regression: miss windows used ``len(window) // 2`` where hits
        used ``(hits - 1) // 2``; both now stream ``n - 1`` follow-on lines
        at VECTOR_LINES_PER_CYCLE, rounded up."""
        hierarchy = hierarchy_class()
        lpc = hierarchy.VECTOR_LINES_PER_CYCLE
        lines = [0x10000 + i * 64 for i in range(3)]
        block_cycles(hierarchy, lines)  # install in L2
        warm = block_cycles(hierarchy, lines)  # 3 hits
        assert warm == hierarchy.config.l2.hit_latency + -(-(3 - 1) // lpc)

    def test_vector_block_respects_dram_bandwidth(self, hierarchy_class):
        hierarchy = hierarchy_class()
        lines = [0x100000 + i * 64 for i in range(512)]
        cycles = block_cycles(hierarchy, lines)
        floor = 512 * 64 / hierarchy.config.dram.peak_bytes_per_cycle
        assert cycles >= floor

    def test_reset_stats_keeps_contents(self, hierarchy_class):
        hierarchy = hierarchy_class()
        block_cycles(hierarchy, [0x9000])
        hierarchy.reset_stats()
        assert hierarchy.l2.stats.accesses == 0
        assert walk_block(hierarchy, [0x9000])[1:] == (1, 0, 0)

    def test_block_walk_counts_each_level(self, hierarchy_class):
        """The returned per-level counts are the walk's statistics: a cold
        block goes to DRAM, an LLC-resident one stops at the LLC."""
        hierarchy = hierarchy_class(l2_compute_ways=7)  # one-way L2
        l2 = hierarchy.l2.config
        conflict = l2.num_sets * l2.line_bytes
        assert walk_block(hierarchy, [0, 64])[1:] == (0, 0, 2)
        walk_block(hierarchy, [conflict])  # evicts line 0 from L2
        assert walk_block(hierarchy, [0, 64], is_write=True)[1:] == (1, 1, 0)
        assert hierarchy.llc.stats.hits == 1
        assert hierarchy.dram.stats.reads == 3


class TestDRAMBatch:
    def test_batch_matches_sequential(self):
        reference, batched = DRAM(), DRAMModel()
        rng = np.random.default_rng(3)
        addresses = (rng.integers(0, 1 << 20, size=300) // 64) * 64
        expected = reference_latencies(reference, addresses)
        assert batch_latencies(batched, addresses) == expected
        assert vars(batched.stats) == vars(reference.stats)
        assert batched._open_rows == reference.open_rows

    def test_batch_carries_open_rows_across_calls(self):
        reference, batched = DRAM(), DRAMModel()
        first = np.arange(0, 64 * 64, 64, dtype=np.int64)
        second = first + 256  # same rows: previous batch left them open
        for chunk in (first, second):
            expected = reference_latencies(reference, chunk)
            assert batch_latencies(batched, chunk) == expected
        assert batched.stats.row_hits == reference.stats.row_hits > 0

    def test_batch_write_and_size_accounting(self):
        reference, batched = DRAM(), DRAMModel()
        addresses = np.arange(0, 32 * 256, 256, dtype=np.int64)
        expected = reference_latencies(reference, addresses, is_write=True, size_bytes=128)
        assert batch_latencies(batched, addresses, is_write=True, size_bytes=128) == expected
        assert vars(batched.stats) == vars(reference.stats)

    def test_batch_per_access_write_flags(self):
        reference, batched = DRAM(), DRAMModel()
        addresses = np.arange(0, 16 * 256, 256, dtype=np.int64)
        writes = np.arange(16) % 3 == 0
        expected = [
            dram_latency(reference.config, reference.access(int(a), bool(w)))
            for a, w in zip(addresses, writes)
        ]
        row_hit = batched.classify_batch(addresses, writes)
        assert batched.latencies_from_classification(row_hit).tolist() == expected
        assert vars(batched.stats) == vars(reference.stats)
        assert (batched.stats.reads, batched.stats.writes) == (10, 6)

    def test_empty_batch(self):
        dram = DRAMModel()
        assert dram.classify_batch(np.zeros(0, dtype=np.int64)).size == 0
        assert dram.stats.reads == 0


#: one batch of the access stream: burst-unit addresses (a tight universe so
#: channels, banks and rows all collide), one transfer size, read or write
_dram_chunk = st.tuples(
    st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=24),
    st.sampled_from([16, 64, 128, 256]),
    st.booleans(),
)


class TestDRAMBatchSeams:
    """Satellite: the batched DRAM path agrees with the per-access reference
    *across* batch boundaries -- open rows carried from one batch to the
    next, mixed transfer sizes, reads interleaved with writes."""

    @settings(deadline=None, max_examples=50)
    @given(chunks=st.lists(_dram_chunk, min_size=1, max_size=6))
    def test_consecutive_batches_match_scalar_replay(self, chunks):
        batched, reference = DRAMModel(), DRAM()
        for units, size_bytes, is_write in chunks:
            addresses = np.asarray(units, dtype=np.int64) * 64
            expected = reference_latencies(reference, addresses, is_write, size_bytes)
            assert batch_latencies(batched, addresses, is_write, size_bytes) == expected
        assert vars(batched.stats) == vars(reference.stats)
        assert batched._open_rows == reference.open_rows

    def test_classification_is_timing_independent(self):
        """Structure-equal configs classify a stream identically, so one
        ``classify_batch`` pass can be re-priced under many timing variants
        -- the seam the config-batched replay engine leans on."""
        base = DRAMConfig()
        slow = DRAMConfig(t_cas=60, t_rcd=70, t_rp=70, t_burst=12)
        assert slow.structure == base.structure

        classifier = DRAMModel(base)
        direct = DRAMModel(slow)
        pricer = DRAMModel(slow)  # stateless pricing helper
        rng = np.random.default_rng(11)
        for _ in range(3):
            chunk = ((rng.integers(0, 1 << 16, size=40) // 64) * 64).astype(np.int64)
            row_hit = classifier.classify_batch(chunk)
            repriced = pricer.latencies_from_classification(row_hit, 64)
            assert repriced.tolist() == batch_latencies(direct, chunk)
        assert classifier.stats.row_hits == direct.stats.row_hits
        assert classifier._open_rows == direct._open_rows


class TestEngineSelection:
    def test_default_is_vectorized(self):
        assert type(make_hierarchy()) is VectorCacheHierarchy
