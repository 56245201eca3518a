"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.intrinsics import MVEMachine
from repro.isa import DataType, VectorShape, resolve_strides
from repro.isa.registers import ControlRegisters
from repro.memory import FlatMemory

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")

dims_strategy = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4)


class TestShapeProperties:
    @given(dims_strategy)
    def test_flatten_unflatten_roundtrip(self, lengths):
        shape = VectorShape(tuple(lengths))
        for lane in range(shape.total_elements):
            assert shape.flatten_index(shape.unflatten_lane(lane)) == lane

    @given(dims_strategy)
    def test_flatten_is_bijective(self, lengths):
        shape = VectorShape(tuple(lengths))
        lanes = {
            shape.flatten_index(shape.unflatten_lane(i)) for i in range(shape.total_elements)
        }
        assert len(lanes) == shape.total_elements

    @given(dims_strategy)
    def test_total_elements_is_product(self, lengths):
        assert VectorShape(tuple(lengths)).total_elements == int(np.prod(lengths))


class TestStrideProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=16), min_size=4, max_size=4),
        st.lists(st.integers(min_value=0, max_value=512), min_size=4, max_size=4),
    )
    def test_resolved_strides_non_negative(self, modes, lengths, registers):
        strides = resolve_strides(modes, lengths, registers)
        assert len(strides) == len(modes)
        assert all(s >= 0 for s in strides)

    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=2, max_size=4))
    def test_sequential_mode_equals_cumulative_product(self, lengths):
        modes = [1] + [2] * (len(lengths) - 1)
        strides = resolve_strides(modes, lengths, [0] * len(lengths))
        expected = 1
        for dim in range(1, len(lengths)):
            expected *= lengths[dim - 1]
            assert strides[dim] == expected


class TestMaskProperties:
    @given(st.integers(min_value=1, max_value=1024), st.sets(st.integers(0, 255), max_size=16))
    def test_active_mask_length_matches_dimension(self, length, masked_off):
        cr = ControlRegisters()
        cr.set_dim_count(2)
        cr.set_dim_length(1, length)
        for element in masked_off:
            cr.set_mask(element, False)
        mask = cr.active_mask()
        assert len(mask) == length


def _machine_with(values, dtype):
    memory = FlatMemory()
    machine = MVEMachine(memory)
    allocation = memory.allocate_array(np.asarray(values, dtype=dtype.numpy_dtype), dtype)
    machine.vsetdimc(1)
    machine.vsetdiml(0, len(values))
    vector = machine.vsld(dtype, allocation.address, (1,))
    return machine, vector, allocation


int32_arrays = st.lists(
    st.integers(min_value=-(2**30), max_value=2**30 - 1), min_size=1, max_size=64
)


class TestFunctionalProperties:
    @given(int32_arrays)
    def test_load_store_roundtrip(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        out = machine.memory.allocate(DataType.INT32, len(values))
        machine.vsst(vector, out.address, (1,))
        np.testing.assert_array_equal(out.read(), np.asarray(values, dtype=np.int32))

    @given(int32_arrays)
    def test_add_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        doubled = machine.vadd(vector, vector)
        expected = (np.asarray(values, dtype=np.int64) * 2).astype(np.int32)
        np.testing.assert_array_equal(doubled.values, expected)

    @given(int32_arrays)
    def test_xor_with_self_is_zero(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        np.testing.assert_array_equal(
            machine.vxor(vector, vector).values, np.zeros(len(values), dtype=np.int32)
        )

    @given(int32_arrays)
    def test_min_le_max(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        reversed_vec = machine.vsetdup(DataType.INT32, 0)
        low = machine.vmin(vector, reversed_vec)
        high = machine.vmax(vector, reversed_vec)
        assert np.all(low.values <= high.values)

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=32),
        st.integers(min_value=1, max_value=7),
    )
    def test_rotate_preserves_popcount(self, values, amount):
        machine, vector, _ = _machine_with(values, DataType.UINT8)
        rotated = machine.vrot_imm(vector, amount)
        original_bits = [bin(int(v) & 0xFF).count("1") for v in vector.values]
        rotated_bits = [bin(int(v) & 0xFF).count("1") for v in rotated.values]
        assert original_bits == rotated_bits

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_strided_2d_load_matches_numpy_slicing(self, rows, cols, tile_cols):
        tile_cols = min(tile_cols, cols)
        matrix = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
        memory = FlatMemory()
        machine = MVEMachine(memory)
        allocation = memory.allocate_array(matrix.reshape(-1), DataType.INT32)
        machine.vsetdimc(2)
        machine.vsetdiml(0, tile_cols)
        machine.vsetdiml(1, rows)
        machine.vsetldstr(1, cols)
        value = machine.vsld(DataType.INT32, allocation.address, (1, 3))
        np.testing.assert_array_equal(value.values, matrix[:, :tile_cols].reshape(-1))

    @given(int32_arrays)
    def test_sub_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        arr = np.asarray(values, dtype=np.int32)
        shifted = machine.vshr_imm(vector, 1)
        np.testing.assert_array_equal(
            machine.vsub(vector, shifted).values, arr - (arr >> 1)
        )

    @given(st.lists(st.integers(min_value=-(2**15), max_value=2**15 - 1), min_size=1, max_size=64))
    def test_mul_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        expected = np.asarray(values, dtype=np.int32) * np.asarray(values, dtype=np.int32)
        np.testing.assert_array_equal(machine.vmul(vector, vector).values, expected)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=64,
        )
    )
    def test_float_add_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.FLOAT32)
        arr = np.asarray(values, dtype=np.float32)
        np.testing.assert_array_equal(machine.vadd(vector, vector).values, arr + arr)

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64))
    def test_and_or_match_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.UINT8)
        arr = np.asarray(values, dtype=np.uint8)
        mask = machine.vsetdup(DataType.UINT8, 0x0F)
        np.testing.assert_array_equal(machine.vand(vector, mask).values, arr & 0x0F)
        np.testing.assert_array_equal(machine.vor(vector, mask).values, arr | 0x0F)

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=32),
        st.integers(min_value=0, max_value=7),
    )
    def test_shift_left_matches_numpy(self, values, amount):
        machine, vector, _ = _machine_with(values, DataType.UINT8)
        expected = (np.asarray(values, dtype=np.uint16) << amount).astype(np.uint8)
        np.testing.assert_array_equal(machine.vshl_imm(vector, amount).values, expected)

    @given(int32_arrays)
    def test_vcpy_is_identity(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        np.testing.assert_array_equal(
            machine.vcpy(vector).values, np.asarray(values, dtype=np.int32)
        )

    @given(st.lists(st.integers(min_value=-(2**20), max_value=2**20), min_size=1, max_size=64))
    def test_vcvt_matches_numpy_astype(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        converted = machine.vcvt(vector, DataType.FLOAT32)
        np.testing.assert_array_equal(
            converted.values, np.asarray(values, dtype=np.int32).astype(np.float32)
        )

    @given(int32_arrays)
    def test_comparisons_match_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        zero = machine.vsetdup(DataType.INT32, 0)
        arr = np.asarray(values, dtype=np.int32)
        np.testing.assert_array_equal(machine.vgt(vector, zero).values != 0, arr > 0)
        np.testing.assert_array_equal(machine.vlte(vector, zero).values != 0, arr <= 0)


class TestMemoryProperties:
    @given(
        st.lists(st.integers(min_value=-(2**30), max_value=2**30 - 1), min_size=1, max_size=32),
        st.integers(min_value=2, max_value=5),
    )
    def test_strided_store_matches_numpy_slicing(self, values, stride):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        out = machine.memory.allocate(DataType.INT32, len(values) * stride)
        machine.vsetststr(0, stride)
        machine.vsst(vector, out.address, (3,))
        np.testing.assert_array_equal(
            out.read()[:: stride][: len(values)], np.asarray(values, dtype=np.int32)
        )

    @given(st.permutations(list(range(16))))
    def test_random_load_matches_fancy_indexing(self, order):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        data = np.arange(100, 100 + len(order), dtype=np.int32)
        allocation = memory.allocate_array(data, DataType.INT32)
        pointers = np.asarray(
            [allocation.address + index * 4 for index in order], dtype=np.uint64
        )
        table = memory.allocate_array(pointers, DataType.UINT64)
        machine.vsetdimc(1)
        machine.vsetdiml(0, len(order))
        gathered = machine.vrld(DataType.INT32, table.address, (1,))
        np.testing.assert_array_equal(gathered.values, data[np.asarray(order)])

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_2d_load_store_roundtrip(self, rows, cols):
        matrix = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
        memory = FlatMemory()
        machine = MVEMachine(memory)
        source = memory.allocate_array(matrix.reshape(-1), DataType.INT32)
        dest = memory.allocate(DataType.INT32, rows * cols)
        machine.vsetdimc(2)
        machine.vsetdiml(0, cols)
        machine.vsetdiml(1, rows)
        value = machine.vsld(DataType.INT32, source.address, (1, 2))
        machine.vsst(value, dest.address, (1, 2))
        np.testing.assert_array_equal(dest.read().reshape(rows, cols), matrix)

    @given(
        st.lists(st.integers(min_value=-(2**30), max_value=2**30 - 1), min_size=4, max_size=32),
        st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    )
    def test_masked_store_leaves_masked_rows_untouched(self, values, masked_off):
        rows = 4
        cols = len(values) // rows
        if cols == 0:
            return
        values = values[: rows * cols]
        memory = FlatMemory()
        machine = MVEMachine(memory)
        source = memory.allocate_array(np.asarray(values, np.int32), DataType.INT32)
        sentinel = np.full(rows * cols, -1, dtype=np.int32)
        dest = memory.allocate_array(sentinel, DataType.INT32)
        machine.vsetdimc(2)
        machine.vsetdiml(0, cols)
        machine.vsetdiml(1, rows)
        value = machine.vsld(DataType.INT32, source.address, (1, 2))
        for row in masked_off:
            machine.vunsetmask(row)
        machine.vsst(value, dest.address, (1, 2))
        machine.vresetmask()
        written = dest.read().reshape(rows, cols)
        expected = np.asarray(values, np.int32).reshape(rows, cols)
        for row in range(rows):
            if row in masked_off:
                np.testing.assert_array_equal(written[row], np.full(cols, -1, np.int32))
            else:
                np.testing.assert_array_equal(written[row], expected[row])

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=64))
    def test_tree_reduce_preserves_sum(self, values):
        from repro.workloads.base import tree_reduce

        memory = FlatMemory()
        machine = MVEMachine(memory)
        allocation = memory.allocate_array(np.asarray(values, np.int32), DataType.INT32)
        scratch = memory.allocate(DataType.INT32, 8192)
        machine.vsetdimc(1)
        machine.vsetdiml(0, len(values))
        vector = machine.vsld(DataType.INT32, allocation.address, (1,))
        reduced, remaining = tree_reduce(
            machine, vector, len(values), scratch.address, stop_at=2
        )
        assert int(reduced.values[:remaining].sum()) == int(np.sum(values))


class TestCacheEngineParity:
    """The batched numpy cache engine is bit-for-bit identical to the scalar
    reference: random access streams (single core/engine accesses plus
    vector block accesses with conflict-heavy strided patterns) must produce
    identical latencies, hit levels and statistics at every step."""

    @staticmethod
    def _small_hierarchy(cls):
        from repro.memory import CacheConfig, HierarchyConfig

        config = HierarchyConfig(
            l1d=CacheConfig("L1-D", 2048, 2, hit_latency=4),
            l2=CacheConfig("L2", 8192, 8, hit_latency=12, mshr_entries=5),
            llc=CacheConfig("LLC", 16384, 4, hit_latency=31),
        )
        return cls(config, l2_compute_ways=4)

    @staticmethod
    def _observable(hierarchy):
        levels = [
            (c.stats.hits, c.stats.misses, c.stats.evictions, c.stats.writebacks)
            for c in (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
        ]
        dram = hierarchy.dram.stats
        return levels + [
            (dram.reads, dram.writes, dram.row_hits, dram.row_misses,
             dram.bytes_transferred, dram.busy_cycles),
            (hierarchy.l2.dirty_line_count(), hierarchy.l2.valid_line_count(),
             hierarchy.llc.dirty_line_count(), hierarchy.flush_dirty_cycles()),
        ]

    op_strategy = st.one_of(
        st.tuples(
            st.sampled_from(["core", "l2_core", "l2_engine"]),
            st.integers(min_value=0, max_value=(1 << 15) - 1),
            st.booleans(),
        ),
        st.tuples(
            st.just("block"),
            st.lists(st.integers(min_value=0, max_value=511), min_size=0, max_size=40),
            st.booleans(),
        ),
        st.tuples(
            st.just("strided"),
            st.tuples(
                st.integers(min_value=0, max_value=255),  # base line
                st.sampled_from([1, 2, 8, 16, 64, 128]),  # line stride
                st.integers(min_value=1, max_value=48),  # count
            ),
            st.booleans(),
        ),
    )

    @given(st.lists(op_strategy, min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_random_streams_identical(self, ops):
        from oracle import CacheHierarchy

        from repro.memory import VectorCacheHierarchy

        scalar = self._small_hierarchy(CacheHierarchy)
        vector = self._small_hierarchy(VectorCacheHierarchy)
        for kind, arg, is_write in ops:
            if kind == "core":
                a, b = scalar.core_access(arg, is_write), vector.core_access(arg, is_write)
            elif kind in ("l2_core", "l2_engine"):
                from_core = kind == "l2_core"
                a = scalar.l2_access(arg, is_write, from_core=from_core)
                b = vector.l2_access(arg, is_write, from_core=from_core)
            else:
                if kind == "block":
                    addresses = [line * 64 for line in arg]
                else:
                    base, stride, count = arg
                    addresses = [(base + i * stride) * 64 for i in range(count)]
                a = scalar.vector_block_access(addresses, is_write)
                b = vector.vector_block_access(np.asarray(addresses, dtype=np.int64), is_write)
                assert a == b
                assert isinstance(a, int) and isinstance(b, int)
                continue
            assert (a.latency, a.hit_level) == (b.latency, b.hit_level)
        assert self._observable(scalar) == self._observable(vector)

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=200),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_dram_batch_matches_sequential(self, addresses, is_write):
        from repro.memory import DRAMModel

        serial, batched = DRAMModel(), DRAMModel()
        aligned = [(a // 64) * 64 for a in addresses]
        expected = [serial.access(a, is_write) for a in aligned]
        actual = batched.access_batch(np.asarray(aligned, dtype=np.int64), is_write)
        assert actual.tolist() == expected
        assert vars(batched.stats) == vars(serial.stats)
