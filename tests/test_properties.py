"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.address_gen import cache_line_addresses, line_footprints
from repro.intrinsics import MVEMachine
from repro.isa import DataType, VectorShape, resolve_strides
from repro.isa.instructions import MemoryInstruction, Opcode
from repro.isa.registers import ControlRegisters
from repro.memory import FlatMemory

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")

dims_strategy = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4)


class TestShapeProperties:
    @given(dims_strategy)
    def test_flatten_unflatten_roundtrip(self, lengths):
        """flatten_index inverts numpy's dim-0-fastest (Fortran) unflatten."""
        shape = VectorShape(tuple(lengths))
        for lane in range(shape.total_elements):
            indices = np.unravel_index(lane, shape.lengths, order="F")
            assert shape.flatten_index(tuple(int(i) for i in indices)) == lane

    @given(dims_strategy)
    def test_flatten_is_bijective(self, lengths):
        shape = VectorShape(tuple(lengths))
        lanes = {
            shape.flatten_index(indices)
            for indices in itertools.product(*(range(length) for length in shape.lengths))
        }
        assert lanes == set(range(shape.total_elements))

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

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8192),
        st.sets(st.integers(0, 255), max_size=16),
    )
    def test_instruction_mask_is_empty_unless_an_element_is_off(
        self, inner, length, masked_off
    ):
        """Beyond 256 elements each CR bit covers a group of elements; an
        instruction records ``()`` exactly when no covering bit is off."""
        machine = MVEMachine(simd_lanes=inner * length, record_values=False)
        machine.vsetdimc(2)
        machine.vsetdiml(0, inner)
        machine.vsetdiml(1, length)
        for element in masked_off:
            machine.vunsetmask(element)
        machine.vsetdup(DataType.INT32, 1)
        machine.vsld(DataType.INT32, 0x1000, (1, 2))
        group = -(-length // 256)
        covered_off = any(bit * group < length for bit in masked_off)
        enabled = sum(machine.cr.active_mask())
        for instruction in machine.trace[-2:]:
            assert (instruction.mask == ()) is not covered_off
            assert instruction.active_elements() == inner * enabled


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


#: a region far enough from address 0 that negative strides stay positive
_REGION = 1 << 16


@st.composite
def _pattern_shape(draw) -> tuple:
    """(lengths, resolved strides, dtype): 1-3 dims, zero and negative strides."""
    dims = draw(st.integers(min_value=1, max_value=3))
    lengths = tuple(draw(st.lists(st.integers(1, 6), min_size=dims, max_size=dims)))
    strides = tuple(draw(st.lists(st.integers(-6, 6), min_size=dims, max_size=dims)))
    return lengths, strides, draw(st.sampled_from(list(DataType)))


@st.composite
def _access_pattern(draw, line_bytes: int, shape: tuple) -> list:
    """Memory instructions sharing one access pattern of ``shape``: strided
    or random, an optional partial mask, and bases at every offset within
    a line (strided) or pointer tables with repeated and interleaved rows
    (random)."""
    lengths, strides, dtype = shape
    is_random = draw(st.booleans())
    mask = draw(
        st.just(())
        | st.lists(st.booleans(), min_size=lengths[-1], max_size=lengths[-1]).map(tuple)
    )
    if is_random:
        # A few pointers a line or two apart, repeated and interleaved.
        pool = draw(st.lists(st.integers(0, 3 * line_bytes), min_size=1, max_size=4))
        tables = draw(
            st.lists(
                st.lists(st.sampled_from(pool), min_size=lengths[-1], max_size=lengths[-1]),
                min_size=1,
                max_size=3,
            )
        )
        placements = [(_REGION, tuple(_REGION + p for p in table)) for table in tables]
        opcode = Opcode.RANDOM_LOAD
    else:
        placements = [(_REGION + offset, ()) for offset in range(line_bytes)]
        opcode = Opcode.STRIDED_LOAD
    return [
        MemoryInstruction(
            opcode,
            dtype=dtype,
            base_address=base,
            is_random=is_random,
            random_bases=pointers,
            resolved_strides=strides,
            shape_lengths=lengths,
            mask=mask,
        )
        for base, pointers in placements
    ]


class TestLineFootprintProperties:
    @given(st.data(), st.sampled_from((32, 64, 128)))
    def test_line_tables_equal_the_per_element_reference(self, data, line_bytes):
        """``line_footprints`` (per-pattern line tables) equals the
        per-instruction ``cache_line_addresses`` array for array.  The
        patterns of one call share a table cache, and often a shape, so
        strided and random patterns of one shape meet."""
        shapes = data.draw(st.lists(_pattern_shape(), min_size=1, max_size=2))
        patterns = data.draw(
            st.lists(
                st.sampled_from(shapes).flatmap(
                    lambda shape: _access_pattern(line_bytes, shape)
                ),
                min_size=1,
                max_size=3,
            )
        )
        instructions = data.draw(st.permutations([i for p in patterns for i in p]))
        built = line_footprints(instructions, line_bytes)
        for instruction, lines in zip(instructions, built, strict=True):
            np.testing.assert_array_equal(
                lines, cache_line_addresses(instruction, line_bytes), strict=True
            )


class TestCacheEngineParity:
    """The batched numpy cache engine is bit-for-bit identical to the
    per-line reference: random block streams (arbitrary line lists plus
    conflict-heavy strided patterns) must produce identical cycles under
    two DRAM timings, identical per-level counts and identical statistics,
    whether the blocks come one walk at a time or all in one walk."""

    #: sets of the small hierarchy's L2 (4 storage ways of 64 B lines, 4 KB)
    L2_SETS = 16

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
            for c in (hierarchy.l2, hierarchy.llc)
        ]
        dram = hierarchy.dram.stats
        return levels + [
            (dram.reads, dram.writes, dram.row_hits, dram.row_misses,
             dram.bytes_transferred, dram.busy_cycles),
            (hierarchy.l2.dirty_line_count(), hierarchy.l2.valid_line_count(),
             hierarchy.llc.dirty_line_count(), hierarchy.llc.valid_line_count()),
        ]

    @staticmethod
    def _engine_state(hierarchy):
        """The engine's whole state: tags, ticks and dirty bits of both
        levels and the DRAM open rows."""
        arrays = [
            array.tolist()
            for level in (hierarchy.l2, hierarchy.llc)
            for array in (level._tags, level._lru, level._dirty)
        ]
        return arrays + [hierarchy.dram._open_rows]

    @staticmethod
    def _pricing(hierarchy, dram_class):
        """The hierarchy's own DRAM plus a slower timing with the same
        structure, priced in the same walk.  Its peak bandwidth is low
        enough that the bandwidth floor, not the MSHR windows, prices a
        block with misses."""
        from repro.memory import DRAMConfig

        slow = DRAMConfig(t_cas=60, t_rcd=70, t_rp=70, t_burst=12, peak_bytes_per_cycle=1.5)
        return (hierarchy.dram, dram_class(slow))

    @staticmethod
    def _blocks(ops):
        blocks, writes = [], []
        for kind, arg, is_write in ops:
            if kind == "block":
                blocks.append([line * 64 for line in arg])
            else:
                base, stride, count = arg
                blocks.append([(base + i * stride) * 64 for i in range(count)])
            writes.append(is_write)
        return blocks, writes

    op_strategy = st.one_of(
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
        from oracle import DRAM, CacheHierarchy

        from repro.memory import DRAMModel, VectorCacheHierarchy

        scalar = self._small_hierarchy(CacheHierarchy)
        vector = self._small_hierarchy(VectorCacheHierarchy)
        scalar_pricing = self._pricing(scalar, DRAM)
        vector_pricing = self._pricing(vector, DRAMModel)
        for addresses, is_write in zip(*self._blocks(ops)):
            a = scalar.walk([addresses], [is_write], scalar_pricing)
            b = vector.walk([np.asarray(addresses, dtype=np.int64)], [is_write], vector_pricing)
            assert a == b
            assert all(isinstance(cycles, int) for column in a[0] + b[0] for cycles in column)
        assert self._observable(scalar) == self._observable(vector)

    @given(
        st.lists(op_strategy, min_size=1, max_size=40),
        st.integers(min_value=0, max_value=40),  # where the one-set block goes
        st.integers(min_value=0, max_value=255),  # its first line
        st.integers(min_value=5, max_value=48),  # its line count, above the 4 ways
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_one_walk_of_many_blocks_matches_the_reference(
        self, ops, position, base, count, is_write
    ):
        """Many blocks in one walk, each with its own write flag, give the
        reference's per-block outputs.  Lines repeat within and across
        blocks, and one strided block puts more lines than ways into a
        single L2 set."""
        from oracle import DRAM, CacheHierarchy

        from repro.memory import DRAMModel, VectorCacheHierarchy

        blocks, writes = self._blocks(ops)
        one_set = [(base + i * self.L2_SETS) * 64 for i in range(count)]
        position = min(position, len(blocks))
        blocks.insert(position, one_set + one_set[:2])  # repeats its first two lines
        writes.insert(position, is_write)
        blocks.append(blocks[0])  # every line of the first block again
        writes.append(not writes[0])

        scalar = self._small_hierarchy(CacheHierarchy)
        vector = self._small_hierarchy(VectorCacheHierarchy)
        expected = scalar.walk(blocks, writes, self._pricing(scalar, DRAM))
        walked = vector.walk(blocks, writes, self._pricing(vector, DRAMModel))
        assert walked == expected
        assert all(len(column) == len(blocks) for column in (*walked[0], *walked[1:]))
        assert self._observable(scalar) == self._observable(vector)

    @given(
        st.lists(op_strategy, min_size=1, max_size=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40)
    def test_split_walks_compose(self, ops, split, slice_lines):
        """Walking blocks[:k] and then blocks[k:] equals one walk of every
        block, outputs and whole engine state alike, for any k -- the
        property the walk's bounded slices rely on.  A walk cut into
        slices of any size gives the same answer too."""
        from unittest import mock

        from repro.memory import DRAMModel, VectorCacheHierarchy, vector_cache

        blocks, writes = self._blocks(ops)
        split = min(split, len(blocks))
        whole = self._small_hierarchy(VectorCacheHierarchy)
        expected = whole.walk(blocks, writes, self._pricing(whole, DRAMModel))

        parts = self._small_hierarchy(VectorCacheHierarchy)
        pricing = self._pricing(parts, DRAMModel)
        head = parts.walk(blocks[:split], writes[:split], pricing)
        tail = parts.walk(blocks[split:], writes[split:], pricing)
        joined = (
            [a + b for a, b in zip(head[0], tail[0])],
            *(a + b for a, b in zip(head[1:], tail[1:])),
        )
        assert joined == expected
        assert self._observable(parts) == self._observable(whole)
        assert self._engine_state(parts) == self._engine_state(whole)

        sliced = self._small_hierarchy(VectorCacheHierarchy)
        with mock.patch.object(vector_cache, "_SLICE_LINES", slice_lines):
            assert sliced.walk(blocks, writes, self._pricing(sliced, DRAMModel)) == expected
        assert self._engine_state(sliced) == self._engine_state(whole)

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=200),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_dram_batch_matches_sequential(self, addresses, is_write):
        from oracle import DRAM, dram_latency

        from repro.memory import DRAMModel

        reference, batched = DRAM(), DRAMModel()
        aligned = [(a // 64) * 64 for a in addresses]
        expected = [
            dram_latency(reference.config, reference.access(a, is_write)) for a in aligned
        ]
        row_hit = batched.classify_batch(np.asarray(aligned, dtype=np.int64), is_write)
        assert batched.latencies_from_classification(row_hit).tolist() == expected
        assert vars(batched.stats) == vars(reference.stats)
