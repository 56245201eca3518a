"""Unit tests for the in-SRAM compute schemes, array geometry and TMU."""

import math

import pytest

from repro.isa import Opcode
from repro.sram import (
    AssociativeScheme,
    BitHybridScheme,
    BitParallelScheme,
    BitSerialScheme,
    EngineGeometry,
    SramArrayGeometry,
    TMUConfig,
    TransposeMemoryUnit,
    get_scheme,
)


class TestGeometry:
    def test_array_size(self):
        array = SramArrayGeometry()
        assert array.bits == 256 * 256
        assert array.size_bytes == 8 * 1024

    def test_default_engine_matches_paper(self):
        engine = EngineGeometry()
        assert engine.bitlines == 8192
        assert engine.num_control_blocks == 8
        assert engine.lanes_per_control_block == 1024
        assert engine.compute_capacity_bytes == 256 * 1024

    def test_invalid_cb_grouping_rejected(self):
        with pytest.raises(ValueError):
            EngineGeometry(num_arrays=10, arrays_per_control_block=4)

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            (0, 256, "array rows must be positive"),
            (-8, 256, "array rows must be positive"),
            (256, 0, "array cols must be positive"),
        ],
    )
    def test_non_positive_array_shape_rejected(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            SramArrayGeometry(rows=rows, cols=cols)

    def test_scaling_arrays(self):
        engine = EngineGeometry(num_arrays=64)
        assert engine.bitlines == 16384
        assert engine.num_control_blocks == 16


class TestBitSerialLatencies:
    """Latency formulas of Table II (bit-serial, precision n)."""

    scheme = BitSerialScheme()

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_add_is_n(self, bits):
        assert self.scheme.op_latency(Opcode.ADD, bits) == bits

    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_sub_is_2n(self, bits):
        assert self.scheme.op_latency(Opcode.SUB, bits) == 2 * bits

    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_mul_is_quadratic(self, bits):
        assert self.scheme.op_latency(Opcode.MUL, bits) == bits * bits + 5 * bits

    @pytest.mark.parametrize("bits", [8, 32])
    def test_minmax_is_2n(self, bits):
        assert self.scheme.op_latency(Opcode.MIN, bits) == 2 * bits
        assert self.scheme.op_latency(Opcode.MAX, bits) == 2 * bits

    def test_xor_and_compare_are_n(self):
        assert self.scheme.op_latency(Opcode.XOR, 32) == 32
        assert self.scheme.op_latency(Opcode.GT, 32) == 32

    def test_shift_register_is_nlogn(self):
        assert self.scheme.op_latency(Opcode.SHIFT_REG, 32) == 32 * 5

    def test_lanes_independent_of_width(self):
        engine = EngineGeometry()
        assert self.scheme.lanes(engine, 8) == 8192
        assert self.scheme.lanes(engine, 32) == 8192

    def test_non_compute_opcode_rejected(self):
        with pytest.raises(ValueError):
            self.scheme.op_latency(Opcode.STRIDED_LOAD, 32)


class TestOtherSchemes:
    engine = EngineGeometry()

    def test_bit_parallel_trades_lanes_for_latency(self):
        bs, bp = BitSerialScheme(), BitParallelScheme()
        assert bp.lanes(self.engine, 32) == 8192 // 32
        assert bp.op_latency(Opcode.ADD, 32) < bs.op_latency(Opcode.ADD, 32)
        assert bp.op_latency(Opcode.MUL, 32) < bs.op_latency(Opcode.MUL, 32)

    def test_bit_hybrid_between_serial_and_parallel(self):
        bs, bh, bp = BitSerialScheme(), BitHybridScheme(), BitParallelScheme()
        assert bp.lanes(self.engine, 32) < bh.lanes(self.engine, 32) < bs.lanes(self.engine, 32)
        assert (
            bp.op_latency(Opcode.MUL, 32)
            <= bh.op_latency(Opcode.MUL, 32)
            <= bs.op_latency(Opcode.MUL, 32)
        )

    def test_associative_addition_cost(self):
        ac = AssociativeScheme()
        assert ac.op_latency(Opcode.ADD, 32) == 8 * 32 + 2
        assert ac.op_latency(Opcode.SUB, 32) == 8 * 32 + 2

    def test_associative_logical_ops_constant(self):
        ac = AssociativeScheme()
        assert ac.op_latency(Opcode.XOR, 8) == ac.op_latency(Opcode.XOR, 64)

    def test_associative_arithmetic_slower_than_bit_serial(self):
        ac, bs = AssociativeScheme(), BitSerialScheme()
        for opcode in (Opcode.ADD, Opcode.MUL):
            assert ac.op_latency(opcode, 32) > bs.op_latency(opcode, 32)

    def test_bit_hybrid_segment_validation(self):
        with pytest.raises(ValueError):
            BitHybridScheme(segment_bits=0)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("bit-serial", BitSerialScheme),
            ("bs", BitSerialScheme),
            ("bit-parallel", BitParallelScheme),
            ("bp", BitParallelScheme),
            ("bh", BitHybridScheme),
            ("associative", AssociativeScheme),
            ("AC", AssociativeScheme),
        ],
    )
    def test_factory(self, name, cls):
        assert isinstance(get_scheme(name), cls)

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            get_scheme("quantum")


class TestTMU:
    def test_fill_scales_with_elements(self):
        tmu = TransposeMemoryUnit()
        small = tmu.fill_cycles(128, 32)
        large = tmu.fill_cycles(1024, 32)
        assert large > small

    def test_fill_scales_with_precision(self):
        tmu = TransposeMemoryUnit()
        assert tmu.fill_cycles(512, 8) < tmu.fill_cycles(512, 32)

    def test_capacity_batching(self):
        config = TMUConfig(capacity_elements=256)
        tmu = TransposeMemoryUnit(config)
        one_batch = tmu.fill_cycles(256, 32)
        two_batches = tmu.fill_cycles(512, 32)
        assert two_batches == pytest.approx(2 * one_batch)

    def test_zero_elements_free(self):
        assert TransposeMemoryUnit().fill_cycles(0, 32) == 0

    def test_partial_final_batch_routes_remaining_elements_only(self):
        """Regression: the last partial batch used to be charged the
        full-capacity crossbar routing cost instead of its own size."""
        config = TMUConfig(capacity_elements=256, crossbar_elements_per_cycle=16)
        tmu = TransposeMemoryUnit(config)
        stream = 32 * config.row_transfer_cycles
        full_route = 256 // 16
        assert tmu.fill_cycles(256 + 16, 32) == (full_route + stream) + (1 + stream)
        # A partial batch can never cost as much as a full one.
        assert tmu.fill_cycles(257, 32) < 2 * tmu.fill_cycles(256, 32)

    def test_drain_symmetric(self):
        tmu = TransposeMemoryUnit()
        assert tmu.drain_cycles(512, 16) == tmu.fill_cycles(512, 16)
