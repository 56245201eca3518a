"""Unit tests for the compiler: liveness and register allocation."""

import re

import numpy as np
import pytest

from repro.compiler import analyze_liveness, compile_trace
from repro.compiler.liveness import defined_register, used_registers
from repro.core.traces import TraceSpec
from repro.intrinsics import MVEMachine
from repro.isa import (
    ConfigInstruction,
    DataType,
    InstructionCategory,
    MemoryInstruction,
    Opcode,
    PhysicalRegisterFile,
    ScalarBlock,
)
from repro.memory import FlatMemory


def build_chain_trace(num_values=4, dtype=DataType.INT32):
    """A simple trace: load two vectors, combine them repeatedly, store."""
    memory = FlatMemory()
    machine = MVEMachine(memory)
    a = memory.allocate_array(np.arange(16, dtype=dtype.numpy_dtype), dtype)
    out = memory.allocate(dtype, 16)
    machine.vsetdimc(1)
    machine.vsetdiml(0, 16)
    values = [machine.vsld(dtype, a.address, (1,)) for _ in range(num_values)]
    acc = values[0]
    for value in values[1:]:
        acc = machine.vadd(acc, value)
    machine.vsst(acc, out.address, (1,))
    machine.scalar(4)
    return machine.trace


def kernel_trace(name):
    return TraceSpec(name, "mve", 0.25).capture().trace


#: 32 arrays of 128 rows: four physical registers at 32 bits
SMALL_FILE = PhysicalRegisterFile(num_arrays=32, array_rows=128)


class TestLiveness:
    def test_def_use_extraction(self):
        trace = build_chain_trace()
        defs = [defined_register(e) for e in trace]
        uses = [used_registers(e) for e in trace]
        assert any(d is not None for d in defs)
        assert any(u for u in uses)

    def test_ranges_cover_uses(self):
        trace = build_chain_trace()
        info = analyze_liveness(trace)
        for reg, rng in info.ranges.items():
            for use in rng.uses:
                assert use >= rng.definition

    def test_widest_bits_detected(self):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        machine.vsetdimc(1)
        machine.vsetdiml(0, 8)
        narrow = machine.vsetdup(DataType.INT8, 1)
        wide = machine.vcvt(narrow, DataType.INT64)
        machine.vadd(wide, wide)
        info = analyze_liveness(machine.trace)
        assert info.widest_bits == 64

    def test_scalar_blocks_ignored(self):
        info = analyze_liveness([ScalarBlock(10)])
        assert info.ranges == {}


class TestRegisterAllocation:
    def test_no_spills_when_registers_suffice(self):
        trace = build_chain_trace(num_values=3)
        result = compile_trace(trace)
        assert result.spill_count == 0
        assert result.element_bits == 32
        assert result.num_physical_registers == 8

    def test_width_config_injected(self):
        result = compile_trace(build_chain_trace())
        first = result.trace[0]
        assert isinstance(first, ConfigInstruction)
        assert first.opcode is Opcode.SET_WIDTH
        assert first.operand_a == 32

    def test_spills_inserted_under_pressure(self):
        # A tiny register file (2 PRs) forces spilling for a 6-value chain
        # where all loads happen before the adds.
        trace = build_chain_trace(num_values=6)
        tiny = PhysicalRegisterFile(num_arrays=1, array_rows=64, array_cols=16)
        result = compile_trace(trace, register_file=tiny)
        assert result.num_physical_registers == 2
        assert result.spill_count > 0
        spill_ops = [
            e for e in result.trace if isinstance(e, MemoryInstruction) and e.is_spill
        ]
        assert len(spill_ops) == result.spill_count

    def test_assignments_within_bounds(self):
        trace = build_chain_trace(num_values=5)
        result = compile_trace(trace)
        assert all(0 <= p < result.num_physical_registers for p in result.assignment.values())

    def test_peak_pressure_bounded_by_register_count(self):
        trace = build_chain_trace(num_values=8)
        tiny = PhysicalRegisterFile(num_arrays=1, array_rows=96, array_cols=16)
        result = compile_trace(trace, register_file=tiny)
        assert result.peak_pressure <= result.num_physical_registers

    @pytest.mark.parametrize("rows", [8, 63])
    def test_file_below_two_registers_is_rejected(self, rows):
        """A file too small for the kernel's width is an error, never
        simulated as if it held two registers."""
        tiny = PhysicalRegisterFile(num_arrays=1, array_rows=rows, array_cols=16)
        message = (
            f"{rows}-row arrays hold {rows // 32} registers of 32-bit elements; "
            "the compiler needs at least 2"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            compile_trace(build_chain_trace(), register_file=tiny)


class TestPipeline:
    def test_compile_trace_end_to_end(self):
        trace = build_chain_trace()
        compiled = compile_trace(trace)
        assert compiled.element_bits == 32
        assert compiled.spill_count == 0
        assert len(compiled.trace) >= len(trace)

    @pytest.mark.parametrize(
        "name, small_file_spills",
        [("ycc_to_rgb", 10), ("webp_dither", 2), ("skia_grayscale", 2)],
    )
    def test_allocates_in_captured_order(self, name, small_file_spills):
        """Compiling keeps the captured order: without its leading width
        config and its spill traffic, the compiled trace is the captured
        trace, entry for entry.  These are the kernels whose order a
        scheduler that sinks definitions toward their first use changes."""
        trace = kernel_trace(name)
        spills = []
        for register_file in (None, SMALL_FILE):
            compiled = compile_trace(trace, register_file=register_file)
            assert compiled.trace[0].opcode is Opcode.SET_WIDTH
            body = [
                entry
                for entry in compiled.trace[1:]
                if not (isinstance(entry, MemoryInstruction) and entry.is_spill)
            ]
            assert [id(entry) for entry in body] == [id(entry) for entry in trace]
            spills.append(compiled.spill_count)
        assert spills == [0, small_file_spills]

    def test_compiled_trace_still_has_all_categories(self):
        compiled = compile_trace(build_chain_trace())
        categories = {
            e.category for e in compiled.trace if not isinstance(e, ScalarBlock)
        }
        assert InstructionCategory.MEMORY in categories
        assert InstructionCategory.ARITHMETIC in categories
        assert InstructionCategory.CONFIG in categories
