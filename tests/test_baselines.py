"""Unit tests for the baseline models: Neon, GPU, Duality Cache, RVV emitter."""

import numpy as np
import pytest

from repro.baselines import (
    DualityCacheModel,
    GPUConfig,
    GPUModel,
    KernelProfile,
    NeonModel,
    RVVEmitter,
    to_simt_trace,
)
from repro.compiler import compile_trace
from repro.core import default_config
from repro.core.simulator import replay_trace
from repro.intrinsics import MVEMachine
from repro.isa import DataType, InstructionCategory, ScalarBlock
from repro.memory import FlatMemory
from repro.workloads import create_kernel, kernel_names

from oracle import CacheHierarchy


def make_profile(**overrides):
    defaults = dict(
        name="test",
        element_bits=32,
        is_float=True,
        elements=8192,
        ops_per_element={"mac": 4.0},
        bytes_read=8192 * 8,
        bytes_written=8192 * 4,
    )
    defaults.update(overrides)
    return KernelProfile(**defaults)


class TestKernelProfile:
    def test_total_ops_counts_mac_twice(self):
        profile = make_profile(ops_per_element={"mac": 1.0}, elements=100)
        assert profile.total_ops == 200

    def test_flops_zero_for_integer(self):
        assert make_profile(is_float=False).flops == 0

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValueError):
            make_profile(ops_per_element={"fma4": 1.0})

    def test_arithmetic_intensity(self):
        profile = make_profile()
        assert profile.arithmetic_intensity == pytest.approx(
            profile.total_ops / profile.total_bytes
        )


class TestNeonModel:
    def test_more_elements_take_longer(self):
        model = NeonModel()
        small = model.run(make_profile(elements=1024, bytes_read=1024 * 8, bytes_written=1024 * 4))
        large = model.run(make_profile())
        assert large.total_cycles > small.total_cycles

    def test_lower_precision_packs_more_lanes(self):
        model = NeonModel()
        int8 = model.run(make_profile(element_bits=8, is_float=False))
        fp32 = model.run(make_profile())
        assert int8.compute_cycles < fp32.compute_cycles

    def test_memory_bound_when_no_ops(self):
        model = NeonModel()
        result = model.run(make_profile(ops_per_element={}))
        assert result.memory_cycles > 0
        assert result.total_cycles >= result.memory_cycles

    def test_energy_positive(self):
        assert NeonModel().run(make_profile()).energy_nj > 0

    def test_efficiency_knob(self):
        fast = NeonModel(simd_efficiency=1.0).run(make_profile())
        slow = NeonModel(simd_efficiency=0.25).run(make_profile())
        assert slow.total_cycles > fast.total_cycles

    def test_cache_walk_matches_the_per_line_reference(self):
        """Neon streams its footprint through the production block walk;
        the per-line reference hierarchy (whole L2, as Neon keeps it) must
        give every registered kernel the identical result."""
        config = default_config()
        reference = NeonModel(
            config, hierarchy=CacheHierarchy(config.hierarchy, l2_compute_ways=0)
        )
        production = NeonModel(config)
        profiles = {}
        for name in kernel_names():
            kernel = create_kernel(name, scale=0.25)
            kernel.setup()
            profiles[name] = kernel.profile()
        # Every kernel's footprint fits the L2 at this scale, so two larger
        # synthetic streams cover the LLC and DRAM paths of the walk too.
        profiles["llc-resident"] = make_profile(bytes_read=1 << 20)
        profiles["dram-bound"] = make_profile(bytes_read=4 << 20)
        for name, profile in profiles.items():
            assert reference.run(profile) == production.run(profile), name


class TestGPUModel:
    def test_launch_overhead_dominates_small_kernels(self):
        model = GPUModel()
        tiny = model.run(make_profile(elements=64, bytes_read=512, bytes_written=256))
        assert tiny.launch_time_s >= tiny.kernel_time_s

    def test_transfer_optional(self):
        """The host-transfer term is the whole gap between the reported time
        and the kernel-only time (launch + execution)."""
        result = GPUModel().run(make_profile())
        assert result.transfer_time_s > 0
        assert result.time_ms - result.kernel_only_time_ms == pytest.approx(
            result.transfer_time_s * 1e3
        )

    def test_compute_bound_for_large_gemm(self):
        model = GPUModel()
        profile = make_profile(
            elements=1_000_000, ops_per_element={"mac": 64.0},
            bytes_read=8_000_000, bytes_written=4_000_000,
        )
        result = model.run(profile)
        assert result.kernel_time_s > result.launch_time_s

    def test_energy_scales_with_time(self):
        model = GPUModel(GPUConfig(execute_power_w=5.0))
        low_power = GPUModel(GPUConfig(execute_power_w=1.0))
        profile = make_profile(elements=1_000_000, ops_per_element={"mac": 32.0})
        assert model.run(profile).energy_j > low_power.run(profile).energy_j


class TestDualityCache:
    def _compiled_trace(self):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        data = memory.allocate_array(np.arange(1024, dtype=np.int32), DataType.INT32)
        out = memory.allocate(DataType.INT32, 1024)
        machine.vsetdimc(1)
        machine.vsetdiml(0, 1024)
        machine.scalar(16)
        value = machine.vsld(DataType.INT32, data.address, (1,))
        machine.vsst(machine.vadd(value, value), out.address, (1,))
        return compile_trace(machine.trace).trace

    def test_simt_trace_adds_address_calculation(self):
        trace = self._compiled_trace()
        simt = to_simt_trace(trace)
        original_arith = sum(
            1 for e in trace
            if not isinstance(e, ScalarBlock) and e.category is InstructionCategory.ARITHMETIC
        )
        simt_arith = sum(
            1 for e in simt
            if not isinstance(e, ScalarBlock) and e.category is InstructionCategory.ARITHMETIC
        )
        assert simt_arith > original_arith

    def test_simt_trace_removes_scalar_blocks(self):
        simt = to_simt_trace(self._compiled_trace())
        assert not any(isinstance(e, ScalarBlock) for e in simt)

    def test_simt_slower_than_simd(self):
        trace = self._compiled_trace()
        (mve,) = replay_trace(trace, [default_config()])
        dc = DualityCacheModel().run(trace)
        assert dc.total_cycles > mve.total_cycles


class TestRVVEmitter:
    def test_multidim_load_emits_per_segment_overhead(self):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        memory.allocate_array(np.arange(64, dtype=np.int32), DataType.INT32)
        emitter = RVVEmitter(machine)
        emitter.load_multidim(DataType.INT32, memory.base_address, 8, 4, 8)
        stats = machine.stats()
        assert stats.memory == 4          # one partial load per segment
        assert stats.move == 4            # one packing move per segment
        assert stats.scalar >= 4 * 6      # per-segment scalar bookkeeping

    def test_strided_load_uses_stride_register(self):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        data = memory.allocate_array(np.arange(64, dtype=np.int32), DataType.INT32)
        emitter = RVVEmitter(machine)
        emitter.set_vector_length(8)
        value = emitter.load_1d(DataType.INT32, data.address, stride_elements=4)
        np.testing.assert_array_equal(value.values, np.arange(0, 32, 4))

    def test_segments_for(self):
        machine = MVEMachine(FlatMemory(), simd_lanes=8192)
        emitter = RVVEmitter(machine)
        assert emitter.segments_for(1024) == 8
        assert emitter.segments_for(10000) == 1
