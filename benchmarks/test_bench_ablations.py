"""Ablation benchmarks for the design choices called out in DESIGN.md.

These do not correspond to a single paper figure; they quantify the impact
of individual mechanisms: control-block granularity, the controller's
instruction queue depth, warm versus cold caches, and the register-pressure
scheduler.
"""

from dataclasses import replace

from repro.compiler import compile_trace
from repro.core import AreaModel, default_config, simulate_trace
from repro.experiments import format_table
from repro.isa import PhysicalRegisterFile
from repro.workloads import create_kernel


def test_ablation_control_block_granularity(benchmark):
    """Fewer arrays per CB means more FSMs: area grows, flexibility grows."""

    def run():
        rows = []
        for arrays_per_cb in (1, 2, 4, 8):
            report = AreaModel(num_arrays=32, arrays_per_control_block=arrays_per_cb).report()
            rows.append([arrays_per_cb, 32 // arrays_per_cb, f"{report.overhead_percent:.2f}%"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation - control-block granularity (area)")
    print(format_table(["arrays per CB", "#CBs", "area overhead"], rows))
    # The paper's 4-array CB sits well below the per-array-FSM design.
    assert float(rows[2][2].rstrip("%")) < float(rows[0][2].rstrip("%"))


def test_ablation_instruction_queue_depth(benchmark, runner):
    """A deeper Intrinsic-Q lets the core run ahead of the engine."""
    kernel = create_kernel("webp_dither", scale=0.5)
    trace = kernel.capture("mve")

    def run():
        rows = []
        for entries in (4, 16, 64, 256):
            config = replace(default_config(), instruction_queue_entries=entries)
            result, _ = simulate_trace(trace, config=config)
            rows.append([entries, f"{result.total_cycles:.0f}",
                         f"{result.breakdown_fractions()['idle']:.0%}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation - controller instruction queue depth")
    print(format_table(["queue entries", "cycles", "idle"], rows))
    assert float(rows[-1][1]) <= float(rows[0][1])


def test_ablation_warm_vs_cold_cache(benchmark):
    """Steady-state (warm LLC) versus first-invocation (cold) behaviour."""
    kernel = create_kernel("memcpy", scale=0.5)
    trace = kernel.capture("mve")

    def run():
        warm, _ = simulate_trace(trace, warm_cache=True)
        cold, _ = simulate_trace(trace, warm_cache=False)
        return warm, cold

    warm, cold = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation - warm vs cold cache (memcpy)")
    print(format_table(
        ["state", "cycles", "data-access cycles", "energy (nJ)"],
        [["warm", f"{warm.total_cycles:.0f}", f"{warm.data_access_cycles:.0f}",
          f"{warm.energy_nj:.0f}"],
         ["cold", f"{cold.total_cycles:.0f}", f"{cold.data_access_cycles:.0f}",
          f"{cold.energy_nj:.0f}"]],
    ))
    assert cold.total_cycles >= warm.total_cycles


def test_ablation_register_pressure_scheduler(benchmark):
    """List scheduling shortens live ranges under register pressure.

    The trace loads many vectors up front and consumes them later -- the
    pattern where sinking definitions toward their first use pays off.
    """
    import numpy as np

    from repro.intrinsics import MVEMachine
    from repro.isa import DataType
    from repro.memory import FlatMemory

    memory = FlatMemory()
    machine = MVEMachine(memory)
    inputs = [
        memory.allocate_array(np.arange(1024, dtype=np.float32), DataType.FLOAT32)
        for _ in range(10)
    ]
    out = memory.allocate(DataType.FLOAT32, 1024)
    machine.vsetdimc(1)
    machine.vsetdiml(0, 1024)
    loaded = [machine.vsld(DataType.FLOAT32, alloc.address, (1,)) for alloc in inputs]
    acc = loaded[0]
    for value in loaded[1:]:
        acc = machine.vadd(acc, value)
    machine.vsst(acc, out.address, (1,))
    trace = machine.trace
    tiny_file = PhysicalRegisterFile(num_arrays=32, array_rows=128)  # 4 fp32 PRs

    def run():
        with_sched = compile_trace(trace, register_file=tiny_file, use_scheduler=True)
        without = compile_trace(trace, register_file=tiny_file, use_scheduler=False)
        return with_sched, without

    with_sched, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation - list scheduler under register pressure (10-input sum, 4 PRs)")
    print(format_table(
        ["configuration", "peak pressure", "spill ops"],
        [["with scheduler", with_sched.peak_pressure, with_sched.spill_count],
         ["without scheduler", without.peak_pressure, without.spill_count]],
    ))
    assert with_sched.spill_count <= without.spill_count
    assert with_sched.peak_pressure <= without.peak_pressure
