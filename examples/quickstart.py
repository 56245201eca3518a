#!/usr/bin/env python3
"""Quickstart: write an MVE kernel, validate it, and simulate it.

This example walks through the full tool flow on a small image-blend
kernel:

1. allocate inputs in the flat memory model,
2. express the kernel with MVE intrinsics (multi-dimensional strided loads,
   arithmetic, dimension-level configuration),
3. check the functional result against numpy,
4. compile the recorded trace (register allocation), and
5. simulate it on the in-cache engine and compare against the Neon model.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import DataType, FlatMemory, MVEMachine, simulate_trace
from repro.baselines import KernelProfile, NeonModel

# One full in-cache register worth of pixels (32 x 256 = 8192 SIMD lanes).
ROWS, COLS = 32, 256


def main() -> None:
    memory = FlatMemory()
    machine = MVEMachine(memory)

    foreground = np.random.default_rng(0).integers(0, 255, (ROWS, COLS)).astype(np.int32)
    background = np.random.default_rng(1).integers(0, 255, (ROWS, COLS)).astype(np.int32)
    fg = memory.allocate_array(foreground.reshape(-1), DataType.INT32)
    bg = memory.allocate_array(background.reshape(-1), DataType.INT32)
    out = memory.allocate(DataType.INT32, ROWS * COLS)

    # A 2D kernel: blend = (fg + bg) >> 1, processed as (columns, rows) tiles.
    machine.vsetdimc(2)
    machine.vsetdiml(0, COLS)
    machine.vsetdiml(1, ROWS)
    machine.scalar(8)
    fg_vec = machine.vsld(DataType.INT32, fg.address, (1, 2))
    bg_vec = machine.vsld(DataType.INT32, bg.address, (1, 2))
    blended = machine.vshr_imm(machine.vadd(fg_vec, bg_vec), 1)
    machine.vsst(blended, out.address, (1, 2))

    expected = (foreground + background) >> 1
    assert np.array_equal(out.read().reshape(ROWS, COLS), expected), "functional mismatch"
    print(f"functional check passed on {ROWS}x{COLS} pixels")

    result, compiled = simulate_trace(machine.trace)
    print(f"MVE: {result.total_cycles:.0f} cycles ({result.time_us:.2f} us), "
          f"{result.energy_nj:.0f} nJ, spills={compiled.spill_count}")
    fractions = result.breakdown_fractions()
    print(f"     breakdown: idle {fractions['idle']:.0%}, compute {fractions['compute']:.0%}, "
          f"data access {fractions['data_access']:.0%}")

    profile = KernelProfile(
        name="blend", element_bits=32, is_float=False, elements=ROWS * COLS,
        ops_per_element={"add": 1.0, "shift": 1.0},
        bytes_read=ROWS * COLS * 8, bytes_written=ROWS * COLS * 4,
    )
    neon = NeonModel().run(profile)
    print(f"Neon baseline: {neon.total_cycles:.0f} cycles ({neon.time_ms * 1e3:.2f} us), "
          f"{neon.energy_nj:.0f} nJ")
    print(f"MVE speedup {neon.total_cycles / result.total_cycles:.2f}x, "
          f"energy reduction {neon.energy_nj / result.energy_nj:.2f}x")


if __name__ == "__main__":
    main()
