#!/usr/bin/env python3
"""Video-coding scenario: HEVC transforms and SATD on the in-cache engine.

Runs the Kvazaar-derived kernels (DCT, IDCT, SATD, intra prediction) from
the workload suite, validates them functionally, and compares the four
in-SRAM computing schemes (bit-serial / bit-hybrid / bit-parallel /
associative) on the forward DCT -- the Section VII-C study in miniature.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import default_config, simulate_trace
from repro.sram import SCHEME_NAMES
from repro.workloads import create_kernel

KERNELS = ("dct", "idct", "satd", "intra")
SCALE = 0.25  # 256 8x8 blocks per kernel


def main() -> None:
    print("Validating and simulating the video-coding kernels "
          f"(scale={SCALE}, bit-serial engine)")
    traces = {}
    for name in KERNELS:
        kernel = create_kernel(name, scale=SCALE)
        assert kernel.validate(), f"{name} failed functional validation"
        trace = kernel.capture("mve")
        traces[name] = trace
        result, _ = simulate_trace(trace)
        fractions = result.breakdown_fractions()
        print(f"  {name:6s}: {result.total_cycles:10.0f} cycles  "
              f"{result.time_us:8.2f} us  "
              f"idle/comp/data = {fractions['idle']:.0%}/{fractions['compute']:.0%}/"
              f"{fractions['data_access']:.0%}  "
              f"lane util {result.lane_utilization:.0%}")

    print("\nForward DCT across in-SRAM computing schemes:")
    for scheme_name in SCHEME_NAMES:
        config = default_config().with_scheme(scheme_name)
        result, _ = simulate_trace(traces["dct"], config=config)
        print(f"  {scheme_name:13s}: {result.total_cycles:10.0f} cycles "
              f"(compute {result.compute_cycles:10.0f})")


if __name__ == "__main__":
    main()
