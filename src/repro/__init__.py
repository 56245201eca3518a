"""repro: reproduction of "Multi-Dimensional Vector ISA Extension for Mobile
In-Cache Computing" (HPCA 2025).

Public API overview
-------------------

* :mod:`repro.isa` -- MVE instruction set (data types, stride modes,
  instructions, control/physical registers).
* :mod:`repro.intrinsics` -- functional MVE machine: write kernels against
  the intrinsic API, get numerically-correct results plus instruction traces.
* :mod:`repro.memory` -- flat memory, DRAM timing, cache hierarchy.
* :mod:`repro.sram` -- in-SRAM compute schemes (bit-serial, bit-parallel,
  bit-hybrid, associative) and the transpose memory unit.
* :mod:`repro.compiler` -- liveness, list scheduling, register allocation.
* :mod:`repro.core` -- MVE controller and end-to-end timing/energy/area
  simulation.
* :mod:`repro.baselines` -- Arm Neon, mobile GPU, Duality Cache, RVV models.
* :mod:`repro.workloads` -- the Swan-like kernel suite (12 libraries).
* :mod:`repro.experiments` -- one module per table/figure of the paper.
"""

from .core.config import MachineConfig, default_config
from .core.results import SimulationResult
from .core.simulator import simulate_kernel
from .intrinsics.machine import MVEMachine
from .isa.datatypes import DataType
from .memory.flatmem import FlatMemory

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "default_config",
    "SimulationResult",
    "simulate_kernel",
    "MVEMachine",
    "DataType",
    "FlatMemory",
    "__version__",
]
