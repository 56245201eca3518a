"""repro: reproduction of "Multi-Dimensional Vector ISA Extension for Mobile
In-Cache Computing" (HPCA 2025).

Public API overview
-------------------

* :mod:`repro.isa` -- MVE instruction set (data types, stride modes,
  instructions, control/physical registers).
* :mod:`repro.intrinsics` -- functional MVE machine: write kernels against
  the intrinsic API, get numerically-correct results plus instruction traces
  (a suite kernel reaches it through
  :meth:`~repro.workloads.base.Kernel.capture`).
* :mod:`repro.memory` -- flat memory, DRAM timing, cache hierarchy.
* :mod:`repro.sram` -- in-SRAM compute schemes (bit-serial, bit-parallel,
  bit-hybrid, associative) and the transpose memory unit.
* :mod:`repro.compiler` -- liveness and register allocation over the
  captured trace.
* :mod:`repro.core` -- MVE controller and end-to-end timing/energy/area
  simulation; :func:`simulate_trace` compiles a captured trace and times it.
* :mod:`repro.baselines` -- Arm Neon, mobile GPU, Duality Cache, RVV models.
* :mod:`repro.workloads` -- the Swan-like kernel suite (12 libraries).
* :mod:`repro.experiments` -- one module per table/figure of the paper.
"""

from .core.config import MachineConfig, default_config
from .core.results import SimulationResult
from .core.simulator import simulate_trace
from .intrinsics.machine import MVEMachine
from .isa.datatypes import DataType
from .memory.flatmem import FlatMemory

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "default_config",
    "SimulationResult",
    "simulate_trace",
    "MVEMachine",
    "DataType",
    "FlatMemory",
    "__version__",
]
