"""Machine configuration (Table IV of the paper).

`MachineConfig` bundles everything the end-to-end timing simulator needs:
the Snapdragon-855-class scalar core, the cache hierarchy, the in-cache
engine geometry, the compute scheme and a handful of modelling knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..memory.cache import HierarchyConfig
from ..sram.array import EngineGeometry
from ..sram.schemes import get_scheme
from ..sram.tmu import TMUConfig

__all__ = ["MachineConfig", "default_config"]


@dataclass(frozen=True)
class MachineConfig:
    """Full system configuration for the MVE timing simulator."""

    # Scalar core (Arm Cortex-A76 prime core)
    frequency_ghz: float = 2.8
    #: descriptive Table IV value; no timing model reads it
    issue_width: int = 4
    #: descriptive Table IV value; no timing model reads it
    rob_entries: int = 128
    scalar_ipc: float = 2.0
    #: descriptive Table IV value; no timing model reads it (MVE stores are
    #: not held in a write buffer)
    write_buffer_entries: int = 16

    # Cache hierarchy (Table IV)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    l2_compute_ways: int = 4

    # In-cache vector engine
    engine: EngineGeometry = field(default_factory=EngineGeometry)
    tmu: TMUConfig = field(default_factory=TMUConfig)
    #: the in-SRAM compute scheme; aliases canonicalize (``bs`` and
    #: ``BIT_SERIAL`` are ``bit-serial``) and an unknown name raises
    #: ``ValueError``
    scheme_name: str = "bit-serial"
    #: core cycles per SRAM compute cycle (Blade-style mobile compute caches
    #: run at the core clock; raise this to model a slower SRAM domain)
    sram_cycle_multiplier: float = 1.0
    #: extra latency factor applied to floating-point in-SRAM arithmetic
    float_latency_factor: float = 1.5
    #: MVE controller instruction queue capacity (2 KB Intrinsic-Q, ~8 B/entry)
    instruction_queue_entries: int = 256
    #: fixed controller decode/dispatch cycles per MVE instruction
    controller_dispatch_cycles: int = 4
    #: core-side cycles to decode, commit and send one MVE instruction to the
    #: L2-side controller (ROB-head issue over the core/L2 interface)
    vector_issue_cycles: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "scheme_name", get_scheme(self.scheme_name).name)

    @property
    def simd_lanes(self) -> int:
        return self.engine.bitlines

    @property
    def num_control_blocks(self) -> int:
        return self.engine.num_control_blocks

    def with_arrays(self, num_arrays: int) -> "MachineConfig":
        """A copy of this config with a different SRAM array count."""
        arrays_per_cb = min(self.engine.arrays_per_control_block, num_arrays)
        engine = EngineGeometry(
            num_arrays=num_arrays,
            arrays_per_control_block=arrays_per_cb,
            array=self.engine.array,
        )
        return replace(self, engine=engine)

    def with_scheme(self, scheme_name: str) -> "MachineConfig":
        return replace(self, scheme_name=scheme_name)


def default_config() -> MachineConfig:
    """The baseline configuration used throughout the evaluation."""
    return MachineConfig()
