"""Adreno-640-class mobile GPU baseline model.

The paper's GPU comparison (Figure 8 and 9) attributes MVE's advantage to
two overheads the GPU cannot avoid for fine-grain kernels: OpenCL kernel
launch (runtime + command processor + core-GPU fabric) and copying data
between complex C++ objects and pinned buffers in the unified memory
region.  For large matrix multiplications the GPU's raw MAC throughput
eventually wins (the Figure 9 crossover).  This model captures exactly
those three terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .profile import KernelProfile

__all__ = ["GPUConfig", "GPUResult", "GPUModel"]


@dataclass(frozen=True)
class GPUConfig:
    """Adreno 640 configuration (Table IV) plus runtime overheads."""

    num_alus: int = 384
    frequency_ghz: float = 0.685
    #: fused multiply-add counts as two operations per ALU per cycle
    ops_per_alu_per_cycle: float = 2.0
    #: effective memory bandwidth of the GPU memory path (bytes/second)
    memory_bandwidth_gbps: float = 25.0
    #: OpenCL kernel launch overhead (runtime, ADSPRPC-like stack, fabric), seconds
    kernel_launch_overhead_s: float = 80e-6
    #: host-to-pinned-buffer copy bandwidth (bytes/second)
    copy_bandwidth_gbps: float = 4.0
    #: average GPU power while executing (W)
    execute_power_w: float = 2.2
    #: average SoC power while copying data (W)
    copy_power_w: float = 1.2
    #: idle/launch power (W)
    launch_power_w: float = 0.9


@dataclass
class GPUResult:
    """Execution time and energy of the GPU baseline, split by phase."""

    kernel_time_s: float
    transfer_time_s: float
    launch_time_s: float
    energy_j: float

    @property
    def total_time_s(self) -> float:
        return self.kernel_time_s + self.transfer_time_s + self.launch_time_s

    @property
    def time_ms(self) -> float:
        return self.total_time_s * 1e3

    @property
    def energy_nj(self) -> float:
        return self.energy_j * 1e9

    @property
    def kernel_only_time_ms(self) -> float:
        return (self.kernel_time_s + self.launch_time_s) * 1e3


class GPUModel:
    """Analytic mobile-GPU model with launch and copy overheads."""

    def __init__(self, config: Optional[GPUConfig] = None):
        self.config = config or GPUConfig()

    def run(self, profile: KernelProfile) -> GPUResult:
        cfg = self.config
        peak_ops_per_s = cfg.num_alus * cfg.frequency_ghz * 1e9 * cfg.ops_per_alu_per_cycle
        # Integer kernels run at the same ALU rate; low-precision kernels do
        # not pack on this GPU generation, so throughput is per element.
        compute_time = profile.total_ops / peak_ops_per_s
        memory_time = profile.total_bytes / (cfg.memory_bandwidth_gbps * 1e9)
        kernel_time = max(compute_time, memory_time)

        transfer_time = profile.total_bytes / (cfg.copy_bandwidth_gbps * 1e9)

        energy = (
            kernel_time * cfg.execute_power_w
            + transfer_time * cfg.copy_power_w
            + cfg.kernel_launch_overhead_s * cfg.launch_power_w
        )
        return GPUResult(
            kernel_time_s=kernel_time,
            transfer_time_s=transfer_time,
            launch_time_s=cfg.kernel_launch_overhead_s,
            energy_j=energy,
        )
