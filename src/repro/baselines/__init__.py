"""Baseline models: Arm Neon, mobile GPU, Duality Cache SIMT, RVV lowering."""

from .profile import KernelProfile, OP_KINDS
from .neon import NeonModel, NeonResult
from .gpu import GPUConfig, GPUModel, GPUResult
from .duality_cache import DualityCacheModel, to_simt_trace
from .rvv import RVVEmitter

__all__ = [
    "KernelProfile",
    "OP_KINDS",
    "NeonModel",
    "NeonResult",
    "GPUConfig",
    "GPUModel",
    "GPUResult",
    "DualityCacheModel",
    "to_simt_trace",
    "RVVEmitter",
]
