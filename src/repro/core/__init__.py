"""The paper's primary contribution: MVE controller, timing, energy, area."""

from .address_gen import cache_line_addresses, element_addresses
from .area import AreaModel, AreaReport, GPU_AREA_MM2, NEON_AREA_MM2, SCALAR_CORE_AREA_MM2
from .cache import ResultStore, code_fingerprint, config_digest, stable_hash
from .config import MachineConfig, default_config
from .store_backend import LocalDirBackend
from .controller import InstructionPlacement, MVEControllerModel
from .energy import EnergyBreakdown, EnergyCoefficients, EnergyModel
from .results import SimulationResult
from .simulator import simulate_trace

__all__ = [
    "cache_line_addresses",
    "element_addresses",
    "AreaModel",
    "AreaReport",
    "GPU_AREA_MM2",
    "NEON_AREA_MM2",
    "SCALAR_CORE_AREA_MM2",
    "ResultStore",
    "LocalDirBackend",
    "code_fingerprint",
    "config_digest",
    "stable_hash",
    "MachineConfig",
    "default_config",
    "InstructionPlacement",
    "MVEControllerModel",
    "EnergyBreakdown",
    "EnergyCoefficients",
    "EnergyModel",
    "SimulationResult",
    "simulate_trace",
]
