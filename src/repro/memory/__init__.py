"""Memory substrates: flat functional memory, DRAM timing, cache hierarchy."""

from .flatmem import Allocation, FlatMemory
from .dram import DRAMConfig, DRAMModel, DRAMStats
from .cache import (
    AccessResult,
    CacheConfig,
    CacheStats,
    HierarchyConfig,
    make_hierarchy,
)
from .vector_cache import VectorCache, VectorCacheHierarchy

__all__ = [
    "Allocation",
    "FlatMemory",
    "DRAMConfig",
    "DRAMModel",
    "DRAMStats",
    "AccessResult",
    "CacheConfig",
    "CacheStats",
    "HierarchyConfig",
    "VectorCache",
    "VectorCacheHierarchy",
    "make_hierarchy",
]
