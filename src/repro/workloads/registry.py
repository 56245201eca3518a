"""Kernel registry: the reproduction's equivalent of the Swan suite manifest.

Kernels register themselves with the :func:`register` decorator.  Experiments
look kernels up by name or by library (Table III) and instantiate them at a
chosen dataset scale.
"""

from __future__ import annotations

from typing import Callable, Iterable, Type

from .base import Kernel

__all__ = [
    "register",
    "kernel_names",
    "rvv_kernel_names",
    "get_kernel_class",
    "create_kernel",
    "kernels_in_library",
    "library_names",
    "library_info",
    "LIBRARY_DOMAINS",
]

_REGISTRY: dict[str, Type[Kernel]] = {}

#: Table III: library -> (application domain, dimensionality label)
LIBRARY_DOMAINS = {
    "Linpack": ("Linear Algebra", "1D"),
    "XNNPACK": ("Machine Learning", "2D"),
    "CMSIS-DSP": ("Signal Processing", "1D"),
    "Kvazaar": ("Video Processing", "3D"),
    "libjpeg": ("Image Processing", "2-3D"),
    "libpng": ("Image Processing", "2-4D"),
    "libwebp": ("Image Processing", "2-3D"),
    "Skia": ("Graphics", "1-3D"),
    "Webaudio": ("Audio Processing", "1-3D"),
    "zlib": ("Data Compression", "1-2D"),
    "boringssl": ("Cryptography", "1-2D"),
    "Arm Optimized Routines": ("String/Network Utilities", "1-2D"),
}


def register(cls: Type[Kernel]) -> Type[Kernel]:
    """Class decorator adding a kernel to the global registry."""
    if not cls.name:
        raise ValueError(f"kernel class {cls.__name__} must define a name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate kernel name: {cls.name}")
    if cls.library not in LIBRARY_DOMAINS:
        raise ValueError(f"kernel {cls.name} references unknown library {cls.library!r}")
    _REGISTRY[cls.name] = cls
    return cls


def kernel_names() -> list[str]:
    return sorted(_REGISTRY)


def rvv_kernel_names() -> list[str]:
    """Kernels with a 1D (RVV) lowering: the only ones an ``rvv`` job can run."""
    return sorted(name for name, cls in _REGISTRY.items() if cls.run_rvv is not Kernel.run_rvv)


def get_kernel_class(name: str) -> Type[Kernel]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def create_kernel(name: str, scale: float = 1.0, seed: int = 0) -> Kernel:
    return get_kernel_class(name)(scale=scale, seed=seed)


def kernels_in_library(library: str) -> list[str]:
    return sorted(name for name, cls in _REGISTRY.items() if cls.library == library)


def library_names() -> list[str]:
    return list(LIBRARY_DOMAINS)


def library_info(library: str) -> tuple[str, str]:
    """(domain, dimensionality) for a library, as in Table III."""
    return LIBRARY_DOMAINS[library]
