"""Benchmark kernel suite (the reproduction's Swan equivalent).

Importing this package registers every kernel; use :func:`create_kernel` /
:func:`kernel_names` to instantiate them.
"""

from .base import Kernel, elementwise_1d, tree_reduce
from .registry import (
    LIBRARY_DOMAINS,
    create_kernel,
    get_kernel_class,
    kernel_names,
    kernels_in_library,
    library_info,
    library_names,
    register,
    rvv_kernel_names,
)

# Importing the library modules populates the registry.
from . import (  # noqa: F401  (imported for registration side effects)
    boringssl,
    cmsis_dsp,
    kvazaar,
    libjpeg,
    libpng,
    libwebp,
    linpack,
    optroutines,
    skia,
    webaudio,
    xnnpack,
    zlib,
)

#: Kernels used for the detailed per-kernel comparisons (Figures 8, 10-13).
SELECTED_KERNELS = (
    "csum",
    "lpack",
    "fir_v",
    "fir_s",
    "fir_l",
    "gemm",
    "spmm",
    "satd",
    "intra",
    "dct",
    "idct",
)

__all__ = [
    "Kernel",
    "elementwise_1d",
    "tree_reduce",
    "LIBRARY_DOMAINS",
    "create_kernel",
    "get_kernel_class",
    "kernel_names",
    "kernels_in_library",
    "library_info",
    "library_names",
    "register",
    "rvv_kernel_names",
    "SELECTED_KERNELS",
]
