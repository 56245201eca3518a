"""Multi-Dimensional Variable (``__mdv``) handles.

In the paper's C/C++ programming model, MVE values are declared as ``__mdv``
variables concatenated with a data-type suffix (``__mdvdw``, ``__mdvf``,
...).  Here an :class:`MDV` is the Python equivalent: a handle to a virtual
vector register produced by the functional machine.  It carries the element
type, the logical shape it was created under and, when the machine records
values, the concrete element values laid out in SIMD-lane order
(dimension 0 fastest-varying).  A machine built with
``record_values=False`` (every timing capture) hands out handles without
values: the instruction stream needs only register, type and shape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..isa.datatypes import DataType
from ..isa.registers import VectorShape

__all__ = ["MDV"]


class MDV:
    """A virtual multi-dimensional vector register value.

    ``values=None`` makes a value-free handle: :attr:`values` (and
    everything read through it) then raises ``ValueError``.
    """

    __slots__ = ("register", "dtype", "shape", "_values")

    def __init__(
        self,
        register: int,
        dtype: DataType,
        shape: VectorShape,
        values: Optional[np.ndarray] = None,
    ):
        self.register = register
        self.dtype = dtype
        self.shape = shape
        if values is not None:
            values = np.asarray(values, dtype=dtype.numpy_dtype).reshape(-1)
            if values.size != shape.total_elements:
                raise ValueError(
                    f"value count {values.size} does not match shape "
                    f"{shape.lengths} ({shape.total_elements} elements)"
                )
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """Lane values in SIMD-lane order (dimension 0 fastest-varying)."""
        if self._values is None:
            raise ValueError(
                f"v{self.register} carries no lane values: it was produced by "
                "an MVEMachine with record_values=False (capture with "
                "record_values=True to read values)"
            )
        return self._values

    @property
    def total_elements(self) -> int:
        return self.shape.total_elements

    def as_ndarray(self) -> np.ndarray:
        """Values reshaped to the logical dimensions (highest dimension first)."""
        return self.values.reshape(tuple(reversed(self.shape.lengths)))

    def lane(self, *indices: int) -> np.generic:
        """Element at a multi-dimensional logical index (dim 0 first)."""
        return self.values[self.shape.flatten_index(indices)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MDV(v{self.register}, {self.dtype.name}, shape={self.shape.lengths}, "
            f"n={self.total_elements})"
        )
