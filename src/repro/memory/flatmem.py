"""Byte-addressable flat memory used by the functional simulator.

The functional MVE machine needs a concrete memory to load from and store
to.  :class:`FlatMemory` is a simple bump-allocated byte array backed by
numpy with typed accessors, plus gather/scatter helpers used by the
multi-dimensional memory-access instructions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..isa.datatypes import DataType

__all__ = ["FlatMemory", "Allocation"]


class Allocation:
    """A named region of :class:`FlatMemory`.

    Behaves like a typed array view while remembering its base byte address,
    which is what MVE memory instructions operate on.
    """

    def __init__(self, memory: "FlatMemory", address: int, dtype: DataType, count: int):
        self._memory = memory
        self.address = address
        self.dtype = dtype
        self.count = count

    @property
    def nbytes(self) -> int:
        return self.count * self.dtype.bytes

    def view(self) -> np.ndarray:
        """A live numpy view of the allocation (writes are visible to MVE)."""
        return self._memory.view(self.address, self.dtype, self.count)

    def write(self, values: np.ndarray | Sequence) -> None:
        arr = np.asarray(values, dtype=self.dtype.numpy_dtype).reshape(-1)
        if arr.size != self.count:
            raise ValueError(f"expected {self.count} values, got {arr.size}")
        self.view()[:] = arr

    def read(self) -> np.ndarray:
        return self.view().copy()

    def element_address(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.count:
            raise IndexError(f"element index {index} out of range (count={self.count})")
        return self.address + index * self.dtype.bytes

    def __len__(self) -> int:
        return self.count


class FlatMemory:
    """Bump-allocated byte-addressable memory."""

    def __init__(self, size_bytes: int = 64 * 1024 * 1024, base_address: int = 0x1000):
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self._data = np.zeros(size_bytes, dtype=np.uint8)
        self.base_address = base_address
        self._next_free = base_address

    @property
    def size(self) -> int:
        return self._data.size

    def allocate(self, dtype: DataType, count: int, align: int = 64) -> Allocation:
        """Allocate ``count`` elements of ``dtype`` aligned to ``align`` bytes."""
        if count < 0:
            raise ValueError("allocation count must be non-negative")
        address = (self._next_free + align - 1) // align * align
        nbytes = count * dtype.bytes
        if address - self.base_address + nbytes > self.size:
            raise MemoryError(
                f"flat memory exhausted: requested {nbytes} bytes at 0x{address:x}"
            )
        self._next_free = address + nbytes
        return Allocation(self, address, dtype, count)

    def allocate_array(self, values: np.ndarray | Sequence, dtype: DataType) -> Allocation:
        """Allocate and initialise a region from an existing array."""
        arr = np.asarray(values, dtype=dtype.numpy_dtype).reshape(-1)
        allocation = self.allocate(dtype, arr.size)
        allocation.write(arr)
        return allocation

    def _offset(self, address: int) -> int:
        offset = address - self.base_address
        if not 0 <= offset < self.size:
            raise IndexError(f"address 0x{address:x} outside flat memory")
        return offset

    def view(self, address: int, dtype: DataType, count: int) -> np.ndarray:
        offset = self._offset(address)
        nbytes = count * dtype.bytes
        if offset + nbytes > self.size:
            raise IndexError(f"read of {nbytes} bytes at 0x{address:x} overruns memory")
        return self._data[offset : offset + nbytes].view(dtype.numpy_dtype)

    def read_elements(self, addresses: np.ndarray, dtype: DataType) -> np.ndarray:
        """Gather elements of ``dtype`` from arbitrary byte addresses."""
        addresses = np.asarray(addresses, dtype=np.int64)
        offsets = addresses - self.base_address
        if offsets.size == 0:
            return np.empty(0, dtype=dtype.numpy_dtype)
        if offsets.min() < 0 or offsets.max() + dtype.bytes > self.size:
            raise IndexError("gather address outside flat memory")
        itemsize = dtype.bytes
        byte_index = offsets[:, None] + np.arange(itemsize, dtype=np.int64)
        return self._data[byte_index].reshape(-1).view(dtype.numpy_dtype)

    def write_elements(self, addresses: np.ndarray, values: np.ndarray, dtype: DataType) -> None:
        """Scatter elements of ``dtype`` to arbitrary byte addresses."""
        addresses = np.asarray(addresses, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=dtype.numpy_dtype).reshape(-1)
        if addresses.size != values.size:
            raise ValueError("address and value counts differ")
        offsets = addresses - self.base_address
        if offsets.size == 0:
            return
        if offsets.min() < 0 or offsets.max() + dtype.bytes > self.size:
            raise IndexError("scatter address outside flat memory")
        itemsize = dtype.bytes
        flat = self._data
        value_bytes = values.view(np.uint8).reshape(-1, itemsize)
        if np.unique(offsets).size == offsets.size:
            byte_index = offsets[:, None] + np.arange(itemsize, dtype=np.int64)
            flat[byte_index] = value_bytes
            return
        # Duplicate target addresses: fall back to the in-order scatter so the
        # last write wins, matching sequential store semantics.
        for i, off in enumerate(offsets):
            flat[off : off + itemsize] = value_bytes[i]

    def read_pointer_table(self, address: int, count: int) -> np.ndarray:
        """Read ``count`` 64-bit pointers starting at ``address``."""
        return self.view(address, DataType.UINT64, count).astype(np.int64)
