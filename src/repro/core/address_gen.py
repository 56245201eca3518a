"""Address generation for multi-dimensional vector memory accesses.

The MVE controller computes one byte address per SIMD lane from the base
address(es), resolved per-dimension strides and the dimension-level mask
(Algorithm 1 and Equation 1).  The timing simulator uses the resulting set
of touched cache lines to drive the cache/DRAM model.
:func:`element_addresses` is the one per-element expansion of Algorithm 1:
the functional machine calls it when it records values, and
:func:`cache_line_addresses` builds one instruction's lines from it.

A memory access's element offsets depend only on its access *pattern* --
shape, resolved strides, element size and mask -- and a trace issues the
same few patterns over and over (a cold evaluation's 24,720 strided
accesses share 81).  :func:`line_footprints` therefore expands each
pattern once per trace into a sorted offset table and derives from it one
*line table* per base offset within a line: the sorted, distinct lines the
pattern touches, relative to the line of its base.  A strided access is
then its base's line plus one line table.  A random access (a gather or
scatter through a pointer table) applies the same rule to each pointer,
with the pattern's lower dimensions as one row of the table, and its
footprint is the sorted, distinct union of its active pointers' rows.  No
access is expanded element by element.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..isa.instructions import MemoryInstruction

__all__ = ["element_addresses", "cache_line_addresses", "line_footprints"]


def element_addresses(instruction: MemoryInstruction) -> np.ndarray:
    """Byte addresses for all *active* elements of a vector memory access."""
    lengths = instruction.shape_lengths
    if not lengths:
        return np.zeros(0, dtype=np.int64)
    total = instruction.total_elements
    element_bytes = instruction.dtype.bytes
    addresses = np.zeros(total, dtype=np.int64)
    strides = instruction.resolved_strides
    lanes = np.arange(total, dtype=np.int64)
    multiplier = 1
    for dim, length in enumerate(lengths):
        indices = (lanes // multiplier) % length
        if instruction.is_random and dim == len(lengths) - 1:
            bases = np.asarray(instruction.random_bases, dtype=np.int64)
            addresses += bases[indices]
        else:
            stride = strides[dim] if dim < len(strides) else 0
            addresses += indices * (stride * element_bytes)
        multiplier *= length
    if not instruction.is_random:
        addresses += instruction.base_address

    if instruction.mask:
        mask_bits = np.asarray(instruction.mask, dtype=bool)
        inner = total // lengths[-1]
        addresses = addresses[mask_bits[lanes // inner]]
    return addresses


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a non-decreasing array, in order."""
    if ordered.size == 0:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def cache_line_addresses(instruction: MemoryInstruction, line_bytes: int = 64) -> np.ndarray:
    """Unique cache-line base addresses touched by a vector memory access.

    Returns a sorted, deduplicated int64 array: one block of the stream
    :meth:`~repro.memory.vector_cache.VectorCacheHierarchy.walk` takes.
    This per-element reference is what :func:`line_footprints` must equal.
    """
    return _distinct(np.sort(element_addresses(instruction)) // line_bytes) * line_bytes


class _LineTables:
    """The line tables of one access pattern (see the module docstring).

    ``offsets`` holds the pattern's sorted, distinct element byte offsets
    from its base (a strided access) or from each pointer (one row of a
    random access)."""

    def __init__(self, offsets: np.ndarray, line_bytes: int):
        self.offsets = offsets
        self.line_bytes = line_bytes
        self._tables: dict[int, np.ndarray] = {}
        self._rows: Optional[np.ndarray] = None

    def table(self, residue: int) -> np.ndarray:
        """Sorted, distinct line indices, relative to the base's line, of
        an access whose base sits ``residue`` bytes into its line."""
        table = self._tables.get(residue)
        if table is None:
            table = _distinct((residue + self.offsets) // self.line_bytes)
            self._tables[residue] = table
        return table

    def rows(self) -> np.ndarray:
        """Every residue's table as one ``(line_bytes, width)`` array, a
        shorter table padded with its last line (a repeat the union drops)."""
        if self._rows is None:
            tables = [self.table(residue) for residue in range(self.line_bytes)]
            rows = np.empty((self.line_bytes, max(t.size for t in tables)), dtype=np.int64)
            for residue, table in enumerate(tables):
                rows[residue, : table.size] = table
                rows[residue, table.size :] = table[-1]
            self._rows = rows
        return self._rows


def _pattern_offsets(instruction: MemoryInstruction) -> np.ndarray:
    """Sorted, distinct element offsets of an instruction's pattern: from
    the base of a strided access, from one pointer of a random one."""
    if instruction.is_random:
        row = instruction.shape_lengths[:-1] + (1,)
        pattern = replace(instruction, shape_lengths=row, random_bases=(0,), mask=())
    else:
        pattern = replace(instruction, base_address=0)
    return _distinct(np.sort(element_addresses(pattern)))


def line_footprints(
    instructions: Sequence[MemoryInstruction], line_bytes: int = 64
) -> list[np.ndarray]:
    """:func:`cache_line_addresses` of every instruction, array for array
    equal, built from one line-table set per access pattern."""
    patterns: dict[tuple, _LineTables] = {}
    footprints = []
    for instruction in instructions:
        if not instruction.shape_lengths:
            footprints.append(np.zeros(0, dtype=np.int64))
            continue
        is_random = instruction.is_random
        key = (
            is_random,
            instruction.shape_lengths,
            instruction.resolved_strides,
            instruction.dtype.bytes,
            () if is_random else instruction.mask,
        )
        tables = patterns.get(key)
        if tables is None:
            tables = patterns[key] = _LineTables(_pattern_offsets(instruction), line_bytes)
        if not is_random:
            line, residue = divmod(instruction.base_address, line_bytes)
            footprints.append((line + tables.table(residue)) * line_bytes)
            continue
        pointers = np.asarray(instruction.random_bases, dtype=np.int64)
        if instruction.mask:
            pointers = pointers[np.asarray(instruction.mask, dtype=bool)]
        lines, residues = np.divmod(pointers, line_bytes)
        union = (lines[:, None] + tables.rows()[residues]).ravel()
        union.sort()
        footprints.append(_distinct(union) * line_bytes)
    return footprints
