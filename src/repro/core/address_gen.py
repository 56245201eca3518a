"""Address generation for multi-dimensional vector memory accesses.

The MVE controller computes one byte address per SIMD lane from the base
address(es), resolved per-dimension strides and the dimension-level mask
(Algorithm 1 and Equation 1).  The timing simulator uses the resulting set
of touched cache lines to drive the cache/DRAM model.  This is the only
expansion of Algorithm 1: the functional machine calls
:func:`element_addresses` too, when it records values.

A strided access's element addresses are its base address plus offsets that
depend only on the access *pattern* -- shape, resolved strides, element size
and mask -- and a trace issues the same few patterns over and over (a
cold evaluation's 24,720 strided accesses share 81).  :func:`line_footprints`
therefore expands each pattern once per trace and shifts its sorted, unique
offsets by each access's base address; random accesses, whose pointers
differ per access, are expanded one by one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

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


def _distinct_lines(sorted_addresses: np.ndarray, line_bytes: int) -> np.ndarray:
    """Base addresses of the lines holding already-sorted byte addresses."""
    lines = sorted_addresses // line_bytes
    if lines.size == 0:
        return lines
    keep = np.empty(lines.size, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep] * line_bytes


def cache_line_addresses(instruction: MemoryInstruction, line_bytes: int = 64) -> np.ndarray:
    """Unique cache-line base addresses touched by a vector memory access.

    Returns a sorted, deduplicated int64 array: one block of the stream
    :meth:`~repro.memory.vector_cache.VectorCacheHierarchy.walk` takes.
    """
    return _distinct_lines(np.sort(element_addresses(instruction)), line_bytes)


def line_footprints(
    instructions: Sequence[MemoryInstruction], line_bytes: int = 64
) -> list[np.ndarray]:
    """:func:`cache_line_addresses` of every instruction, array for array
    equal, with strided accesses built from one offset table per pattern."""
    offsets_by_pattern: dict[tuple, np.ndarray] = {}
    footprints = []
    for instruction in instructions:
        if instruction.is_random:
            footprints.append(cache_line_addresses(instruction, line_bytes))
            continue
        pattern = (
            instruction.shape_lengths,
            instruction.resolved_strides,
            instruction.dtype.bytes,
            instruction.mask,
        )
        offsets = offsets_by_pattern.get(pattern)
        if offsets is None:
            offsets = np.unique(element_addresses(replace(instruction, base_address=0)))
            offsets_by_pattern[pattern] = offsets
        footprints.append(_distinct_lines(instruction.base_address + offsets, line_bytes))
    return footprints
