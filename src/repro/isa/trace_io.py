"""Compact columnar (de)serialization for MVE instruction traces.

A captured trace is a straight-line list of :data:`~repro.isa.instructions.TraceEntry`
objects -- typically thousands of small dataclasses whose fields are enums,
ints and short tuples.  Persisting them as row-oriented JSON would be both
large and slow, so the codec here turns a trace into a handful of parallel
numpy columns (fixed-width fields) plus CSR-style ``values``/``offsets``
pairs (variable-length tuple fields), packs the columns with
:func:`numpy.savez_compressed` and wraps the compressed bytes in a small
base64 JSON envelope.  The envelope is what travels through the
content-addressed result store -- including its HTTP remote tier, which only
speaks JSON records.

The round trip is exact: ``decode_trace(encode_trace(trace)) == trace``
entry for entry (dataclass equality), including empty-vs-populated masks,
``None`` immediates and scalar-block notes.  Exactness is what lets the
staged pipeline replay a cached trace through the timing simulator and
reproduce the fused capture+simulate path bit for bit.
"""

from __future__ import annotations

import base64
import io
from typing import Sequence

import numpy as np

from .datatypes import DataType
from .instructions import (
    ArithmeticInstruction,
    ConfigInstruction,
    MemoryInstruction,
    MoveInstruction,
    Opcode,
    ScalarBlock,
    TraceEntry,
)

__all__ = [
    "TRACE_CODEC",
    "encode_trace",
    "decode_trace",
    "trace_payload_bytes",
]

#: codec identifier embedded in every payload; bump on incompatible changes
TRACE_CODEC = "npz-columnar-v1"

#: entry-kind discriminator column values
_KIND_SCALAR = 0
_KIND_CONFIG = 1
_KIND_MOVE = 2
_KIND_MEMORY = 3
_KIND_ARITH = 4

#: flag bits packed into the ``flags`` column
_FLAG_STORE = 1
_FLAG_RANDOM = 2
_FLAG_SPILL = 4
_FLAG_IMMEDIATE = 8

# Enum codes rely on definition order, which is part of the source the
# functional fingerprint hashes -- a reordering invalidates old payloads
# through the cache key before a stale decode could ever happen.
_OPCODES = tuple(Opcode)
_OPCODE_CODE = {opcode: index for index, opcode in enumerate(_OPCODES)}
_DTYPES = tuple(DataType)
_DTYPE_CODE = {dtype: index for index, dtype in enumerate(_DTYPES)}

#: variable-length tuple fields, each stored as values + CSR offsets
_VAR_COLUMNS = ("sources", "stride_modes", "random_bases", "strides", "shape", "mask")


class _VarColumn:
    """Accumulates one variable-length field as values plus CSR offsets."""

    def __init__(self) -> None:
        self.values: list[int] = []
        self.offsets: list[int] = [0]

    def append(self, items: Sequence[int]) -> None:
        self.values.extend(int(item) for item in items)
        self.offsets.append(len(self.values))

    def arrays(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.values, dtype=dtype),
            np.asarray(self.offsets, dtype=np.int64),
        )


def trace_columns(trace: Sequence[TraceEntry]) -> dict[str, np.ndarray]:
    """The trace as its parallel numpy columns (the codec's IR).

    Fixed-width fields become one array per column; variable-length tuple
    fields become ``<name>_values``/``<name>_offsets`` CSR pairs.  The
    mapping is everything :func:`entries_from_columns` needs to rebuild the
    exact entry list except scalar-block note strings
    (:func:`scalar_notes`), which are not columnar.
    """
    n = len(trace)
    kind = np.zeros(n, dtype=np.int8)
    opcode = np.full(n, -1, dtype=np.int16)
    dtype_col = np.full(n, -1, dtype=np.int8)
    src_dtype = np.full(n, -1, dtype=np.int8)
    # fixed-width operand columns; meaning depends on the entry kind:
    #   scalar: count / loads / stores    config: operand_a / operand_b / -
    #   move:   dest / src / -            memory: register / - / -
    #   arith:  dest / - / -
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    c = np.zeros(n, dtype=np.int64)
    base_address = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.uint8)
    immediate = np.zeros(n, dtype=np.float64)
    var = {name: _VarColumn() for name in _VAR_COLUMNS}

    for index, entry in enumerate(trace):
        empties = set(_VAR_COLUMNS)
        if isinstance(entry, ScalarBlock):
            kind[index] = _KIND_SCALAR
            a[index] = entry.count
            b[index] = entry.loads
            c[index] = entry.stores
        elif isinstance(entry, ConfigInstruction):
            kind[index] = _KIND_CONFIG
            opcode[index] = _OPCODE_CODE[entry.opcode]
            a[index] = entry.operand_a
            b[index] = entry.operand_b
        elif isinstance(entry, MoveInstruction):
            kind[index] = _KIND_MOVE
            opcode[index] = _OPCODE_CODE[entry.opcode]
            dtype_col[index] = _DTYPE_CODE[entry.dtype]
            if entry.src_dtype is not None:
                src_dtype[index] = _DTYPE_CODE[entry.src_dtype]
            a[index] = entry.dest
            b[index] = entry.src
        elif isinstance(entry, MemoryInstruction):
            kind[index] = _KIND_MEMORY
            opcode[index] = _OPCODE_CODE[entry.opcode]
            dtype_col[index] = _DTYPE_CODE[entry.dtype]
            a[index] = entry.register
            base_address[index] = entry.base_address
            flags[index] = (
                (_FLAG_STORE if entry.is_store else 0)
                | (_FLAG_RANDOM if entry.is_random else 0)
                | (_FLAG_SPILL if entry.is_spill else 0)
            )
            var["stride_modes"].append(entry.stride_modes)
            var["random_bases"].append(entry.random_bases)
            var["strides"].append(entry.resolved_strides)
            var["shape"].append(entry.shape_lengths)
            var["mask"].append(entry.mask)
            empties -= {"stride_modes", "random_bases", "strides", "shape", "mask"}
        elif isinstance(entry, ArithmeticInstruction):
            kind[index] = _KIND_ARITH
            opcode[index] = _OPCODE_CODE[entry.opcode]
            dtype_col[index] = _DTYPE_CODE[entry.dtype]
            a[index] = entry.dest
            if entry.immediate is not None:
                flags[index] = _FLAG_IMMEDIATE
                immediate[index] = entry.immediate
            var["sources"].append(entry.sources)
            var["shape"].append(entry.shape_lengths)
            var["mask"].append(entry.mask)
            empties -= {"sources", "shape", "mask"}
        else:
            raise TypeError(f"cannot encode trace entry of type {type(entry).__name__}")
        for name in empties:
            var[name].append(())

    columns = {
        "kind": kind,
        "opcode": opcode,
        "dtype": dtype_col,
        "src_dtype": src_dtype,
        "a": a,
        "b": b,
        "c": c,
        "base_address": base_address,
        "flags": flags,
        "immediate": immediate,
    }
    for name, column in var.items():
        dtype = np.uint8 if name == "mask" else np.int64
        values, offsets = column.arrays(dtype)
        columns[f"{name}_values"] = values
        columns[f"{name}_offsets"] = offsets
    return columns


def scalar_notes(trace: Sequence[TraceEntry]) -> list[list]:
    """Sparse ``[index, note]`` pairs for scalar blocks carrying a note --
    the only trace field that does not fit the columnar IR."""
    return [
        [index, entry.note]
        for index, entry in enumerate(trace)
        if isinstance(entry, ScalarBlock) and entry.note
    ]


def encode_trace(trace: Sequence[TraceEntry]) -> dict:
    """Encode a trace into its JSON-safe columnar payload."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **trace_columns(trace))
    payload = {
        "codec": TRACE_CODEC,
        "entries": len(trace),
        "npz_b64": base64.b64encode(buffer.getvalue()).decode("ascii"),
    }
    notes = scalar_notes(trace)
    if notes:
        payload["scalar_notes"] = notes
    return payload


def trace_payload_bytes(payload: dict) -> int:
    """Size of the compressed column data inside a payload, in bytes."""
    return len(payload.get("npz_b64", "")) * 3 // 4


def _slices(values: np.ndarray, offsets: np.ndarray, convert) -> list[tuple]:
    items = values.tolist()
    bounds = offsets.tolist()
    return [
        tuple(convert(item) for item in items[start:stop])
        for start, stop in zip(bounds, bounds[1:])
    ]


def decode_trace(payload: dict) -> list[TraceEntry]:
    """Rebuild the exact trace-entry list from an :func:`encode_trace` payload."""
    if not isinstance(payload, dict) or payload.get("codec") != TRACE_CODEC:
        raise ValueError(f"unsupported trace payload: {payload.get('codec') if isinstance(payload, dict) else payload!r}")
    try:
        raw = base64.b64decode(payload["npz_b64"])
        with np.load(io.BytesIO(raw)) as archive:
            columns = {name: archive[name] for name in archive.files}
    except ValueError:
        raise
    except Exception as error:
        # Truncated/bit-flipped column data surfaces as zipfile.BadZipFile,
        # zlib.error, OSError, ... depending on where the corruption lands.
        # Normalize to ValueError: "corrupt payload" is one condition to
        # callers, which degrade it to a recapture.
        raise ValueError(f"corrupt trace payload: {error}") from error

    return entries_from_columns(
        columns, int(payload["entries"]), payload.get("scalar_notes", ())
    )


def entries_from_columns(
    columns, n: int, notes: Sequence[Sequence] = ()
) -> list[TraceEntry]:
    """Rebuild the exact entry list from the columnar IR.

    ``columns`` maps column name to array (the loaded npz arrays);
    ``notes`` holds the sparse :func:`scalar_notes` pairs.
    """
    if len(columns["kind"]) != n:
        raise ValueError(
            f"trace payload declares {n} entries but carries {len(columns['kind'])}"
        )
    kind = columns["kind"].tolist()
    opcode = columns["opcode"].tolist()
    dtype_col = columns["dtype"].tolist()
    src_dtype = columns["src_dtype"].tolist()
    a = columns["a"].tolist()
    b = columns["b"].tolist()
    c = columns["c"].tolist()
    base_address = columns["base_address"].tolist()
    flags = columns["flags"].tolist()
    immediate = columns["immediate"].tolist()
    var = {
        name: _slices(
            columns[f"{name}_values"],
            columns[f"{name}_offsets"],
            bool if name == "mask" else int,
        )
        for name in _VAR_COLUMNS
    }
    notes = {index: note for index, note in notes}

    trace: list[TraceEntry] = []
    for i in range(n):
        entry_kind = kind[i]
        if entry_kind == _KIND_SCALAR:
            trace.append(
                ScalarBlock(count=a[i], loads=b[i], stores=c[i], note=notes.get(i, ""))
            )
            continue
        op = _OPCODES[opcode[i]]
        if entry_kind == _KIND_CONFIG:
            trace.append(ConfigInstruction(op, operand_a=a[i], operand_b=b[i]))
        elif entry_kind == _KIND_MOVE:
            trace.append(
                MoveInstruction(
                    op,
                    dtype=_DTYPES[dtype_col[i]],
                    dest=a[i],
                    src=b[i],
                    src_dtype=None if src_dtype[i] < 0 else _DTYPES[src_dtype[i]],
                )
            )
        elif entry_kind == _KIND_MEMORY:
            trace.append(
                MemoryInstruction(
                    op,
                    dtype=_DTYPES[dtype_col[i]],
                    register=a[i],
                    base_address=base_address[i],
                    stride_modes=var["stride_modes"][i],
                    is_store=bool(flags[i] & _FLAG_STORE),
                    is_random=bool(flags[i] & _FLAG_RANDOM),
                    random_bases=var["random_bases"][i],
                    resolved_strides=var["strides"][i],
                    shape_lengths=var["shape"][i],
                    mask=var["mask"][i],
                    is_spill=bool(flags[i] & _FLAG_SPILL),
                )
            )
        elif entry_kind == _KIND_ARITH:
            trace.append(
                ArithmeticInstruction(
                    op,
                    dtype=_DTYPES[dtype_col[i]],
                    dest=a[i],
                    sources=var["sources"][i],
                    immediate=immediate[i] if flags[i] & _FLAG_IMMEDIATE else None,
                    shape_lengths=var["shape"][i],
                    mask=var["mask"][i],
                )
            )
        else:
            raise ValueError(f"unknown trace entry kind {entry_kind}")
    return trace
