"""Trace artifacts: first-class, cacheable capture-stage outputs.

The paper's methodology is two-phase -- capture an MVE/RVV instruction
trace per kernel, then replay it through the timing model under many
hardware configurations.  This module makes the first phase's output an
explicit artifact:

* :class:`TraceSpec` is the identity of one capture: kernel, lowering,
  scale, constructor kwargs and the SIMD lane count.  It is deliberately
  independent of the rest of :class:`~repro.core.config.MachineConfig` --
  cache geometry, DRAM timing, compute scheme and TMU parameters all replay
  the *same* trace -- and its cache key is salted with
  :func:`~repro.core.cache.functional_fingerprint` (the ISA / intrinsics /
  workloads sources) rather than the whole tree, so timing-model edits keep
  captured traces warm.
* :class:`TraceArtifact` bundles the spec with the captured entry list and
  converts to/from the compact columnar payload of
  :mod:`repro.isa.trace_io`.
* :class:`TraceStore` is a namespace over the existing content-addressed
  :class:`~repro.core.cache.ResultStore`; captured traces live in the same
  directory as simulation results.  Only the sweep engine's trace resolver
  (:meth:`~repro.experiments.sweep.ParallelSweepEngine.captured_trace`)
  reads it back, so every store hit and capture is counted in one place.

Capture itself runs the functional machine with value recording off
(:meth:`~repro.workloads.base.Kernel.capture`): the trace carries every
timing-relevant field but no payload data, which keeps artifacts compact
and capture fast.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Optional

from ..isa.instructions import TraceEntry
from ..isa.trace_io import decode_trace, encode_trace
from .cache import ResultStore, functional_fingerprint, stable_hash

__all__ = ["TraceSpec", "TraceArtifact", "TraceStore", "positive_scale", "trace_kind"]


def positive_scale(value: Any) -> float:
    """``value`` (a number, or its text) as a dataset scale: a finite
    float above zero, else ``ValueError``.

    The one scale check every request type shares: :class:`TraceSpec`, the
    sweep engine's jobs through it, the experiment options and
    :class:`~repro.workloads.base.Kernel` itself.
    """
    try:
        scale = float(value)
    except (TypeError, ValueError):
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a number > 0 (got {value!r})")
    return scale


def trace_kind(kind: str) -> str:
    """``kind`` if it names a lowering (``mve`` or ``rvv``), else
    ``ValueError``: the one kind check of :class:`TraceSpec` and
    :meth:`~repro.workloads.base.Kernel.capture`."""
    if kind not in ("mve", "rvv"):
        raise ValueError(f"unknown kind {kind!r} (choose from mve, rvv)")
    return kind


@dataclass(frozen=True)
class TraceSpec:
    """Identity of one captured kernel trace.

    Two simulation jobs that differ only in timing parameters (scheme,
    cache/DRAM/TMU geometry, latency knobs, ...) share a spec -- and
    therefore a capture.

    Construction is the one validity check of a capture request (a
    registered kernel, ``kind`` ``mve`` or ``rvv`` with an RVV lowering for
    ``rvv``, finite ``scale`` and ``simd_lanes`` above zero, else
    ``ValueError``) and canonicalizes it: ``scale`` becomes a float and
    ``kwargs`` (a mapping or pairs) a tuple of pairs sorted by name, so
    equal requests compare, hash and key equal.
    """

    kernel: str
    kind: str = "mve"  # "mve" or "rvv"
    scale: float = 0.5
    kwargs: tuple[tuple[str, Any], ...] = ()
    simd_lanes: int = 8192

    def __post_init__(self):
        # deferred: avoids an import cycle
        from ..workloads import get_kernel_class, rvv_kernel_names

        try:
            get_kernel_class(self.kernel)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        if trace_kind(self.kind) == "rvv":
            lowered = rvv_kernel_names()
            if self.kernel not in lowered:
                raise ValueError(
                    f"{self.kernel} has no RVV lowering; kernels with one: {', '.join(lowered)}"
                )
        if not self.simd_lanes > 0:
            raise ValueError(f"simd_lanes must be an integer > 0 (got {self.simd_lanes!r})")
        pairs = self.kwargs.items() if isinstance(self.kwargs, Mapping) else self.kwargs
        object.__setattr__(self, "scale", positive_scale(self.scale))
        object.__setattr__(self, "kwargs", tuple(sorted(map(tuple, pairs), key=lambda kv: kv[0])))

    def cache_key(self) -> str:
        """Content hash addressing this capture in the persistent store.

        Namespaced so a trace record can never collide with a simulation
        result, and salted with the functional-layer fingerprint only.
        """
        return stable_hash(
            {
                "namespace": "trace",
                "fingerprint": functional_fingerprint(),
                "kernel": self.kernel,
                "kind": self.kind,
                "scale": self.scale,
                "kwargs": list(self.kwargs),
                "simd_lanes": self.simd_lanes,
            }
        )

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.kwargs)
        suffix = f", {params}" if params else ""
        return f"{self.kernel}/{self.kind} (scale={self.scale}{suffix}, {self.simd_lanes} lanes)"

    def to_dict(self) -> dict:
        """Human-readable spec metadata stored next to the payload."""
        return {
            "kernel": self.kernel,
            "kind": self.kind,
            "scale": self.scale,
            "kwargs": dict(self.kwargs),
            "simd_lanes": self.simd_lanes,
        }

    def capture(self, record_values: bool = False) -> "TraceArtifact":
        """Run the functional machine on a fresh kernel and record the trace.

        ``record_values=False`` (the default, and what the timing pipeline
        uses) skips every flat-memory payload read/write; the emitted
        instruction stream is identical either way, which the regression
        suite pins.
        """
        from ..workloads import get_kernel_class  # deferred: avoids an import cycle

        kernel = get_kernel_class(self.kernel)(scale=self.scale, **dict(self.kwargs))
        trace = kernel.capture(
            kind=self.kind, simd_lanes=self.simd_lanes, record_values=record_values
        )
        return TraceArtifact(spec=self, trace=trace)


@dataclass
class TraceArtifact:
    """A captured trace plus the spec that identifies it."""

    spec: TraceSpec
    trace: list[TraceEntry] = field(repr=False)

    def to_payload(self) -> dict:
        """The JSON-safe record body persisted in the store."""
        return {"trace": encode_trace(self.trace), "spec": self.spec.to_dict()}

    @classmethod
    def from_payload(cls, spec: TraceSpec, payload: dict) -> "TraceArtifact":
        return cls(spec=spec, trace=decode_trace(payload["trace"]))


class TraceStore:
    """Trace-artifact namespace over the content-addressed result store.

    A thin facade: keys come from :meth:`TraceSpec.cache_key`, records are
    ``{"trace": <columnar payload>, "spec": {...}}`` and are stored exactly
    like simulation results.  ``store=None`` degrades every operation to a
    no-op/miss (the ``--no-cache`` path).
    """

    def __init__(self, store: Optional[ResultStore]):
        self.store = store

    def load(self, spec: TraceSpec) -> Optional[TraceArtifact]:
        """The decoded artifact for ``spec``, or None on miss/corruption."""
        if self.store is None:
            return None
        record = self.store.load(spec.cache_key())
        if record is None:
            return None
        payload = record.get("trace")
        if not isinstance(payload, dict) or "npz_b64" not in payload:
            return None
        try:
            return TraceArtifact.from_payload(spec, record)
        except (KeyError, ValueError, TypeError):
            return None

    def save_payload(self, spec: TraceSpec, payload: dict) -> None:
        if self.store is not None:
            self.store.store(spec.cache_key(), payload)

    def save(self, artifact: TraceArtifact) -> None:
        # Checked here, not just in save_payload: without a store the
        # columnar encode would be pure wasted work.
        if self.store is not None:
            self.save_payload(artifact.spec, artifact.to_payload())

    def contains(self, spec: TraceSpec) -> bool:
        """Whether the store already holds this capture (without loading it)."""
        return self.store is not None and self.store.backend.contains(spec.cache_key())
