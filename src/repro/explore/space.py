"""Declarative search spaces over the machine-configuration axes.

A :class:`SearchSpace` is the explorer's input: one kernel/lowering plus a
list of named :class:`Axis` objects, each a finite ordered set of primitive
values (ints, floats, or names).  Points are addressed by a single integer
id in mixed-radix order (first axis most significant), so a space is fully
described by a small JSON dict -- which is what the frontier export
publishes in place of a serialized :class:`~repro.core.config.MachineConfig`.

Every point compiles down to the existing sweep machinery: ``job(point)``
is a :class:`~repro.experiments.sweep.KernelJob` on the point's config,
and jobs canonicalize themselves, so exploration jobs hash to the same
cache keys an equivalent hand-written sweep would, and every downstream
stage (trace store, batched replay, the worker pool) works unchanged.  The
space validates its kernel, lowering and scale through
:class:`~repro.core.traces.TraceSpec`, and scheme-axis values through
:func:`~repro.sram.schemes.get_scheme` (which also canonicalizes them:
``scheme=bs`` and ``scheme=bit-serial`` are one search over the same jobs).

Axes are interpreted by a fixed registry of appliers over the *default*
configuration, the scheme axis included; values stay primitive (DRAM
variants are named presets, not serialized timing structs), so the wire
form never carries a machine configuration -- the job cache keys, which
embed the full config and the source fingerprint, address every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

from ..core.config import MachineConfig, default_config
from ..core.traces import TraceSpec
from ..memory.dram import DRAMConfig
from ..sram.array import EngineGeometry, SramArrayGeometry
from ..sram.schemes import SCHEME_NAMES, get_scheme
from ..experiments.sweep import KernelJob

__all__ = [
    "AXIS_NAMES",
    "Axis",
    "DRAM_PRESETS",
    "SearchSpace",
    "default_space",
]

#: named DRAM variants (LPDDR4X-3733 baseline per Table IV); presets keep
#: axis values primitive -- the wire form names a variant, never ships
#: timing structs
DRAM_PRESETS: dict[str, DRAMConfig] = {
    "lpddr4x": DRAMConfig(),
    "lpddr4x-slow": DRAMConfig(t_cas=50, t_rcd=62, t_rp=62, peak_bytes_per_cycle=8.0),
    "lpddr5": DRAMConfig(
        t_cas=34, t_rcd=42, t_rp=42, t_burst=6, peak_bytes_per_cycle=18.0
    ),
    "lpddr5-2ch": DRAMConfig(
        num_channels=2, t_cas=34, t_rcd=42, t_rp=42, t_burst=6,
        peak_bytes_per_cycle=9.0,
    ),
}


def _replace_cache(config: MachineConfig, level: str, **changes: Any) -> MachineConfig:
    hierarchy = config.hierarchy
    cache = replace(getattr(hierarchy, level), **changes)
    return replace(config, hierarchy=replace(hierarchy, **{level: cache}))


def _replace_engine(config: MachineConfig, **changes: Any) -> MachineConfig:
    engine = config.engine
    return replace(
        config,
        engine=EngineGeometry(
            num_arrays=changes.get("num_arrays", engine.num_arrays),
            arrays_per_control_block=changes.get(
                "arrays_per_control_block", engine.arrays_per_control_block
            ),
            array=changes.get("array", engine.array),
        ),
    )


def _apply_num_arrays(config: MachineConfig, value: Any) -> MachineConfig:
    return config.with_arrays(int(value))


def _apply_arrays_per_cb(config: MachineConfig, value: Any) -> MachineConfig:
    return _replace_engine(config, arrays_per_control_block=int(value))


def _apply_array_rows(config: MachineConfig, value: Any) -> MachineConfig:
    array = SramArrayGeometry(rows=int(value), cols=config.engine.array.cols)
    return _replace_engine(config, array=array)


def _apply_array_cols(config: MachineConfig, value: Any) -> MachineConfig:
    # Bit-lines per array: together with num_arrays this sets simd_lanes,
    # so this axis changes the capture-stage trace spec, not just timing.
    array = SramArrayGeometry(rows=config.engine.array.rows, cols=int(value))
    return _replace_engine(config, array=array)


def _apply_l2_compute_ways(config: MachineConfig, value: Any) -> MachineConfig:
    return replace(config, l2_compute_ways=int(value))


def _apply_l2_size_kb(config: MachineConfig, value: Any) -> MachineConfig:
    return _replace_cache(config, "l2", size_bytes=int(value) * 1024)


def _apply_l2_ways(config: MachineConfig, value: Any) -> MachineConfig:
    return _replace_cache(config, "l2", ways=int(value))


def _apply_llc_size_kb(config: MachineConfig, value: Any) -> MachineConfig:
    return _replace_cache(config, "llc", size_bytes=int(value) * 1024)


def _apply_dram(config: MachineConfig, value: Any) -> MachineConfig:
    return replace(
        config, hierarchy=replace(config.hierarchy, dram=DRAM_PRESETS[str(value)])
    )


def _apply_scheme(config: MachineConfig, value: Any) -> MachineConfig:
    return config.with_scheme(str(value))


#: axis name -> applier over the default config, scheme first and the rest
#: by name
_APPLIERS: dict[str, Callable[[MachineConfig, Any], MachineConfig]] = {
    "scheme": _apply_scheme,
    "array_cols": _apply_array_cols,
    "array_rows": _apply_array_rows,
    "arrays_per_control_block": _apply_arrays_per_cb,
    "dram": _apply_dram,
    "l2_compute_ways": _apply_l2_compute_ways,
    "l2_size_kb": _apply_l2_size_kb,
    "l2_ways": _apply_l2_ways,
    "llc_size_kb": _apply_llc_size_kb,
    "num_arrays": _apply_num_arrays,
}

AXIS_NAMES: tuple[str, ...] = tuple(_APPLIERS)


@dataclass(frozen=True)
class Axis:
    """One named design dimension: an ordered, finite set of values."""

    name: str
    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if self.name == "scheme":
            values = tuple(get_scheme(str(value)).name for value in values)
        object.__setattr__(self, "values", values)
        if self.name not in AXIS_NAMES:
            raise ValueError(
                f"unknown axis {self.name!r}; known: {', '.join(AXIS_NAMES)}"
            )
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"axis {self.name!r} repeats values: {self.values}")
        if self.name == "dram":
            for value in self.values:
                if value not in DRAM_PRESETS:
                    raise ValueError(
                        f"unknown DRAM preset {value!r}; "
                        f"known: {', '.join(DRAM_PRESETS)}"
                    )

    @property
    def is_categorical(self) -> bool:
        """Whether values are names (orderless) rather than magnitudes."""
        return any(isinstance(value, str) for value in self.values)

    def to_dict(self) -> dict:
        return {"name": self.name, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: dict) -> "Axis":
        return cls(name=data["name"], values=tuple(data["values"]))


@dataclass(frozen=True)
class SearchSpace:
    """The Cartesian grid one exploration searches, as declarative data."""

    kernel: str
    axes: tuple[Axis, ...]
    kind: str = "mve"
    scale: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "scale", TraceSpec(self.kernel, self.kind, self.scale).scale)
        if not self.axes:
            raise ValueError("a search space needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axes: {names}")

    # -- point addressing ----------------------------------------------- #

    @property
    def size(self) -> int:
        return math.prod(len(axis.values) for axis in self.axes)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)

    def point_indices(self, point: int) -> tuple[int, ...]:
        """Mixed-radix digits of ``point`` (first axis most significant)."""
        if not 0 <= point < self.size:
            raise IndexError(f"point {point} outside space of {self.size}")
        digits = []
        for radix in reversed(self.shape()):
            digits.append(point % radix)
            point //= radix
        return tuple(reversed(digits))

    def point_from_indices(self, indices: tuple[int, ...]) -> int:
        point = 0
        for index, radix in zip(indices, self.shape()):
            point = point * radix + index
        return point

    def point_values(self, point: int) -> dict[str, Any]:
        return {
            axis.name: axis.values[index]
            for axis, index in zip(self.axes, self.point_indices(point))
        }

    # -- compilation to the sweep machinery ------------------------------ #

    def config_for(self, point: int) -> MachineConfig:
        """The point's machine configuration.

        Built by folding the axis appliers over the *default* config -- the
        declarative form never carries a config, so two peers agreeing on
        the space dict and the source fingerprint agree on every job key.
        """
        config = default_config()
        for axis, index in zip(self.axes, self.point_indices(point)):
            config = _APPLIERS[axis.name](config, axis.values[index])
        return config

    def job(self, point: int) -> KernelJob:
        """The point's simulation job; it keys like the same point of any
        hand-written sweep, because jobs canonicalize themselves."""
        return KernelJob(
            kernel=self.kernel, kind=self.kind, scale=self.scale,
            config=self.config_for(point),
        )

    def jobs(self, points: list[int]) -> list[KernelJob]:
        return [self.job(point) for point in points]

    # -- identity and wire form ------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "kind": self.kind,
            "scale": self.scale,
            "axes": [axis.to_dict() for axis in self.axes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        return cls(
            kernel=data["kernel"],
            kind=data.get("kind", "mve"),
            scale=float(data.get("scale", 0.5)),
            axes=tuple(Axis.from_dict(axis) for axis in data["axes"]),
        )

    def describe(self) -> str:
        axes = " x ".join(f"{axis.name}[{len(axis.values)}]" for axis in self.axes)
        return (
            f"{self.kernel}/{self.kind} (scale={self.scale}): "
            f"{axes} = {self.size} points"
        )


def default_space(kernel: str = "csum", scale: float = 0.5, kind: str = "mve") -> SearchSpace:
    """The stock ~200-point space the CLI searches when no axes are given:
    scheme x engine size x L2 compute ways x DRAM variant."""
    return SearchSpace(
        kernel=kernel,
        kind=kind,
        scale=scale,
        axes=(
            Axis("scheme", SCHEME_NAMES),
            Axis("num_arrays", (8, 16, 32, 64)),
            Axis("l2_compute_ways", (2, 4, 6)),
            Axis("dram", tuple(DRAM_PRESETS)),
        ),
    )
