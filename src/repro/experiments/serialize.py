"""Typed (de)serialization for experiment result dataclasses.

Every ``FigureNResult``/``LibraryComparison``/... is a plain dataclass of
scalars, strings, dicts and (lists of) further result dataclasses.  Instead
of hand-writing one ``to_dict``/``from_dict`` pair per class -- and letting
the pairs drift from the field lists -- the classes mix in
:class:`SerializableResult`, which derives both methods from the dataclass
fields and their type hints.  ``from_dict`` rebuilds nested dataclasses,
tuples and numeric types from the hint, so a JSON round trip returns an
object that compares equal to the original; that is what makes experiment
results storable in the persistent :class:`~repro.core.cache.ResultStore`
and exportable from the CLI.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Any, Union, get_args, get_origin, get_type_hints

__all__ = [
    "SerializableResult",
    "dataclass_to_dict",
    "dataclass_from_dict",
    "to_jsonable",
    "flatten",
    "result_rows",
]


def to_jsonable(value: Any) -> Any:
    """``value`` as JSON-encodable primitives (recursing into containers)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        to_dict = getattr(value, "to_dict", None)
        if callable(to_dict):
            return to_dict()
        return dataclass_to_dict(value)
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    # numpy scalars and other zero-dim array-likes
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return value


def dataclass_to_dict(obj: Any) -> dict:
    """The dataclass' fields as a JSON-serializable dict."""
    return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _from_hint(hint: Any, value: Any) -> Any:
    """Rebuild ``value`` (fresh from JSON) into the shape ``hint`` declares."""
    if value is None:
        return None
    origin = get_origin(hint)
    if origin is Union:
        non_none = [arg for arg in get_args(hint) if arg is not type(None)]
        if len(non_none) == 1:
            return _from_hint(non_none[0], value)
        return value
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        from_dict = getattr(hint, "from_dict", None)
        if callable(from_dict):
            return from_dict(value)
        return dataclass_from_dict(hint, value)
    if origin is list:
        (element,) = get_args(hint) or (Any,)
        return [_from_hint(element, item) for item in value]
    if origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_from_hint(args[0], item) for item in value)
        if args:
            return tuple(_from_hint(arg, item) for arg, item in zip(args, value))
        return tuple(value)
    if hint is tuple:
        return tuple(value)
    if origin is dict:
        key_type, value_type = get_args(hint) or (Any, Any)
        return {
            _from_hint(key_type, key): _from_hint(value_type, item)
            for key, item in value.items()
        }
    if hint in (float, int, str, bool):
        return hint(value)
    return value


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> tuple:
    """``(name, hint)`` per dataclass field of ``cls``, resolved once per class.

    Under ``from __future__ import annotations`` every hint is a string that
    :func:`get_type_hints` compiles and evaluates, which costs far more than
    rebuilding the instance it describes.
    """
    hints = get_type_hints(cls)
    return tuple((field.name, hints.get(field.name, Any)) for field in dataclasses.fields(cls))


def dataclass_from_dict(cls: type, data: dict) -> Any:
    """Instantiate ``cls`` from :func:`dataclass_to_dict` output (inverse)."""
    return cls(**{
        name: _from_hint(hint, data[name]) for name, hint in _field_hints(cls) if name in data
    })


class SerializableResult:
    """Mixin deriving ``to_dict``/``from_dict`` from the dataclass fields."""

    def to_dict(self) -> dict:
        """JSON-serializable form, the inverse of :meth:`from_dict`."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild an instance comparing equal to the one serialized."""
        return dataclass_from_dict(cls, data)


# ---------------------------------------------------------------------- #
#  Tabular views (CSV export, CLI rendering)
# ---------------------------------------------------------------------- #


def flatten(mapping: dict, prefix: str = "") -> dict:
    """One-level dict with dotted keys; nested lists become JSON strings."""
    flat: dict = {}
    for key, value in mapping.items():
        full = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{full}."))
        elif isinstance(value, (list, tuple)):
            flat[full] = json.dumps(to_jsonable(value))
        else:
            flat[full] = value
    return flat


def result_rows(data: dict) -> list[dict]:
    """A serialized result as flat rows, one per element of each list field.

    Every top-level field holding a list of records (or a dict of records,
    like Table I's per-ISA feature map) contributes one row per record with
    a ``section`` column naming the field; the remaining scalar fields are
    gathered into a single trailing ``summary`` row.  This is the shape the
    CSV export and the CLI's table rendering share.
    """
    rows: list[dict] = []
    scalars: dict = {}
    for key, value in data.items():
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for record in value:
                rows.append({"section": key, **flatten(record)})
        elif isinstance(value, dict) and value and all(
            isinstance(v, dict) for v in value.values()
        ):
            for name, record in value.items():
                rows.append({"section": key, "key": name, **flatten(record)})
        else:
            scalars[key] = value
    if scalars:
        rows.append({"section": "summary", **flatten(scalars)})
    return rows
