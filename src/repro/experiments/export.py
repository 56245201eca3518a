"""Canonical export rendering: one byte-exact surface for CLI and HTTP.

Every consumer of an assembled experiment result -- ``python -m repro run
--export``, the read API (``GET /v1/experiments/<name>`` on
:class:`~repro.core.cache_service.CacheServer`) and the static dataset
exporter (``python -m repro export``) -- renders through this module, so
the same store entry always produces the same bytes no matter which door
it leaves through.  JSON documents are ``json.dumps(payload, indent=2,
sort_keys=True)`` plus a trailing newline; CSV documents are the payload's
row view through :class:`csv.DictWriter` (RFC-4180 ``\r\n`` terminators,
columns in first-seen order).

The payload builders are pure functions of the stored result: an
experiment payload deliberately carries no timings, hostnames or other
run-local noise, which is what makes "served bytes == exported bytes"
a testable identity rather than an aspiration.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Optional, TextIO

from .serialize import flatten, result_rows

__all__ = [
    "EXPORT_SCHEMA_VERSION",
    "columns",
    "experiment_export_payload",
    "explore_export_payload",
    "export_rows",
    "export_static_dataset",
    "paged_rows",
    "render_payload",
    "render_rows_csv",
    "rows_to_csv",
    "schema_outline",
    "sweep_export_payload",
]

#: bump when the structure of exported JSON/CSV payloads changes
EXPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------- #
#  Payload builders
# ---------------------------------------------------------------------- #


def experiment_export_payload(name: str, options, result) -> dict:
    """The canonical export document for one assembled experiment result.

    ``result`` may be the result dataclass or its already-serialized dict
    (the raw ``record["result"]`` a store backend holds); both produce the
    same document, because ``to_dict``/``from_dict`` round trips are
    bit-exact.
    """
    result_dict = result if isinstance(result, dict) else result.to_dict()
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "experiment": name,
        "options": options.to_dict(),
        "result": result_dict,
    }


def sweep_export_payload(sweep) -> dict:
    """The JSON document ``run --sweep/--kernels --export json`` writes."""
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "sweep": sweep.spec.name,
        "elapsed_s": sweep.elapsed_s,
        "jobs": [
            {
                "kernel": job.kernel,
                "kind": job.kind,
                "scale": job.scale,
                "kwargs": dict(job.kwargs),
                "scheme": job.scheme_name,
                "cache_key": job.cache_key(),
                "source": outcome.source,
                "spills": outcome.spills,
                "result": outcome.result.to_dict(),
            }
            for job, outcome in sweep.outcomes.items()
        ],
    }


def explore_export_payload(space, state, elapsed_s: float = 0.0) -> dict:
    """The JSON document ``explore run --export`` writes.

    ``space`` is a :class:`~repro.explore.space.SearchSpace` and ``state``
    the :class:`~repro.explore.state.SearchState` of the run to publish
    (``simulated`` and ``rounds`` count that run's); the frontier rows
    carry the full serialized :class:`PointMetrics` (cycles, time, energy
    breakdown, area report) per surviving point.
    """
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "explore": {
            "kernel": space.kernel,
            "kind": space.kind,
            "scale": space.scale,
            "objectives": list(state.objectives),
            "space_size": space.size,
            "evaluated": len(state.evaluated),
            "simulated": state.simulated,
            "rounds": state.rounds,
            "done": state.done,
        },
        "space": space.to_dict(),
        "elapsed_s": elapsed_s,
        "frontier": [member.to_dict() for member in state.frontier],
    }


def schema_outline(payload) -> object:
    """The type-shape of a JSON payload, independent of its values.

    Dicts keep their (sorted) keys, lists collapse to the outline of their
    first element, and scalars become type names.  Two exports of the same
    experiment at different dataset scales produce the same outline, which
    is what the CI schema-drift gate compares against the checked-in golden.
    """
    if isinstance(payload, dict):
        return {key: schema_outline(value) for key, value in sorted(payload.items())}
    if isinstance(payload, list):
        return [schema_outline(payload[0])] if payload else []
    if isinstance(payload, bool):
        return "bool"
    if isinstance(payload, int):
        return "int"
    if isinstance(payload, float):
        return "float"
    if payload is None:
        return "null"
    return "str"


# ---------------------------------------------------------------------- #
#  Tabular views and rendering
# ---------------------------------------------------------------------- #


def export_rows(payload: dict) -> list[dict]:
    """The row-oriented view of any export payload (the CSV body)."""
    if "jobs" in payload:  # sweep payload: one row per job
        return [flatten(job) for job in payload["jobs"]]
    if "frontier" in payload:  # explore payload: one row per frontier point
        return [flatten(member) for member in payload["frontier"]]
    return result_rows(payload["result"])


def columns(rows: list[dict]) -> list[str]:
    """Union of row keys, preserving first-seen order."""
    ordered: list[str] = []
    for row in rows:
        for key in row:
            if key not in ordered:
                ordered.append(key)
    return ordered


def rows_to_csv(rows: list[dict], out: TextIO, fieldnames: Optional[list[str]] = None) -> None:
    writer = csv.DictWriter(out, fieldnames=fieldnames or columns(rows), restval="")
    writer.writeheader()
    writer.writerows(rows)


def render_rows_csv(rows: list[dict], fieldnames: Optional[list[str]] = None) -> bytes:
    """``rows`` as CSV bytes (``\\r\\n`` terminators, UTF-8)."""
    buffer = io.StringIO()
    rows_to_csv(rows, buffer, fieldnames=fieldnames)
    return buffer.getvalue().encode("utf-8")


def render_payload(payload: dict, fmt: str) -> bytes:
    """An export payload as the exact bytes every surface emits.

    Bytes, not text: the CSV representation carries ``\\r\\n`` terminators
    that a text-mode file write would mangle on platforms with newline
    translation, and the HTTP layer needs a byte count for Content-Length
    anyway.
    """
    if fmt == "json":
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if fmt == "csv":
        return render_rows_csv(export_rows(payload))
    raise ValueError(f"unknown export format {fmt!r} (choose json or csv)")


def paged_rows(
    payload: dict, offset: int, limit: Optional[int]
) -> tuple[list[dict], list[str], int]:
    """An ``offset``/``limit`` window over the payload's row view.

    Returns ``(window, columns, total)`` with ``columns`` computed over the
    *full* row set, so every page of one document shares one header.
    """
    rows = export_rows(payload)
    offset = max(0, offset)
    end = None if limit is None else offset + max(0, limit)
    return rows[offset:end], columns(rows), len(rows)


# ---------------------------------------------------------------------- #
#  Static dataset exporter
# ---------------------------------------------------------------------- #


def export_static_dataset(
    store, out_dir: str | Path, names: list[str], options
) -> tuple[Optional[dict], list[dict]]:
    """Render ``names`` from a warm ``store`` into a static dataset directory.

    Zero simulation by construction: results come exclusively from the read
    API's path, :func:`~repro.experiments.registry.assembled_result_payload`.
    All-or-nothing -- when any experiment is cold the return is ``(None,
    missing)`` with one ``{"name", "key"}`` entry per absent result and
    *nothing* is written, so a published directory can never hold a partial
    dataset.  On success the directory holds ``<name>.json`` + ``<name>.csv``
    per experiment (byte-identical to the CLI export and the read API) plus
    an ``index.json`` manifest, and the return is ``(manifest, [])``.
    """
    from .registry import assembled_result_payload, get_experiment

    loaded = []
    missing: list[dict] = []
    for name in names:
        experiment = get_experiment(name)
        key = experiment.cache_key(options)
        result = assembled_result_payload(name, store.load(key))
        if result is None:
            missing.append({"name": name, "key": key})
        else:
            loaded.append((experiment, key, result))
    if missing:
        return None, missing

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for experiment, key, result in loaded:
        payload = experiment_export_payload(experiment.name, options, result)
        json_bytes = render_payload(payload, "json")
        csv_bytes = render_payload(payload, "csv")
        (out_dir / f"{experiment.name}.json").write_bytes(json_bytes)
        (out_dir / f"{experiment.name}.csv").write_bytes(csv_bytes)
        entries.append(
            {
                "name": experiment.name,
                "description": experiment.description,
                "uses_scale": experiment.uses_scale,
                "key": key,
                "files": {
                    "json": f"{experiment.name}.json",
                    "csv": f"{experiment.name}.csv",
                },
                "bytes": {"json": len(json_bytes), "csv": len(csv_bytes)},
                "rows": len(export_rows(payload)),
            }
        )
    # No timestamps: the manifest is a pure function of the store content,
    # so re-exporting an unchanged store is byte-stable (and CI-diffable).
    manifest = {
        "schema": EXPORT_SCHEMA_VERSION,
        "options": options.to_dict(),
        "experiments": entries,
    }
    (out_dir / "index.json").write_bytes(
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    return manifest, []
