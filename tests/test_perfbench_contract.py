"""The benchmark's tracer can still find every entry point it wraps.

``perfbench/tracing.py`` times the simulator's layers by patching the names
listed in its ``ENTRY_POINTS`` table, looking each one up as
``owner.__dict__[attr]``.  A refactor that renames or stops importing one of
them makes ``perfbench/run.py --trace 1`` fail on its first line, so this
test resolves every row the same way -- without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = load_entry_points()


@pytest.mark.parametrize(
    "row", ENTRY_POINTS, ids=[f"{module}.{path}" for _, module, path, _ in ENTRY_POINTS]
)
def test_entry_point_resolves_like_the_tracer(row):
    _, module_name, path, _ = row
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert attr in owner.__dict__, f"{module_name} has no {path} for the tracer to wrap"
    assert callable(owner.__dict__[attr])
