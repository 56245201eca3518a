"""Ensure the src layout is importable even without an editable install."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

# Keep the suite hermetic: a developer's $REPRO_REMOTE_CACHE must not make
# tests read from -- let alone publish reduced-scale results to -- a real
# shared cache service.  Scrubbed at import time (not only via the fixture
# below) because session-scoped fixtures, e.g. the benchmark runner,
# instantiate before any function-scoped autouse fixture runs.
os.environ.pop("REPRO_REMOTE_CACHE", None)

# Background re-probing is opt-in per test: a RemoteStore deliberately
# killed by one fault-injection test must not wake up seconds later and
# emit its rejoin warning inside an unrelated test's warning assertions.
# The re-probe tests pass an explicit reprobe_interval instead.
os.environ["REPRO_REMOTE_REPROBE_S"] = "0"


@pytest.fixture(autouse=True)
def _no_ambient_remote_cache(monkeypatch):
    """Per-test guard on top of the import-time scrub, so a test that sets
    REPRO_REMOTE_CACHE (see tests/test_cache_service.py) can never leak it
    into its neighbours."""
    monkeypatch.delenv("REPRO_REMOTE_CACHE", raising=False)
    monkeypatch.setenv("REPRO_REMOTE_REPROBE_S", "0")
