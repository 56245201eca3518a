"""On-disk storage for the content-addressed result store.

:class:`LocalDirBackend` moves opaque *records* -- JSON dicts carrying the
cache-schema marker -- in and out of a directory, one file per hex cache
key, sharded by key prefix and written atomically.  The frontend
(:class:`~repro.core.cache.ResultStore`) owns hit/miss accounting; the
read-only HTTP server (:mod:`repro.core.cache_service`) serves the same
directory.

The backend never raises on storage trouble: a failed write degrades to a
no-op and a corrupt read is a miss, so the simulation pipeline above is
oblivious to cache health.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Optional

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "LocalDirBackend",
]

#: bump when the record layout changes incompatibly
CACHE_SCHEMA_VERSION = 1


class LocalDirBackend:
    """One JSON file per cache key under ``root``, sharded by key prefix.

    Writes are atomic (unique temp file + ``os.replace``) so concurrent
    writers -- threads of one process, or many processes sharing the
    directory -- can never publish a torn entry: readers see either the old
    record or the new one, and the last write wins.  Truncated or otherwise
    unparseable entries are deleted on read and reported as misses.
    Record movement (``load``/``store``/``contains``) is safe to call from
    multiple threads.
    """

    _tmp_counter = 0
    _tmp_lock = threading.Lock()

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @classmethod
    def _tmp_suffix(cls) -> str:
        # pid alone is not unique enough: concurrent sweeps in one process
        # would collide on the same temp file.
        with cls._tmp_lock:
            cls._tmp_counter += 1
            serial = cls._tmp_counter
        return f".tmp.{os.getpid()}.{threading.get_ident()}.{serial}"

    def load(self, key: str) -> Optional[dict]:
        """The stored record for ``key``, or None on miss or corruption."""
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            if path.exists():
                # Corrupted (truncated write, bad encoding, ...): drop it so
                # the recomputed result can take its place.
                try:
                    path.unlink()
                except OSError:
                    pass
            return None

    def load_checked(self, key: str) -> Optional[dict]:
        """The record for ``key`` only if it carries the current schema
        marker; None otherwise.  The one schema gate every reader shares
        (:class:`~repro.core.cache.ResultStore` and the read API), so a
        record written by an incompatible version can never leak out of any
        door."""
        record = self.load(key)
        if not isinstance(record, dict) or record.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        return record

    def store(self, key: str, record: dict) -> bool:
        """Persist ``record`` under ``key``; False if the write was lost."""
        path = self.path(key)
        tmp = path.parent / (path.name + self._tmp_suffix())
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(tmp, path)
            return True
        except OSError:
            # A read-only or full cache directory degrades to a no-op cache.
            try:
                tmp.unlink()
            except OSError:
                pass
            return False

    def contains(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every record; returns how many."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
