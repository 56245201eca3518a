"""Content-addressed result store for simulation outcomes.

Simulating one kernel trace is deterministic: the result is a pure function
of the kernel (name, scale, constructor kwargs), the lowering (MVE or RVV)
and the full :class:`~repro.core.config.MachineConfig`, scheme included.
The store exploits that by hashing all of those inputs -- plus a fingerprint
of the simulator source tree, so any code change invalidates every entry --
into a cache key, and keeping one small JSON record per key.

Records live as files under ``$REPRO_SWEEP_CACHE_DIR`` (default
``~/.cache/repro-sweep``) in a :class:`~repro.core.store_backend.LocalDirBackend`,
written atomically and loaded defensively -- a truncated or corrupted file
is treated as a miss and deleted, never trusted.  The store is safe to
delete wholesale at any time; ``python -m repro cache clear`` does exactly
that.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional

from .config import MachineConfig
from .store_backend import CACHE_SCHEMA_VERSION, LocalDirBackend

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultStore",
    "code_fingerprint",
    "config_digest",
    "functional_fingerprint",
    "stable_hash",
]

_ENV_CACHE_DIR = "REPRO_SWEEP_CACHE_DIR"

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file, used as a cache-key salt.

    Any edit anywhere in the package changes the fingerprint and therefore
    invalidates the whole store, which makes stale results impossible by
    construction (at the cost of a cold cache after each code change).
    Computed once per process (~90 files, a few milliseconds).
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


#: package subtrees (relative to ``src/repro``) whose source determines what
#: a captured instruction trace looks like.  Deliberately narrower than
#: :func:`code_fingerprint`: editing the timing simulator, compiler or cache
#: models must not invalidate captured traces, only simulation results.
_FUNCTIONAL_LAYER = (
    "isa",
    "intrinsics",
    "workloads",
    "memory/flatmem.py",
    "core/traces.py",
)

_functional_fingerprint: Optional[str] = None


def functional_fingerprint() -> str:
    """Hash of the functional-layer sources, used to key trace artifacts.

    Covers the ISA definitions, the intrinsic machine, the kernels and the
    flat memory model -- everything that can change the instruction stream a
    kernel emits.  Timing-model edits leave it untouched, so a warm trace
    cache survives simulator work.
    """
    global _functional_fingerprint
    if _functional_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for subpath in _FUNCTIONAL_LAYER:
            path = package_root / subpath
            if not path.exists():
                # A renamed/moved functional-layer file must fail loudly:
                # silently hashing nothing would freeze the trace keys while
                # the captured instruction stream keeps changing.
                raise FileNotFoundError(
                    f"functional-fingerprint entry {subpath!r} is missing under "
                    f"{package_root}; update _FUNCTIONAL_LAYER in {__name__}"
                )
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for file in files:
                digest.update(str(file.relative_to(package_root)).encode())
                digest.update(file.read_bytes())
        _functional_fingerprint = digest.hexdigest()
    return _functional_fingerprint


@functools.lru_cache(maxsize=1024)
def _config_fields(config: MachineConfig) -> dict:
    # Configs are frozen and hashable, so one deep copy per config serves
    # every cache key built from it.
    return dataclasses.asdict(config)


def _copy_dicts(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _copy_dicts(item) for key, item in value.items()}
    return value


def config_digest(config: MachineConfig) -> dict:
    """The full machine configuration as a plain, JSON-serializable dict:
    ``dataclasses.asdict(config)``, built once per config.  Every call gets
    its own dicts (the leaves are immutable scalars)."""
    return _copy_dicts(_config_fields(config))


def stable_hash(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode()).hexdigest()


class ResultStore:
    """Schema-checked record store over a :class:`LocalDirBackend`.

    Records live in a directory rooted at ``root``.  The store validates
    the schema marker and counts hits/misses; durability and atomicity live
    in the backend.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.backend = LocalDirBackend(self.root)
        self.hits = 0
        self.misses = 0

    @classmethod
    def default_dir(cls) -> Path:
        env = os.environ.get(_ENV_CACHE_DIR)
        if env:
            return Path(env)
        return Path.home() / ".cache" / "repro-sweep"

    @classmethod
    def default(cls) -> "ResultStore":
        return cls(cls.default_dir())

    def _path(self, key: str) -> Path:
        # The stable address of an entry (tests and tooling poke at files
        # directly).
        return self.backend.path(key)

    def load(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or None on miss or corruption."""
        record = self.backend.load_checked(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` (merged with the schema marker)."""
        self.backend.store(key, {"schema": CACHE_SCHEMA_VERSION, **payload})

    def __len__(self) -> int:
        return len(self.backend)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.backend.clear()
