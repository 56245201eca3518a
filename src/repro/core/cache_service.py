"""Read-only HTTP access to the content-addressed result store.

``python -m repro serve`` publishes one local store directory to HTTP
readers.  The protocol is deliberately tiny -- JSON records addressed by
hex cache key, stdlib only:

==========================  ===============================================
``GET  /v1/entry/K``        200 + the record, or 404 on a miss (absent,
                            corrupt or of another cache schema)
``HEAD /v1/entry/K``        200 / 404 without a body, same rule
``HEAD`` on any other path  GET's status and headers, without the body
``GET  /v1/stats``          entry count and request counters, as JSON
``GET  /v1/experiments``    registered experiments with per-store-key
                            availability (``?scale=`` selects the options)
``GET  /v1/experiments/N``  the assembled result of experiment ``N``,
                            byte-identical to the CLI export; ``ETag``
                            derived from the store key with
                            ``If-None-Match`` -> 304 revalidation,
                            ``Accept: text/csv`` (or ``?format=csv``) for
                            the row view, ``?offset=&limit=`` pagination
==========================  ===============================================

The handler defines only ``do_GET`` and ``do_HEAD``: any other method gets
the stdlib's ``501`` with ``Connection: close``, so no request body ever
reaches the store.  Results are written by local runs (``python -m repro
run``) into the same directory the server reads.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from .store_backend import LocalDirBackend

__all__ = [
    "DEFAULT_PORT",
    "CacheRequestHandler",
    "CacheServer",
]

DEFAULT_PORT = 8750

#: cache keys are SHA-256 hex digests; anything else is rejected up front
#: (which also rules out path traversal before a key ever reaches a backend)
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class CacheRequestHandler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` protocol onto the server's storage backend."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-cache-service/1"
    #: per-connection socket timeout: a client that stalls must not pin a
    #: server thread (and its fd) forever
    timeout = 30

    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> LocalDirBackend:
        return self.server.backend

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_body(
        self,
        code: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Optional[dict] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, code: int, payload: dict) -> None:
        self._send_body(code, json.dumps(payload).encode("utf-8"))

    def _send_empty(self, code: int) -> None:
        self.send_response(code)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _entry_key(self) -> Optional[str]:
        prefix = "/v1/entry/"
        if not self.path.startswith(prefix):
            return None
        key = self.path[len(prefix):]
        return key if _KEY_RE.match(key) else None

    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:
        if self.path == "/v1/stats":
            self._send_json(200, self.server.stats())
            return
        path, _, query = self.path.partition("?")
        if path == "/v1/experiments" or path.startswith("/v1/experiments/"):
            self._get_experiments(path, query)
            return
        key = self._entry_key()
        if key is None:
            self.server.count("bad_requests")
            self._send_json(400, {"error": f"bad route or key: {self.path}"})
            return
        self.server.count("gets")
        record = self.backend.load_checked(key)
        if record is None:
            self.server.count("misses")
            self._send_json(404, {"error": "miss"})
        else:
            self.server.count("hits_served")
            self._send_json(200, record)

    # -- the read API: assembled experiment results ---------------------- #

    @staticmethod
    def _experiment_etag(key: str, fmt: str, offset: Optional[int], limit: Optional[int]) -> str:
        """Per-representation validator derived from the store key.

        The key already embeds the source fingerprint and options, so equal
        tags imply byte-equal documents; format and pagination qualifiers
        keep distinct representations from validating against each other.
        """
        tag = key
        if fmt != "json":
            tag += f".{fmt}"
        if offset is not None or limit is not None:
            tag += f".{offset or 0}.{'all' if limit is None else limit}"
        return f'"{tag}"'

    @staticmethod
    def _etag_matches(header: Optional[str], etag: str) -> bool:
        if not header:
            return False
        for candidate in header.split(","):
            candidate = candidate.strip()
            if candidate.startswith("W/"):
                candidate = candidate[2:]
            if candidate == etag or candidate == "*":
                return True
        return False

    def _get_experiments(self, path: str, query: str) -> None:
        """``GET /v1/experiments[/<name>]``: assembled experiment results.

        Registry and export modules import lazily so serving plain entries
        never pays for (or depends on) the experiment stack.
        """
        from urllib.parse import parse_qs

        from ..experiments import export as export_api
        from ..experiments import registry

        params = parse_qs(query)

        def param(name: str) -> Optional[str]:
            values = params.get(name)
            return values[0] if values else None

        try:
            options = registry.ExperimentOptions(scale=param("scale") or 0.5)
        except ValueError as error:
            self._send_json(400, {"error": f"bad scale: {error}"})
            return

        if path == "/v1/experiments":
            self.server.count("experiment_gets")
            self._send_json(
                200,
                {
                    "schema": export_api.EXPORT_SCHEMA_VERSION,
                    "scale": options.scale,
                    "experiments": registry.experiment_catalog(
                        self.backend.contains, options
                    ),
                },
            )
            return

        name = path[len("/v1/experiments/") :]
        try:
            experiment = registry.get_experiment(name)
        except KeyError:
            self.server.count("experiment_misses")
            self._send_json(
                404,
                {
                    "error": f"unknown experiment {name!r}",
                    "experiments": registry.experiment_names(),
                },
            )
            return

        fmt = param("format")
        if fmt is None:
            fmt = "csv" if "text/csv" in self.headers.get("Accept", "") else "json"
        if fmt not in ("json", "csv"):
            self._send_json(400, {"error": f"bad format {fmt!r} (choose json or csv)"})
            return
        window: dict[str, Optional[int]] = {"offset": None, "limit": None}
        for field in window:
            raw = param(field)
            if raw is None:
                continue
            try:
                value = int(raw)
            except ValueError:
                value = -1
            if value < 0:
                self._send_json(
                    400, {"error": f"bad {field} {raw!r} (need a non-negative integer)"}
                )
                return
            window[field] = value
        offset, limit = window["offset"], window["limit"]

        key = experiment.cache_key(options)
        etag = self._experiment_etag(key, fmt, offset, limit)
        headers = {"ETag": etag, "Vary": "Accept"}
        if self._etag_matches(self.headers.get("If-None-Match"), etag) and self.backend.contains(key):
            # Content-addressed revalidation without touching the record:
            # matching tags plus a present key prove the representation is
            # unchanged, which is what makes warm re-reads nearly free.
            self.server.count("experiment_not_modified")
            self.send_response(304)
            for header_name, value in headers.items():
                self.send_header(header_name, value)
            self.end_headers()
            return

        record = self.backend.load_checked(key)
        result_payload = registry.assembled_result_payload(name, record)
        if result_payload is None:
            self.server.count("experiment_misses")
            self._send_json(
                404,
                {
                    "error": f"experiment {name!r} is not in the store for these options",
                    "key": key,
                    "hint": f"warm it with: {experiment.warm_command(options)}",
                },
            )
            return

        payload = export_api.experiment_export_payload(name, options, result_payload)
        if offset is None and limit is None:
            body = export_api.render_payload(payload, fmt)
        else:
            rows, fieldnames, total = export_api.paged_rows(payload, offset or 0, limit)
            if fmt == "csv":
                body = export_api.render_rows_csv(rows, fieldnames)
            else:
                body = (
                    json.dumps(
                        {
                            "schema": export_api.EXPORT_SCHEMA_VERSION,
                            "experiment": name,
                            "options": options.to_dict(),
                            "offset": offset or 0,
                            "limit": limit,
                            "total_rows": total,
                            "rows": rows,
                        },
                        indent=2,
                        sort_keys=True,
                    )
                    + "\n"
                ).encode("utf-8")
        self.server.count("experiment_gets")
        content_type = "text/csv; charset=utf-8" if fmt == "csv" else "application/json"
        self._send_body(200, body, content_type=content_type, headers=headers)

    def do_HEAD(self) -> None:
        key = self._entry_key()
        if key is None:
            # Every other route answers as GET does (status, ETag,
            # Content-Length); ``_send_body`` leaves the body out.
            self.do_GET()
            return
        self.server.count("heads")
        self._send_empty(404 if self.backend.load_checked(key) is None else 200)


class CacheServer(ThreadingHTTPServer):
    """Threaded read-only HTTP front end over a :class:`LocalDirBackend`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`).
    Request counters are aggregated under a lock and served by
    ``GET /v1/stats``.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], root: str | Path, verbose: bool = False):
        self.backend = LocalDirBackend(root)
        self.verbose = verbose
        self._counter_lock = threading.Lock()
        self._counters = {
            "gets": 0,
            "hits_served": 0,
            "misses": 0,
            "heads": 0,
            "bad_requests": 0,
            "experiment_gets": 0,
            "experiment_not_modified": 0,
            "experiment_misses": 0,
        }
        super().__init__(address, CacheRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def count(self, name: str) -> None:
        with self._counter_lock:
            self._counters[name] += 1

    def stats(self) -> dict:
        with self._counter_lock:
            counters = dict(self._counters)
        return {"entries": len(self.backend), "root": str(self.backend.root), **counters}

    def start_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, embedding)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-cache-service", daemon=True
        )
        thread.start()
        return thread

    def handle_error(self, request, client_address) -> None:
        # Clients that vanish mid-request are an expected fault mode, not a
        # server bug.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError, TimeoutError)):
            return
        super().handle_error(request, client_address)
