"""Local store safety and the read-only protocol of ``repro serve``.

The store is written only by local runs: concurrent writers sharing one
directory can never publish a torn entry, and the default store follows
``$REPRO_SWEEP_CACHE_DIR``.  The server answers GET and HEAD over that
directory, counts what it served, and refuses every other method with a
``501`` that closes the connection before any request body can reach the
store.
"""

import json
import socket
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cache import CACHE_SCHEMA_VERSION, ResultStore
from repro.core.cache_service import CacheServer

KEY_A = "ab" * 32
KEY_B = "cd" * 32


@pytest.fixture
def server(tmp_path):
    srv = CacheServer(("127.0.0.1", 0), root=tmp_path / "server")
    srv.start_in_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def request(server, method, path):
    """(status, body) of one request, without raising on 4xx."""
    req = urllib.request.Request(server.url + path, method=method)
    try:
        with urllib.request.urlopen(req, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read()


def server_stats(server):
    status, body = request(server, "GET", "/v1/stats")
    assert status == 200
    return json.loads(body)


def send_with_pipelined_get(server, method, path, body):
    """Send one request carrying ``body`` with a GET pipelined behind it on
    the same connection, read to EOF, and return the status line, the
    lower-cased headers and every byte after the first response head."""
    host, port = server.server_address[:2]
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    pipelined = f"GET /v1/stats HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(head + body + pipelined)
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    response_head, _, rest = data.partition(b"\r\n\r\n")
    status_line, *header_lines = response_head.split(b"\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(b":") for line in header_lines)
    }
    return status_line, headers, rest


# ---------------------------------------------------------------------- #
#  The read protocol
# ---------------------------------------------------------------------- #


class TestProtocol:
    def test_get_head_roundtrip(self, server):
        assert request(server, "GET", f"/v1/entry/{KEY_A}")[0] == 404
        assert request(server, "HEAD", f"/v1/entry/{KEY_A}") == (404, b"")
        ResultStore(server.backend.root).store(KEY_A, {"result": {"total_cycles": 7.0}})
        status, body = request(server, "GET", f"/v1/entry/{KEY_A}")
        assert status == 200
        assert json.loads(body) == {
            "schema": CACHE_SCHEMA_VERSION,
            "result": {"total_cycles": 7.0},
        }
        assert request(server, "HEAD", f"/v1/entry/{KEY_A}") == (200, b"")

    def test_records_of_another_schema_are_misses(self, server):
        """A record the store itself rejects -- written under another cache
        schema, e.g. a trace left at a live key by a schema bump -- is a
        miss through every door: the store, GET and HEAD."""
        record = {"schema": CACHE_SCHEMA_VERSION - 1, "result": {"total_cycles": 7.0}}
        assert server.backend.store(KEY_A, record)
        assert ResultStore(server.backend.root).load(KEY_A) is None
        assert request(server, "GET", f"/v1/entry/{KEY_A}")[0] == 404
        assert request(server, "HEAD", f"/v1/entry/{KEY_A}") == (404, b"")
        stats = server_stats(server)
        assert stats["misses"] == 1
        assert stats["hits_served"] == 0

    def test_stats_counts_requests_and_entries(self, server):
        ResultStore(server.backend.root).store(KEY_A, {"result": {}})
        request(server, "GET", f"/v1/entry/{KEY_A}")
        request(server, "GET", f"/v1/entry/{KEY_B}")
        stats = server_stats(server)
        assert stats["entries"] == 1
        assert stats["gets"] == 2
        assert stats["hits_served"] == 1
        assert stats["misses"] == 1

    def test_malformed_keys_and_routes_are_rejected(self, server):
        for path in (
            "/v1/entry/../../etc/passwd",
            "/v1/entry/ZZ" + "0" * 62,
            "/v1/unknown",
        ):
            assert request(server, "GET", path)[0] == 400, path
        stats = server_stats(server)
        assert stats["bad_requests"] == 3
        assert stats["gets"] == 0

    def test_rejected_put_closes_the_keepalive_connection(self, server):
        """The stdlib answers a PUT once, with ``501`` and ``Connection:
        close``, and drops the connection: the record body is never parsed,
        neither as an entry nor as a follow-up request, and the GET
        pipelined behind it is never answered."""
        record = {"schema": CACHE_SCHEMA_VERSION, "result": {"total_cycles": 1.0}}
        status_line, headers, rest = send_with_pipelined_get(
            server, "PUT", f"/v1/entry/{KEY_A}", json.dumps(record).encode()
        )
        assert status_line.startswith(b"HTTP/1.1 501"), status_line
        assert headers[b"connection"].lower() == b"close"
        # Exactly one response, then EOF.
        assert len(rest) == int(headers[b"content-length"])
        assert request(server, "GET", f"/v1/entry/{KEY_A}")[0] == 404
        assert server_stats(server)["gets"] == 1


class TestReadOnly:
    #: the bulk-write, key-probe and queue routes the server used to accept
    MUTATIONS = (
        ("POST", "/v1/entries"),
        ("POST", "/v1/keys"),
        ("POST", "/v1/queue/lease"),
    )

    def test_write_requests_get_one_501_and_close(self, server):
        """Every POST route is refused like a PUT: one ``501``, then EOF,
        with the body unparsed and nothing stored."""
        body = json.dumps(
            {
                "keys": [KEY_A],
                "put": {KEY_A: {"schema": CACHE_SCHEMA_VERSION, "result": {}}},
                "worker": "w",
            }
        ).encode()
        entries = len(server.backend)
        for method, path in self.MUTATIONS:
            status_line, headers, rest = send_with_pipelined_get(
                server, method, path, body
            )
            assert status_line.startswith(b"HTTP/1.1 501"), (method, path, status_line)
            assert headers[b"connection"].lower() == b"close", (method, path)
            # Exactly one response, then EOF.
            assert len(rest) == int(headers[b"content-length"]), (method, path)
        assert len(server.backend) == entries
        assert server_stats(server)["gets"] == 0


# ---------------------------------------------------------------------- #
#  The default store
# ---------------------------------------------------------------------- #


class TestDefaultStore:
    def test_cache_dir_env_var_wires_the_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "env-local"))
        store = ResultStore.default()
        assert store.root == tmp_path / "env-local"
        assert store.backend.root == tmp_path / "env-local"


# ---------------------------------------------------------------------- #
#  Concurrent writers
# ---------------------------------------------------------------------- #


class TestConcurrentWriters:
    N_WRITERS = 8
    PER_WRITER = 12

    def test_no_torn_entries_under_contention(self, tmp_path):
        """N threads store into one shared directory, to the same and to
        disjoint keys; every surviving entry must be a complete record that
        some writer actually wrote."""
        shared = tmp_path / "shared"
        contended = "ff" * 32
        errors = []

        def writer(thread_id):
            try:
                store = ResultStore(shared)
                for i in range(self.PER_WRITER):
                    disjoint = f"{thread_id:02x}{i:02x}" + "0" * 60
                    store.store(disjoint, {"result": {"writer": thread_id, "i": i}})
                    store.store(contended, {"result": {"writer": thread_id, "i": i}})
            except Exception as error:  # surfaced below; threads must not raise
                errors.append(error)

        with ThreadPoolExecutor(max_workers=self.N_WRITERS) as pool:
            list(pool.map(writer, range(self.N_WRITERS)))
        assert errors == []

        # Every disjoint key reads back exactly what its writer stored.
        reader = ResultStore(shared)
        for thread_id in range(self.N_WRITERS):
            for i in range(self.PER_WRITER):
                key = f"{thread_id:02x}{i:02x}" + "0" * 60
                assert reader.load(key)["result"] == {"writer": thread_id, "i": i}

        # The contended key holds one complete write (atomic replace:
        # torn/interleaved JSON would fail to parse or validate).
        record = reader.load(contended)
        assert record["schema"] == CACHE_SCHEMA_VERSION
        assert set(record["result"]) == {"writer", "i"}
        assert 0 <= record["result"]["writer"] < self.N_WRITERS

        # Sequential writes after the storm: the last write wins.
        finalist = ResultStore(shared)
        finalist.store(contended, {"result": "penultimate"})
        finalist.store(contended, {"result": "final"})
        assert ResultStore(shared).load(contended)["result"] == "final"

    def test_no_temp_file_droppings(self, tmp_path):
        """Atomic-write temp files never survive a completed store, even
        with many threads writing the same shard concurrently."""
        shared = tmp_path / "shared"

        def writer(thread_id):
            store = ResultStore(shared)
            for i in range(self.PER_WRITER):
                store.store("ee" * 32, {"result": thread_id * 1000 + i})

        with ThreadPoolExecutor(max_workers=self.N_WRITERS) as pool:
            list(pool.map(writer, range(self.N_WRITERS)))
        assert [p for p in shared.rglob("*") if ".tmp." in p.name] == []
        assert ResultStore(shared).load("ee" * 32)["schema"] == CACHE_SCHEMA_VERSION
