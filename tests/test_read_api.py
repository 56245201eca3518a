"""The read-heavy results surface: ``GET /v1/experiments`` + ``repro export``.

The contract under test is byte-identity: one assembled result in the
store must leave through every door -- ``python -m repro run --export``,
``GET /v1/experiments/<name>`` (JSON and CSV), and the static dataset
exporter (``python -m repro export``) -- as the *same bytes*.  On top of
that: content-addressed ``ETag`` revalidation (a matching
``If-None-Match`` answers 304 without loading the record), offset/limit
pagination sharing one header across pages, and a ThreadingHTTPServer that
answers thousands of concurrent keep-alive reads with exactly one record
load per full read.

The warm store is the session's shared ``warm_store_dir`` fixture
(``tests/conftest.py``), so the 11 reduced-scale experiment runs happen
once per pytest session.
"""

import http.client
import json
import os
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core.cache_service import CacheServer
from repro.experiments.export import (
    EXPORT_SCHEMA_VERSION,
    export_rows,
    schema_outline,
)
from repro.experiments.registry import (
    ExperimentOptions,
    experiment_names,
    experiment_store_key,
    get_experiment,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: the dataset scale every experiment is warmed at (tests/conftest.py)
SCALE = 0.1


# ---------------------------------------------------------------------- #
#  Fixtures: one server over the session's warm store
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def read_server(warm_store_dir):
    """A CacheServer fronting the warm store."""
    srv = CacheServer(("127.0.0.1", 0), root=warm_store_dir)
    srv.start_in_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def fetch(url, headers=None, method="GET"):
    """(status, headers, body) of one request, without raising on 3xx/4xx."""
    request = urllib.request.Request(url, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        with err:
            return err.code, dict(err.headers), err.read()


def cli_export_bytes(cache_dir, name, fmt, out_dir):
    """The exact bytes ``python -m repro run --export`` writes."""
    out_path = out_dir / f"{name}.{fmt}"
    argv = ["--cache-dir", cache_dir, "run", name, "--scale", str(SCALE),
            "--export", fmt, "--out", str(out_path), "--no-progress"]
    assert cli_main(argv) == 0
    return out_path.read_bytes()


# ---------------------------------------------------------------------- #
#  Catalog
# ---------------------------------------------------------------------- #


class TestCatalog:
    def test_catalog_lists_every_experiment_with_availability(self, read_server):
        status, _, body = fetch(
            f"{read_server.url}/v1/experiments?scale={SCALE}"
        )
        assert status == 200
        catalog = json.loads(body)
        assert catalog["schema"] == EXPORT_SCHEMA_VERSION
        assert catalog["scale"] == SCALE
        rows = {row["name"]: row for row in catalog["experiments"]}
        assert set(rows) == set(experiment_names())
        options = ExperimentOptions(scale=SCALE)
        for name, row in rows.items():
            assert row["available"] is True  # the fixture warmed everything
            assert row["key"] == experiment_store_key(name, options)
            assert row["description"]
            # tables is assembled analytically (0 sweep jobs); every
            # figure sweeps at least one kernel config.
            assert isinstance(row["jobs"], int) and row["jobs"] >= 0
            assert isinstance(row["uses_scale"], bool)
        assert any(row["jobs"] > 0 for row in rows.values())

    def test_catalog_availability_tracks_the_store(self, tmp_path):
        srv = CacheServer(("127.0.0.1", 0), root=tmp_path / "cold")
        srv.start_in_background()
        try:
            status, _, body = fetch(f"{srv.url}/v1/experiments")
            assert status == 200
            assert all(
                row["available"] is False
                for row in json.loads(body)["experiments"]
            )
        finally:
            srv.shutdown()
            srv.server_close()


# ---------------------------------------------------------------------- #
#  Round trip: served bytes == CLI export bytes, for every experiment
# ---------------------------------------------------------------------- #


class TestRoundTrip:
    @pytest.mark.parametrize("name", experiment_names())
    def test_served_bytes_match_cli_export(
        self, name, read_server, warm_store_dir, tmp_path
    ):
        doc_url = f"{read_server.url}/v1/experiments/{name}?scale={SCALE}"
        key = experiment_store_key(name, ExperimentOptions(scale=SCALE))

        # JSON: default representation, ETag is the bare store key.
        expected_json = cli_export_bytes(warm_store_dir, name, "json", tmp_path)
        status, headers, body = fetch(doc_url)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert headers["ETag"] == f'"{key}"'
        assert body == expected_json

        # The served result still matches the checked-in schema golden.
        golden_path = os.path.join(GOLDEN_DIR, f"{name}_export_schema.json")
        with open(golden_path) as handle:
            golden = json.load(handle)
        assert schema_outline(json.loads(body)["result"]) == golden

        # CSV via Accept negotiation: same bytes as the CLI CSV export.
        expected_csv = cli_export_bytes(warm_store_dir, name, "csv", tmp_path)
        status, headers, body = fetch(doc_url, headers={"Accept": "text/csv"})
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        assert headers["ETag"] == f'"{key}.csv"'
        assert body == expected_csv
        assert body.count(b"\n") == body.count(b"\r\n") > 0

    def test_format_param_overrides_accept(self, read_server):
        url = f"{read_server.url}/v1/experiments/tables?scale={SCALE}&format=json"
        status, headers, _ = fetch(url, headers={"Accept": "text/csv"})
        assert status == 200
        assert headers["Content-Type"] == "application/json"


# ---------------------------------------------------------------------- #
#  Conditional requests
# ---------------------------------------------------------------------- #


class TestConditionalRequests:
    def test_etag_revalidation_answers_304_with_empty_body(self, read_server, monkeypatch):
        backend = read_server.backend
        loads = []
        load = backend.load

        def counting_load(key):
            loads.append(key)
            return load(key)

        monkeypatch.setattr(backend, "load", counting_load)
        url = f"{read_server.url}/v1/experiments/tables?scale={SCALE}"
        status, headers, body = fetch(url)
        assert status == 200
        assert loads  # a full read loads the record
        etag = headers["ETag"]
        revalidated_before = read_server.stats()["experiment_not_modified"]

        loads.clear()
        status, headers, body = fetch(url, headers={"If-None-Match": etag})
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag
        assert loads == []  # the 304 never touched the record
        after = read_server.stats()["experiment_not_modified"]
        assert after == revalidated_before + 1

    def test_head_mirrors_get_without_the_body(self, read_server):
        url = f"{read_server.url}/v1/experiments/tables?scale={SCALE}"
        _, get_headers, get_body = fetch(url)
        status, headers, body = fetch(url, method="HEAD")
        assert status == 200
        assert body == b""
        assert headers["ETag"] == get_headers["ETag"]
        assert headers["Content-Length"] == str(len(get_body))
        status, _, body = fetch(
            url, headers={"If-None-Match": headers["ETag"]}, method="HEAD"
        )
        assert status == 304 and body == b""
        for path in ("/v1/experiments", "/v1/stats"):
            status, _, body = fetch(read_server.url + path, method="HEAD")
            assert (status, body) == (200, b""), path

    def test_csv_and_json_etags_never_validate_each_other(self, read_server):
        url = f"{read_server.url}/v1/experiments/tables?scale={SCALE}"
        _, json_headers, _ = fetch(url)
        _, csv_headers, _ = fetch(url, headers={"Accept": "text/csv"})
        assert json_headers["ETag"] != csv_headers["ETag"]
        # A JSON validator on a CSV request must re-send the full body.
        status, _, body = fetch(
            url,
            headers={"Accept": "text/csv", "If-None-Match": json_headers["ETag"]},
        )
        assert status == 200 and body

    def test_stale_etag_gets_a_full_response(self, read_server):
        url = f"{read_server.url}/v1/experiments/tables?scale={SCALE}"
        status, _, body = fetch(url, headers={"If-None-Match": '"00" * 32'})
        assert status == 200 and body

    def test_wildcard_and_weak_validators_match(self, read_server):
        url = f"{read_server.url}/v1/experiments/tables?scale={SCALE}"
        _, headers, _ = fetch(url)
        for validator in ("*", f"W/{headers['ETag']}", f'"junk", {headers["ETag"]}'):
            status, _, _ = fetch(url, headers={"If-None-Match": validator})
            assert status == 304, validator


# ---------------------------------------------------------------------- #
#  Pagination
# ---------------------------------------------------------------------- #


class TestPagination:
    def all_rows(self, read_server):
        """Every row of the tables document, through the paging code path
        itself -- the server renders rows from the raw store record, whose
        dict order a client-side re-parse of the sorted-keys JSON document
        does not reproduce."""
        _, _, body = fetch(
            f"{read_server.url}/v1/experiments/tables"
            f"?scale={SCALE}&offset=0&limit=100000"
        )
        return json.loads(body)["rows"]

    def test_json_window_carries_total_and_slice(self, read_server):
        rows = self.all_rows(read_server)
        assert len(rows) > 3
        url = (
            f"{read_server.url}/v1/experiments/tables"
            f"?scale={SCALE}&offset=1&limit=2"
        )
        status, headers, body = fetch(url)
        assert status == 200
        page = json.loads(body)
        assert page["rows"] == rows[1:3]
        assert page["total_rows"] == len(rows)
        assert page["offset"] == 1 and page["limit"] == 2
        # Paged representations get their own validator.
        assert headers["ETag"].endswith('.1.2"')

    def test_row_count_matches_the_document_row_view(self, read_server):
        _, _, body = fetch(
            f"{read_server.url}/v1/experiments/tables?scale={SCALE}"
        )
        assert len(self.all_rows(read_server)) == len(
            export_rows(json.loads(body))
        )

    def test_csv_pages_share_the_full_document_header(self, read_server):
        base = f"{read_server.url}/v1/experiments/tables?scale={SCALE}&format=csv"
        _, _, full = fetch(base)
        _, _, page = fetch(base + "&offset=0&limit=1")
        header = full.split(b"\r\n", 1)[0]
        assert page.split(b"\r\n", 1)[0] == header
        assert page.count(b"\r\n") == 2  # header + one row

    def test_offset_past_the_end_is_an_empty_page(self, read_server):
        url = (
            f"{read_server.url}/v1/experiments/tables"
            f"?scale={SCALE}&offset=100000&limit=5"
        )
        status, _, body = fetch(url)
        assert status == 200
        assert json.loads(body)["rows"] == []

    def test_bad_parameters_are_400(self, read_server):
        """Regression: a parseable but invalid scale (0, -2, nan, inf) was a
        404 whose warming hint the CLI refuses; every bad scale now gets the
        options' own validation message."""
        base = f"{read_server.url}/v1/experiments/tables"
        queries = ("scale=huge", "format=xml", "offset=-1", "limit=x",
                   "scale=0", "scale=-2", "scale=nan", "scale=inf")
        for query in queries:
            status, _, body = fetch(f"{base}?{query}")
            assert status == 400, query
            error = json.loads(body)["error"]
            if query.startswith("scale="):
                assert "scale must be a number > 0" in error, query


# ---------------------------------------------------------------------- #
#  Misses
# ---------------------------------------------------------------------- #


class TestMisses:
    def test_unknown_experiment_404_lists_the_registry(self, read_server):
        status, _, body = fetch(f"{read_server.url}/v1/experiments/figure99")
        assert status == 404
        answer = json.loads(body)
        assert "figure99" in answer["error"]
        assert answer["experiments"] == experiment_names()

    def test_cold_options_404_with_key_and_warming_hint(self, read_server):
        name = next(
            name for name in experiment_names()
            if get_experiment(name).uses_scale
        )
        # A scale nobody warmed: different store key, so a miss -- the API
        # must report, never simulate.
        url = f"{read_server.url}/v1/experiments/{name}?scale=0.37"
        misses_before = read_server.stats()["experiment_misses"]
        status, _, body = fetch(url)
        assert status == 404
        answer = json.loads(body)
        assert answer["key"] == experiment_store_key(
            name, ExperimentOptions(scale=0.37)
        )
        assert f"python -m repro run {name} --scale 0.37" in answer["hint"]
        assert read_server.stats()["experiment_misses"] == misses_before + 1


# ---------------------------------------------------------------------- #
#  Access: reads need no credentials, mutations are refused outright
# ---------------------------------------------------------------------- #


class TestReadRoutesStayTokenFree:
    def test_reads_open_mutations_gated(self, tmp_path):
        """The server takes no token: any client may read, and the old
        write and queue routes answer ``501`` whatever the client sends."""
        srv = CacheServer(("127.0.0.1", 0), root=tmp_path / "server")
        srv.start_in_background()
        try:
            status, _, _ = fetch(f"{srv.url}/v1/experiments")
            assert status == 200  # catalog: open to every client
            status, _, _ = fetch(f"{srv.url}/v1/experiments/tables")
            assert status == 404  # cold miss, not an auth error

            body = json.dumps({"schema": 1, "result": {}}).encode()
            for method, route in (
                ("PUT", f"/v1/entry/{'ab' * 32}"),
                ("POST", "/v1/queue/enqueue"),
            ):
                request = urllib.request.Request(
                    srv.url + route,
                    data=body,
                    method=method,
                    headers={"Authorization": "Bearer read-api-secret"},
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=5)
                with excinfo.value:
                    assert excinfo.value.code == 501, (method, route)
            assert len(srv.backend) == 0
        finally:
            srv.shutdown()
            srv.server_close()


# ---------------------------------------------------------------------- #
#  Concurrency: thousands of keep-alive reads, one record load per full read
# ---------------------------------------------------------------------- #


class TestConcurrentReads:
    THREADS = 16
    REQUESTS_EACH = 128  # 2048 requests total

    def test_server_sustains_concurrent_keep_alive_readers(self, read_server, monkeypatch):
        host, port = read_server.server_address[:2]
        path = f"/v1/experiments/tables?scale={SCALE}"
        _, headers, _ = fetch(f"{read_server.url}{path}")
        etag = headers["ETag"]

        backend = read_server.backend
        loads = []
        load = backend.load

        def counting_load(key):
            loads.append(key)
            return load(key)

        monkeypatch.setattr(backend, "load", counting_load)
        before = read_server.stats()
        failures = []
        lock = threading.Lock()

        def conditional(worker_index, index):
            # Mostly revalidations (the warm-CDN shape this API is for),
            # with a full read every 8th request.
            return (index + worker_index) % 8 != 0

        def reader(worker_index):
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                for index in range(self.REQUESTS_EACH):
                    revalidate = conditional(worker_index, index)
                    request_headers = {"If-None-Match": etag} if revalidate else {}
                    connection.request("GET", path, headers=request_headers)
                    response = connection.getresponse()
                    body = response.read()
                    if revalidate and (response.status != 304 or body):
                        raise AssertionError(
                            f"expected empty 304, got {response.status} "
                            f"({len(body)} bytes)"
                        )
                    if not revalidate and response.status != 200:
                        raise AssertionError(f"expected 200, got {response.status}")
            except Exception as error:  # noqa: BLE001 - collected for the report
                with lock:
                    failures.append(f"reader {worker_index}: {error!r}")
            finally:
                connection.close()

        threads = [
            threading.Thread(target=reader, args=(index,), name=f"reader-{index}")
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures

        total = self.THREADS * self.REQUESTS_EACH
        full_reads = sum(
            not conditional(worker_index, index)
            for worker_index in range(self.THREADS)
            for index in range(self.REQUESTS_EACH)
        )
        assert full_reads == 256
        # One record load per unconditional read; a 304 never loads.
        assert len(loads) == full_reads
        assert set(loads) == {experiment_store_key("tables", ExperimentOptions(scale=SCALE))}
        after = read_server.stats()
        assert after["experiment_gets"] - before["experiment_gets"] == full_reads
        assert (
            after["experiment_not_modified"] - before["experiment_not_modified"]
            == total - full_reads
        )


# ---------------------------------------------------------------------- #
#  Static dataset exporter
# ---------------------------------------------------------------------- #


class TestStaticExport:
    def test_export_all_renders_every_experiment(
        self, warm_store_dir, tmp_path, capsys
    ):
        site = tmp_path / "site"
        argv = ["--cache-dir", warm_store_dir, "export", "--all",
                "--scale", str(SCALE), "--out", str(site)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert f"exported {len(experiment_names())} experiments" in out
        assert "zero simulation" in out

        manifest = json.loads((site / "index.json").read_text())
        names = [entry["name"] for entry in manifest["experiments"]]
        assert names == experiment_names()
        assert manifest["options"]["scale"] == SCALE
        for entry in manifest["experiments"]:
            for fmt in ("json", "csv"):
                path = site / entry["files"][fmt]
                assert path.is_file()
                assert path.stat().st_size == entry["bytes"][fmt]
            assert entry["rows"] > 0
            assert entry["key"] == experiment_store_key(
                entry["name"], ExperimentOptions(scale=SCALE)
            )

        # The manifest shape is pinned (regenerate with
        # ``PYTHONPATH=src python tests/test_read_api.py --update-manifest-schema``).
        with open(os.path.join(GOLDEN_DIR, "export_manifest_schema.json")) as handle:
            golden = json.load(handle)
        assert schema_outline(manifest) == golden

    def test_exported_files_are_byte_identical_to_cli_and_api(
        self, warm_store_dir, read_server, tmp_path
    ):
        site = tmp_path / "site"
        argv = ["--cache-dir", warm_store_dir, "export", "tables",
                "--scale", str(SCALE), "--out", str(site)]
        assert cli_main(argv) == 0
        expected = cli_export_bytes(warm_store_dir, "tables", "json", tmp_path)
        assert (site / "tables.json").read_bytes() == expected
        _, _, served = fetch(
            f"{read_server.url}/v1/experiments/tables?scale={SCALE}"
        )
        assert served == expected
        csv_expected = cli_export_bytes(warm_store_dir, "tables", "csv", tmp_path)
        assert (site / "tables.csv").read_bytes() == csv_expected

    def test_cold_store_fails_loudly_and_writes_nothing(self, tmp_path, capsys):
        site = tmp_path / "site"
        argv = ["--cache-dir", str(tmp_path / "cold"), "export", "--all",
                "--out", str(site)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        for name in experiment_names():
            assert f"export: {name}: not in store" in err
        assert "warm it with" in err
        assert "nothing written" in err
        assert not site.exists()  # all-or-nothing: no partial dataset

    def test_partial_store_reports_only_the_missing(
        self, warm_store_dir, tmp_path, capsys
    ):
        # Warm store, but asking for an unwarmed scale on a scale-sensitive
        # experiment: exactly the scale-dependent ones go missing.
        site = tmp_path / "site"
        argv = ["--cache-dir", warm_store_dir, "export", "--all",
                "--scale", "0.37", "--out", str(site)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        scale_free = [
            name for name in experiment_names()
            if not get_experiment(name).uses_scale
        ]
        for name in scale_free:
            assert f"export: {name}:" not in err
        assert not site.exists()

    def test_unknown_or_missing_names_are_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiments"):
            cli_main(["--cache-dir", str(tmp_path), "export", "figure99"])
        with pytest.raises(SystemExit, match="--all"):
            cli_main(["--cache-dir", str(tmp_path), "export"])


# ---------------------------------------------------------------------- #
#  Golden regeneration:
#  PYTHONPATH=src python tests/test_read_api.py --update-manifest-schema
# ---------------------------------------------------------------------- #


def _update_manifest_schema_golden() -> None:
    """Re-pin the export manifest outline.

    ``schema_outline`` collapses lists to their first element's shape, so a
    one-experiment export of the cheap ``tables`` experiment pins the same
    outline a full ``--all`` export produces.
    """
    import tempfile

    cache_dir = tempfile.mkdtemp(prefix="repro-manifest-cache-")
    site = os.path.join(tempfile.mkdtemp(), "site")
    assert cli_main(["--cache-dir", cache_dir, "run", "tables",
                     "--scale", str(SCALE), "--no-progress"]) == 0
    assert cli_main(["--cache-dir", cache_dir, "export", "tables",
                     "--scale", str(SCALE), "--out", site]) == 0
    with open(os.path.join(site, "index.json")) as handle:
        manifest = json.load(handle)
    golden_path = os.path.join(GOLDEN_DIR, "export_manifest_schema.json")
    with open(golden_path, "w") as handle:
        json.dump(schema_outline(manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"updated {golden_path}")


if __name__ == "__main__":
    import sys

    if "--update-manifest-schema" in sys.argv:
        _update_manifest_schema_golden()
    else:
        raise SystemExit(
            "usage: PYTHONPATH=src python tests/test_read_api.py "
            "--update-manifest-schema"
        )
