"""Tests for the unified ``python -m repro`` CLI.

The expensive full-scale experiment exports run in CI; here the CLI is
exercised on cheap experiments (tables, ad-hoc sweeps) and the export
schema is pinned against the checked-in golden outline.
"""

import csv
import json
import os

import pytest

from repro.cli import main as cli_main, named_sweep, named_sweep_names, schema_outline
from repro.experiments.registry import experiment_names
from repro.experiments.tables import TablesResult

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="session")
def schema_cache_dir(tmp_path_factory):
    """Persistent store shared by every schema-golden export.

    Honouring $REPRO_SWEEP_CACHE_DIR means CI (and any dev box that sets
    it) answers the fixed-shape experiments from the warm cache; otherwise
    one session-scoped directory at least shares jobs across the 11
    parametrized runs (figure11 reuses figure10's spec, figure12 is the
    union of its sub-experiments, ...).
    """
    env = os.environ.get("REPRO_SWEEP_CACHE_DIR")
    if env:
        return env
    # A fixed name under the session basetemp (not mktemp, which numbers
    # its directories): test_read_api resolves the same path, so the
    # round-trip suite reuses these warm results instead of re-simulating
    # all 11 experiments a second time.
    root = tmp_path_factory.getbasetemp() / "schema-cache"
    root.mkdir(exist_ok=True)
    return str(root)


class TestList:
    def test_lists_experiments_sweeps_and_cache(self, tmp_path, capsys):
        assert cli_main(["--cache-dir", str(tmp_path), "list"]) == 0
        out = capsys.readouterr().out
        assert "Experiments" in out
        assert "figure7" in out and "tables" in out
        assert "Named sweeps" in out
        assert str(tmp_path) in out


class TestRunExperimentCommand:
    def test_tables_json_export(self, tmp_path, capsys):
        out_path = tmp_path / "tables.json"
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "tables",
                "--jobs", "1", "--export", "json", "--out", str(out_path)]
        assert cli_main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == 1
        assert payload["experiment"] == "tables"
        assert payload["options"]["scale"] == 0.5
        assert "num_arrays" in json.dumps(payload["options"]["config"])
        # The exported result deserializes back into the result type.
        restored = TablesResult.from_dict(payload["result"])
        assert restored.table5["mve_overhead_percent"] == pytest.approx(3.6, abs=0.2)

    def test_tables_csv_export_to_stdout(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "tables",
                "--jobs", "1", "--export", "csv"]
        assert cli_main(argv) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        sections = {row["section"] for row in rows}
        assert {"table1", "table2", "table3", "summary"} <= sections
        opcodes = {row["opcode"] for row in rows if row["section"] == "table2"}
        assert "vadd" in opcodes

    def test_human_readable_run_prints_tables(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "tables", "--jobs", "1"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "tables.table2" in out and "vadd" in out
        assert "assembled in" in out

    def test_unknown_experiment_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="figure99"):
            cli_main(["--cache-dir", str(tmp_path), "run", "figure99"])

    def test_experiment_name_combined_with_sweep_or_kernels_is_rejected(self, tmp_path):
        """Regression: `run tables --sweep figure10` used to silently drop
        the experiment name and run the sweep."""
        with pytest.raises(SystemExit, match="not both"):
            cli_main(["--cache-dir", str(tmp_path), "run", "tables", "--sweep", "figure10"])
        with pytest.raises(SystemExit, match="not both"):
            cli_main(["--cache-dir", str(tmp_path), "run", "tables", "--kernels", "csum"])


class TestRunSweepCommand:
    def test_adhoc_sweep_json_export(self, tmp_path):
        out_path = tmp_path / "sweep.json"
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "--kernels", "csum",
                "--scale", "0.25", "--jobs", "1", "--export", "json",
                "--out", str(out_path)]
        assert cli_main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == 1 and payload["sweep"] == "custom"
        (job,) = payload["jobs"]
        assert job["kernel"] == "csum" and job["kind"] == "mve"
        assert job["source"] == "computed"
        assert job["result"]["total_cycles"] > 0
        assert len(job["cache_key"]) == 64

    def test_adhoc_sweep_csv_export(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "--kernels",
                "csum,memcpy", "--scale", "0.25", "--jobs", "1", "--export", "csv"]
        assert cli_main(argv) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert {row["kernel"] for row in rows} == {"csum", "memcpy"}
        assert all(float(row["result.total_cycles"]) > 0 for row in rows)

    def test_progress_streams_to_stderr(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "--kernels",
                "csum,memcpy", "--scale", "0.25", "--jobs", "1"]
        assert cli_main(argv) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err

    def test_no_progress_silences_stderr(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "--kernels", "csum",
                "--scale", "0.25", "--jobs", "1", "--no-progress"]
        assert cli_main(argv) == 0
        assert "[1/1]" not in capsys.readouterr().err


class TestExportLineTerminators:
    """Regression: ``_write_export`` wrote CSV text through a default
    text-mode handle (no ``newline=""``), which doubled the csv module's
    ``\\r\\n`` terminators to ``\\r\\r\\n`` on Windows.  Exports now write
    rendered bytes, so the terminators are platform-independent."""

    def test_csv_export_bytes_use_exact_crlf(self, tmp_path):
        out_path = tmp_path / "tables.csv"
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "tables",
                "--jobs", "1", "--export", "csv", "--out", str(out_path)]
        assert cli_main(argv) == 0
        data = out_path.read_bytes()
        assert b"\r\r\n" not in data
        # Every line terminator is exactly \r\n (RFC 4180): as many bare
        # newlines as CRLF pairs means no lone \n ever hits the file.
        assert data.count(b"\n") == data.count(b"\r\n") > 0
        assert data.endswith(b"\r\n")

    def test_json_export_bytes_keep_bare_lf(self, tmp_path):
        out_path = tmp_path / "tables.json"
        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "tables",
                "--jobs", "1", "--export", "json", "--out", str(out_path)]
        assert cli_main(argv) == 0
        data = out_path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestTraceCommand:
    def test_capture_then_stats_hits_the_trace_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli_main(["--cache-dir", cache_dir, "trace", "capture", "csum",
                         "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "captured in" in out and "columnar npz" in out

        # stats answers from the store: no fresh capture
        assert cli_main(["--cache-dir", cache_dir, "trace", "stats", "csum",
                         "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "[cache]" in out
        assert "Dynamic instruction mix" in out
        assert "vsld" in out and "arithmetic" in out

    def test_stats_without_cache_captures_fresh(self, tmp_path, capsys):
        assert cli_main(["--cache-dir", str(tmp_path), "trace", "stats", "csum",
                         "--scale", "0.25", "--no-cache"]) == 0
        assert "captured in" in capsys.readouterr().out
        assert not any((tmp_path).glob("*/*.json"))

    def test_list_marks_cached_and_rvv_kernels(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli_main(["--cache-dir", cache_dir, "trace", "capture", "csum"]) == 0
        capsys.readouterr()
        assert cli_main(["--cache-dir", cache_dir, "trace", "list"]) == 0
        out = capsys.readouterr().out
        (csum_row,) = [line for line in out.splitlines() if line.startswith("csum ")]
        assert "yes" in csum_row  # rvv support and cached marker
        assert "gemm" in out

    def test_unknown_kernel_and_missing_lowering_are_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown kernel"):
            cli_main(["--cache-dir", str(tmp_path), "trace", "stats", "nope"])
        with pytest.raises(SystemExit, match="no rvv lowering"):
            cli_main(["--cache-dir", str(tmp_path), "trace", "stats", "memcpy",
                      "--kind", "rvv"])
        with pytest.raises(SystemExit, match="pass a kernel"):
            cli_main(["--cache-dir", str(tmp_path), "trace", "capture"])


class TestTraceDiff:
    def test_diffs_mve_against_rvv_instruction_mix(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["--cache-dir", cache_dir, "trace", "diff", "csum",
                "--scale", "0.25", "--against", "kind=rvv"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "base:" in out and "against:" in out
        assert "csum/mve" in out and "csum/rvv" in out
        assert "Dynamic instruction mix" in out
        assert "ratio" in out and "delta" in out
        assert "Per-opcode counts" in out

        # Both sides cached now: a re-diff captures nothing.
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("[cache]") == 2
        assert "captured in" not in out

    def test_against_overrides_scale_and_lanes(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path / "cache"), "trace", "diff", "csum",
                "--scale", "0.25", "--against", "scale=0.5,lanes=4096"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "scale=0.25" in out and "scale=0.5" in out

    def test_missing_or_malformed_against_is_rejected(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(SystemExit, match="pass --against"):
            cli_main(["--cache-dir", cache_dir, "trace", "diff", "csum"])
        with pytest.raises(SystemExit, match="bad --against entry"):
            cli_main(["--cache-dir", cache_dir, "trace", "diff", "csum",
                      "--against", "rvv"])
        with pytest.raises(SystemExit, match="bad --against entry"):
            cli_main(["--cache-dir", cache_dir, "trace", "diff", "csum",
                      "--against", "warp=9"])
        with pytest.raises(SystemExit, match="unknown kernel"):
            cli_main(["--cache-dir", cache_dir, "trace", "diff", "csum",
                      "--against", "kernel=nope"])
        with pytest.raises(SystemExit, match="unknown kind"):
            cli_main(["--cache-dir", cache_dir, "trace", "diff", "csum",
                      "--against", "kind=avx"])
        with pytest.raises(SystemExit, match="scale must be a number"):
            cli_main(["--cache-dir", cache_dir, "trace", "diff", "csum",
                      "--against", "scale=fast"])


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cli_main(["--cache-dir", cache_dir, "run", "--kernels", "csum",
                  "--scale", "0.25", "--jobs", "1", "--no-progress"])
        capsys.readouterr()
        # One simulation result plus its capture-stage trace artifact.
        assert cli_main(["--cache-dir", cache_dir, "cache"]) == 0
        assert "(2 entries)" in capsys.readouterr().out
        assert cli_main(["--cache-dir", cache_dir, "cache", "clear"]) == 0
        assert "removed 2" in capsys.readouterr().out


class TestExportSchemaGolden:
    """Every registered experiment's export schema is pinned by a golden.

    The outline is value- and scale-free (lists collapse to their first
    element's shape), so the reduced-scale runs here pin the same outline
    the CI full-scale figure7 smoke step compares.  Regenerate after an
    intentional result-shape change with::

        PYTHONPATH=src python tests/test_cli.py --update-schemas
    """

    def test_every_experiment_has_a_golden(self):
        goldens = {
            name[: -len("_export_schema.json")]
            for name in os.listdir(GOLDEN_DIR)
            if name.endswith("_export_schema.json")
        }
        assert goldens == set(experiment_names())

    @pytest.mark.parametrize("name", experiment_names())
    def test_export_schema_matches_golden(self, name, tmp_path, schema_cache_dir):
        out_path = tmp_path / f"{name}.json"
        argv = ["--cache-dir", schema_cache_dir, "run", name, "--scale", "0.1",
                "--export", "json", "--out", str(out_path), "--no-progress"]
        assert cli_main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert payload["experiment"] == name
        with open(os.path.join(GOLDEN_DIR, f"{name}_export_schema.json")) as handle:
            golden = json.load(handle)
        assert schema_outline(payload["result"]) == golden


class TestDeprecatedSweepShim:
    def test_shim_named_sweep_matches_experiment_jobs(self):
        from repro.experiments import ExperimentOptions, get_experiment

        assert "figure7" in named_sweep_names()
        spec = named_sweep("figure13")
        assert spec.jobs() == get_experiment("figure13").jobs(ExperimentOptions())

    def test_named_sweeps_carry_their_own_name(self):
        """Regression: figure11 reuses figure10's spec, so exposing it as a
        raw sweep would export payloads labelled \"figure10\"; multi-spec
        figure12 cannot be one raw sweep either."""
        names = named_sweep_names()
        assert "figure11" not in names and "figure12" not in names
        for name in names:
            assert named_sweep(name).name == name
        with pytest.raises(KeyError, match="not a single raw sweep"):
            named_sweep("figure11")


# ---------------------------------------------------------------------- #
#  Golden regeneration: PYTHONPATH=src python tests/test_cli.py --update-schemas
# ---------------------------------------------------------------------- #


def _update_schema_goldens() -> None:
    import tempfile

    # Hermetic like the pytest run (see conftest.py): regeneration must not
    # publish reduced-scale results to a real cache service or pollute the
    # developer's default cache directory.
    os.environ.pop("REPRO_REMOTE_CACHE", None)
    cache_dir = tempfile.mkdtemp(prefix="repro-schema-cache-")
    for name in experiment_names():
        out_path = os.path.join(tempfile.mkdtemp(), f"{name}.json")
        argv = ["--cache-dir", cache_dir, "run", name, "--scale", "0.1",
                "--export", "json", "--out", out_path, "--no-progress"]
        assert cli_main(argv) == 0
        with open(out_path) as handle:
            payload = json.load(handle)
        golden_path = os.path.join(GOLDEN_DIR, f"{name}_export_schema.json")
        with open(golden_path, "w") as handle:
            json.dump(schema_outline(payload["result"]), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated {golden_path}")


if __name__ == "__main__":
    import sys

    if "--update-schemas" in sys.argv:
        _update_schema_goldens()
    else:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_cli.py --update-schemas")
