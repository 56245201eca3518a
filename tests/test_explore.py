"""Design-space explorer tests: spaces, frontiers, resume, CLI.

The contract under test: an adaptive search finds the *exact* Pareto
frontier of the exhaustive grid while evaluating (and above all
simulating) fewer configurations; the frontier is invariant to the order
results arrive in (hypothesis); a search does not depend on earlier runs,
so a rerun -- after a SIGKILL mid-round, or with a bigger budget -- reaches
the identical frontier with zero re-simulation; and every round's results
are persisted before its callbacks fold them in.

The frontier export schema is pinned by ``tests/golden/
explore_frontier_schema.json``; regenerate after an intentional change
with::

    PYTHONPATH=src python tests/test_explore.py --update-schema
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core.area import AreaReport
from repro.core.cache import ResultStore
from repro.core.config import default_config
from repro.core.energy import EnergyBreakdown
from repro.experiments.export import explore_export_payload, export_rows, schema_outline
from repro.experiments.sweep import ParallelSweepEngine, SweepSpec
from repro.explore import (
    Axis,
    Explorer,
    FrontierPoint,
    ParetoFrontier,
    PointMetrics,
    SearchSpace,
    default_space,
    exhaustive_frontier,
)
from repro.workloads import rvv_kernel_names

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
EXPLORE_SCHEMA_GOLDEN = os.path.join(GOLDEN_DIR, "explore_frontier_schema.json")

SCALE = 0.25


def small_space(scale: float = SCALE) -> SearchSpace:
    """16 points: 2 schemes x 4 engine sizes x 2 L2 compute-way settings."""
    return SearchSpace(
        kernel="csum",
        scale=scale,
        axes=(
            Axis("scheme", ("bit-serial", "bit-parallel")),
            Axis("num_arrays", (8, 16, 32, 64)),
            Axis("l2_compute_ways", (2, 4)),
        ),
    )


def tiny_space(scale: float = SCALE) -> SearchSpace:
    """8 points, for tests that only need a small distinct space."""
    return SearchSpace(
        kernel="csum",
        scale=scale,
        axes=(
            Axis("scheme", ("bit-serial", "bit-parallel")),
            Axis("num_arrays", (16, 32)),
            Axis("l2_compute_ways", (2, 4)),
        ),
    )


def frontier_dicts(members) -> list:
    return [member.to_dict() for member in members]


# ---------------------------------------------------------------------- #
#  SearchSpace: addressing, validation, compilation to the sweep machinery
# ---------------------------------------------------------------------- #


class TestSearchSpace:
    def test_round_trips_through_its_wire_form(self):
        space = small_space()
        assert SearchSpace.from_dict(space.to_dict()) == space
        assert SearchSpace.from_dict(json.loads(json.dumps(space.to_dict()))) == space

    def test_point_addressing_is_bijective(self):
        space = small_space()
        seen = set()
        for point in range(space.size):
            indices = space.point_indices(point)
            assert space.point_from_indices(indices) == point
            seen.add(indices)
        assert len(seen) == space.size
        values = space.point_values(0)
        assert set(values) == {"scheme", "num_arrays", "l2_compute_ways"}
        with pytest.raises(IndexError):
            space.point_indices(space.size)

    def test_validation_rejects_bad_axes_and_spaces(self):
        with pytest.raises(ValueError, match="unknown axis"):
            Axis("warp_speed", (1, 2))
        with pytest.raises(ValueError, match="no values"):
            Axis("num_arrays", ())
        with pytest.raises(ValueError, match="repeats"):
            Axis("num_arrays", (8, 8))
        with pytest.raises(ValueError, match="unknown scheme 'bit-sideways' "):
            Axis("scheme", ("bit-sideways",))
        with pytest.raises(ValueError, match="unknown DRAM preset"):
            Axis("dram", ("ddr2",))
        with pytest.raises(ValueError, match="unknown kernel 'nope'; available: "):
            SearchSpace(kernel="nope", axes=(Axis("num_arrays", (8,)),))
        with pytest.raises(ValueError, match=r"unknown kind 'avx' \(choose from mve, rvv\)"):
            SearchSpace(kernel="csum", kind="avx", axes=(Axis("num_arrays", (8,)),))
        with pytest.raises(ValueError, match="at least one axis"):
            SearchSpace(kernel="csum", axes=())
        with pytest.raises(ValueError, match="duplicate axes"):
            SearchSpace(
                kernel="csum",
                axes=(Axis("num_arrays", (8,)), Axis("num_arrays", (16,))),
            )

    def test_compiles_to_sweep_specs_covering_exactly_the_point_set(self):
        """The "compiles down to the existing machinery" claim: hand-written
        SweepSpecs over the same grid expand to exactly the point set's
        jobs, so explorer jobs share cache keys with hand-written sweeps."""
        space = small_space()
        point_jobs = {space.job(point) for point in range(space.size)}
        spec_jobs = {
            job
            for ways in (2, 4)
            for job in SweepSpec(
                kernels=[("csum", {"scale": SCALE})],
                schemes=("bit-serial", "bit-parallel"),
                array_counts=(8, 16, 32, 64),
                base_config=dataclasses.replace(default_config(), l2_compute_ways=ways),
            ).jobs()
        }
        assert spec_jobs == point_jobs
        assert len(point_jobs) == space.size

    def test_geometry_axes_reach_the_trace_spec(self):
        """array_cols changes bit-lines and therefore simd_lanes: the
        capture stage must see it, not just the timing model."""
        space = SearchSpace(
            kernel="csum",
            scale=SCALE,
            axes=(Axis("array_cols", (128, 256)),),
        )
        narrow, wide = space.job(0), space.job(1)
        assert narrow.trace_spec() != wide.trace_spec()
        assert narrow.config.simd_lanes != wide.config.simd_lanes

    def test_dram_axis_applies_named_presets(self):
        space = SearchSpace(
            kernel="csum", scale=SCALE, axes=(Axis("dram", ("lpddr4x", "lpddr5")),)
        )
        base, fast = (space.config_for(point) for point in (0, 1))
        assert fast.hierarchy.dram.t_cas < base.hierarchy.dram.t_cas
        # Wire form stays primitive: the preset name, never a struct.
        assert space.to_dict()["axes"][0]["values"] == ["lpddr4x", "lpddr5"]

    def test_describe_names_kernel_and_size(self):
        space = small_space()
        assert "csum" in space.describe() and "16 points" in space.describe()


# ---------------------------------------------------------------------- #
#  ParetoFrontier: dominance, ties, order invariance
# ---------------------------------------------------------------------- #


def member(point: int, cycles: float, area: float, energy: float) -> FrontierPoint:
    metrics = PointMetrics(
        cycles=float(cycles),
        time_us=float(cycles) / 10.0,
        energy=EnergyBreakdown(
            compute_nj=float(energy), data_access_nj=0.0, cpu_nj=0.0, static_nj=0.0
        ),
        area=AreaReport(modules_mm2={"m": float(area)}),
    )
    return FrontierPoint(
        point=point, values={"p": point}, cache_key="ab" * 32, metrics=metrics
    )


class TestParetoFrontier:
    def test_dominated_arrivals_are_rejected_and_prune_on_insert(self):
        frontier = ParetoFrontier()
        assert frontier.update(member(0, 100, 1.0, 50))
        assert not frontier.update(member(1, 110, 1.0, 50))  # dominated
        assert frontier.update(member(2, 90, 0.5, 40))  # dominates point 0
        assert [m.point for m in frontier.points] == [2]

    def test_equal_vectors_are_both_kept(self):
        frontier = ParetoFrontier()
        assert frontier.update(member(0, 100, 1.0, 50))
        assert frontier.update(member(1, 100, 1.0, 50))
        assert [m.point for m in frontier.points] == [0, 1]

    def test_incomparable_points_coexist(self):
        frontier = ParetoFrontier(objectives=("cycles", "area"))
        frontier.update(member(0, 100, 2.0, 0))
        frontier.update(member(1, 200, 1.0, 0))
        assert len(frontier) == 2

    def test_unknown_objectives_are_rejected(self):
        with pytest.raises(ValueError, match="unknown objectives"):
            ParetoFrontier(objectives=("cycles", "beauty"))
        with pytest.raises(ValueError, match="at least one"):
            ParetoFrontier(objectives=())

    def test_repeated_objectives_are_rejected(self, tmp_path):
        """Regression: `--objectives cycles,cycles` ran and exported
        `cycles` twice; it now exits with one `explore: ...` line."""
        with pytest.raises(ValueError, match=r"repeated objectives \['cycles'\]"):
            ParetoFrontier(objectives=("cycles", "area", "cycles"))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(explore_argv(tmp_path, "run", "--objectives", "cycles,cycles"))
        assert excinfo.value.code == "explore: repeated objectives ['cycles']"
        assert not any(tmp_path.glob("*/*.json"))

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)
            ),
            min_size=1,
            max_size=16,
        ),
        st.randoms(use_true_random=False),
    )
    def test_frontier_is_invariant_to_arrival_order(self, vectors, rng):
        members = [
            member(index, cycles, area, energy)
            for index, (cycles, area, energy) in enumerate(vectors)
        ]
        ordered = ParetoFrontier()
        for m in members:
            ordered.update(m)
        shuffled = list(members)
        rng.shuffle(shuffled)
        permuted = ParetoFrontier()
        for m in shuffled:
            permuted.update(m)
        assert frontier_dicts(ordered.points) == frontier_dicts(permuted.points)


# ---------------------------------------------------------------------- #
#  Acceptance: exact frontier, fewer evaluations; resume semantics
# ---------------------------------------------------------------------- #


class TestAdaptiveSearch:
    def test_seed_grid_covers_categories_and_endpoints(self, tmp_path):
        """Round 0 evaluates every category and both endpoints of each
        numeric axis, and nothing else."""
        space = small_space()
        summary = Explorer(space, store=ResultStore(tmp_path / "cache"), jobs=1).run(
            budget=space.size, max_rounds=1
        )
        assert summary.state.stopped == "round limit reached"
        values = [space.point_values(point) for point in summary.state.evaluated]
        assert len(values) == 2 * 2 * 2
        assert {v["scheme"] for v in values} == {"bit-serial", "bit-parallel"}
        assert {v["num_arrays"] for v in values} == {8, 64}  # endpoints only
        assert {v["l2_compute_ways"] for v in values} == {2, 4}

    @pytest.mark.parametrize(
        "space",
        [small_space(), default_space("csum", scale=SCALE)],
        ids=["ci-16", "stock-192"],
    )
    def test_finds_exact_frontier_evaluating_fewer_points(self, space, tmp_path):
        store = ResultStore(tmp_path / "cache")
        summary = Explorer(space, store=store, jobs=1).run(
            budget=space.size, max_rounds=64
        )
        assert summary.state.done
        assert summary.state.stopped == "converged"
        assert len(summary.state.evaluated) < space.size  # measurably fewer
        # Ground truth shares the store, so it only simulates the skipped
        # interior points.
        exact = exhaustive_frontier(space, store=store)
        assert frontier_dicts(summary.state.frontier) == frontier_dicts(exact)

    def test_resumed_search_is_a_zero_simulation_no_op(self, tmp_path):
        space = small_space()
        store = ResultStore(tmp_path / "cache")
        first = Explorer(space, store=store, jobs=1).run(budget=space.size)
        again = Explorer(space, store=store, jobs=1).run(budget=space.size)
        assert again.simulated_this_run == 0
        assert again.state.done
        assert frontier_dicts(again.state.frontier) == frontier_dicts(
            first.state.frontier
        )

    def test_a_search_does_not_depend_on_earlier_runs(self, tmp_path):
        """A budget-16 search after a budget-4 one on the same store
        evaluates what a fresh budget-16 search does, and simulates exactly
        the points the first run did not."""
        space = small_space()
        store = ResultStore(tmp_path / "cache")
        first = Explorer(space, store=store, jobs=1).run(budget=4)
        assert not first.state.done
        assert first.state.stopped == "budget spent"
        assert "1 rounds, budget spent |" in first.describe()
        simulated = []

        def record(job, outcome, completed, total):
            if outcome.source == "computed":
                simulated.append(job)

        second = Explorer(space, store=store, jobs=1).run(
            budget=space.size, on_result=record
        )
        fresh = Explorer(space, store=ResultStore(tmp_path / "fresh"), jobs=1).run(
            budget=space.size
        )
        assert sorted(second.state.evaluated) == sorted(fresh.state.evaluated)
        assert frontier_dicts(second.state.frontier) == frontier_dicts(fresh.state.frontier)
        assert second.state.done == fresh.state.done
        unseen = set(second.state.evaluated) - set(first.state.evaluated)
        assert set(simulated) == set(space.jobs(sorted(unseen)))
        assert second.simulated_this_run == len(unseen)

    def test_store_holds_only_job_results_and_traces(self, tmp_path):
        """A search keeps no record of its own: after it, the store holds
        one result per evaluated point and the traces they replayed."""
        space = small_space()
        store = ResultStore(tmp_path / "cache")
        summary = Explorer(space, store=store, jobs=1).run(budget=space.size)
        jobs = space.jobs(sorted(summary.state.evaluated))
        expected = {job.cache_key() for job in jobs} | {
            job.trace_spec().cache_key() for job in jobs
        }
        stored = {path.stem for path in (tmp_path / "cache").glob("*/*.json")}
        assert stored == expected


KILLED_CHILD = textwrap.dedent(
    """
    import json, os, signal, sys

    from repro.core.cache import ResultStore
    from repro.explore import Explorer, SearchSpace

    cache_dir, space_json = sys.argv[1], sys.argv[2]
    space = SearchSpace.from_dict(json.loads(space_json))
    progress = os.path.join(cache_dir, "progress.log")

    def killer(job, outcome, completed, total):
        with open(progress, "a") as handle:
            handle.write(job.cache_key() + "\\n")
        if sum(1 for _ in open(progress)) == 3:
            os.kill(os.getpid(), signal.SIGKILL)

    Explorer(space, store=ResultStore(cache_dir), jobs=1).run(
        budget=space.size, on_result=killer
    )
    """
)


class TestKillAndResume:
    def test_sigkill_mid_round_resumes_with_zero_resimulation(self, tmp_path):
        """The child is SIGKILLed inside the third on_result callback,
        after those results hit the store.  The rerun replays the same
        proposals, answers the three completed points from the store, and
        converges to the reference frontier having simulated exactly the
        rest."""
        space = small_space()
        reference = Explorer(
            space, store=ResultStore(tmp_path / "reference"), jobs=1
        ).run(budget=space.size)
        total_simulated = reference.simulated_this_run
        assert total_simulated > 3

        victim_dir = tmp_path / "victim"
        victim_dir.mkdir()
        script = tmp_path / "child.py"
        script.write_text(KILLED_CHILD)
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        completed = subprocess.run(
            [
                sys.executable,
                str(script),
                str(victim_dir),
                json.dumps(space.to_dict()),
            ],
            env=env,
            timeout=120,
        )
        assert completed.returncode == -signal.SIGKILL
        survived = len((victim_dir / "progress.log").read_text().splitlines())
        assert survived == 3

        resumed = Explorer(space, store=ResultStore(victim_dir), jobs=1).run(
            budget=space.size
        )
        assert resumed.state.done
        # Zero re-simulation: the three pre-kill results are recalled, so
        # the resumed run simulates exactly the remainder.
        assert resumed.simulated_this_run == total_simulated - survived
        assert frontier_dicts(resumed.state.frontier) == frontier_dicts(
            reference.state.frontier
        )


# ---------------------------------------------------------------------- #
#  Streaming: results persist before each callback
# ---------------------------------------------------------------------- #

STREAM_SPEC = SweepSpec(
    name="explore-stream-mini",
    kernels=[("csum", {"scale": SCALE}), ("memcpy", {"scale": SCALE})],
    schemes=("bit-serial", "bit-parallel"),
)


class TestStreaming:
    def test_stream_results_persist_before_each_callback(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        engine = ParallelSweepEngine(jobs=1, store=store)
        seen = []

        def assert_persisted(job, outcome, completed, total):
            assert store.load(job.cache_key()) is not None
            seen.append(job)

        engine.run_jobs(STREAM_SPEC.jobs(), on_result=assert_persisted)
        assert len(seen) == len(STREAM_SPEC.jobs())


# ---------------------------------------------------------------------- #
#  Serializable-result surface: metrics round trips and export rows
# ---------------------------------------------------------------------- #


class TestMetricsSerialization:
    def test_area_report_round_trips_ignoring_derived_fields(self):
        report = AreaReport(modules_mm2={"tmu": 0.01, "fsm": 0.02})
        data = json.loads(json.dumps(report.to_dict()))
        assert data["total_mm2"] == pytest.approx(report.total_mm2)
        assert data["overhead_percent"] == pytest.approx(report.overhead_percent)
        restored = AreaReport.from_dict(data)
        assert restored == report

    def test_frontier_point_round_trips_through_json(self):
        original = member(5, 120, 0.8, 33)
        restored = FrontierPoint.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored == original
        assert restored.metrics.area.total_mm2 == pytest.approx(0.8)
        assert restored.metrics.energy.total_nj == pytest.approx(33.0)

    def test_export_payload_carries_area_and_energy_per_frontier_point(self, tmp_path):
        space = tiny_space()
        store = ResultStore(tmp_path / "cache")
        explorer = Explorer(space, store=store, jobs=1)
        summary = explorer.run(budget=space.size)
        payload = explore_export_payload(space, summary.state)
        assert payload["explore"]["space_size"] == space.size
        assert payload["explore"]["evaluated"] == len(summary.state.evaluated)
        (first, *_rest) = payload["frontier"]
        assert set(first["metrics"]["area"]) >= {"modules_mm2", "total_mm2"}
        assert "compute_nj" in first["metrics"]["energy"]

        rows = export_rows(payload)
        assert len(rows) == len(payload["frontier"])
        assert "metrics.area.total_mm2" in rows[0]
        assert "metrics.cycles" in rows[0]


# ---------------------------------------------------------------------- #
#  CLI: run, its frontier table and export, rerun summary, schema golden
# ---------------------------------------------------------------------- #

CLI_AXES = [
    "--axis", "scheme=bit-serial,bit-parallel",
    "--axis", "num_arrays=16,32",
    "--axis", "l2_compute_ways=2,4",
]


def explore_argv(cache_dir, action, *extra):
    return [
        "--cache-dir", str(cache_dir), "explore", action, "csum",
        "--scale", str(SCALE), "--jobs", "1",
        *CLI_AXES, *extra,
    ]


class TestExploreCLI:
    def test_summary_names_the_round_limit(self, tmp_path, capsys):
        """CI's 16-point axes stopped by ``--rounds 1`` with budget left
        say so, not that the budget ran out."""
        assert cli_main(
            [
                "--cache-dir", str(tmp_path / "cache"), "explore", "run", "csum",
                "--scale", "0.25", "--jobs", "1", "--no-progress",
                "--axis", "scheme=bit-serial,bit-parallel",
                "--axis", "num_arrays=8,16,32,64",
                "--axis", "l2_compute_ways=2,4",
                "--rounds", "1", "--budget", "999",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("explore csum: frontier ")
        assert "/16 configs" in out
        assert "1 rounds, round limit reached |" in out
        assert "budget" not in out

    def test_run_reports_and_resume_simulates_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert cli_main(explore_argv(cache_dir, "run", "--budget", "8")) == 0
        captured = capsys.readouterr()
        assert "frontier" in captured.out and "simulated this run" in captured.out
        assert "round 0: 8 points (8 simulated)" in captured.err

        assert cli_main(explore_argv(cache_dir, "run", "--budget", "8")) == 0
        captured = capsys.readouterr()
        assert "0 simulated this run" in captured.out

    def test_run_prints_the_frontier_and_inspection_actions_are_gone(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        assert cli_main(
            explore_argv(cache_dir, "run", "--budget", "8", "--no-progress")
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "num_arrays" in out and "l2_compute_ways" in out and "area_mm2" in out

        out_path = tmp_path / "frontier.json"
        assert cli_main(
            explore_argv(
                cache_dir, "run", "--budget", "8", "--no-progress",
                "--export", "json", "--out", str(out_path),
            )
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == 1
        assert payload["explore"]["kernel"] == "csum"
        assert payload["explore"]["simulated"] == 0  # answered from the store
        assert payload["space"]["axes"][0]["name"] == "scheme"
        assert payload["frontier"]

        for action in ("status", "frontier", "export"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(explore_argv(cache_dir, action))
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_csv_export_rows_are_frontier_points(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert cli_main(
            explore_argv(
                cache_dir, "run", "--budget", "8", "--no-progress",
                "--export", "csv",
            )
        ) == 0
        import csv as csv_module

        rows = list(csv_module.DictReader(capsys.readouterr().out.splitlines()))
        assert rows
        assert all(float(row["metrics.cycles"]) > 0 for row in rows)
        assert "metrics.area.total_mm2" in rows[0]

    @pytest.mark.parametrize(
        "flag, value", [("--strategy", "random"), ("--seed", "7"), ("--batch", "16")]
    )
    def test_removed_search_flags_are_rejected(self, flag, value, tmp_path, capsys):
        """There is one search, so nothing chooses a strategy, seeds it or
        sizes its batches."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(explore_argv(tmp_path, "run", flag, value))
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not any(tmp_path.glob("*/*.json"))

    def test_bad_flags_exit_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="bad --axis"):
            cli_main(
                ["--cache-dir", str(tmp_path), "explore", "run", "csum",
                 "--axis", "num_arrays"]
            )
        with pytest.raises(SystemExit, match="unknown axis"):
            cli_main(
                ["--cache-dir", str(tmp_path), "explore", "run", "csum",
                 "--axis", "warp=1,2"]
            )
        with pytest.raises(SystemExit, match="unknown objectives"):
            cli_main(
                explore_argv(tmp_path, "run", "--objectives", "cycles,beauty")
            )

    def test_kernel_without_rvv_lowering_is_rejected_up_front(self, tmp_path):
        """An rvv search over a kernel with no RVV lowering exits with one
        line naming it and the kernels that have one, before any round."""
        cache_dir = tmp_path / "cache"
        argv = ["--cache-dir", str(cache_dir), "explore", "run", "memcpy",
                "--kind", "rvv", "--budget", "4", "--jobs", "1"]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == (
            "explore: memcpy has no RVV lowering; "
            f"kernels with one: {', '.join(rvv_kernel_names())}"
        )
        assert not any(cache_dir.glob("*/*.json"))

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("array_rows=0", "array rows must be positive"),
            (
                "array_rows=8",
                "8-row arrays hold 0 registers of 32-bit elements; "
                "the compiler needs at least 2",
            ),
            ("num_arrays=0", "num_arrays must be positive"),
            ("array_cols=0", "array cols must be positive"),
        ],
    )
    def test_machine_the_model_rejects_exits_with_one_line(self, tmp_path, axis, message):
        """Regression: ``array_rows=0`` or ``=8`` printed a frontier point
        timed on the default register file, and ``num_arrays=0`` or
        ``array_cols=0`` ended in a traceback."""
        argv = ["--cache-dir", str(tmp_path), "explore", "run", "csum",
                "--axis", axis, "--scale", str(SCALE), "--budget", "2",
                "--jobs", "1", "--no-progress"]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == f"explore: {message}"

    def test_scheme_aliases_name_one_search(self, tmp_path, capsys):
        """Regression: `--axis scheme=bs,bp` was rejected although `run
        --schemes bs` accepted the alias.  Aliases now canonicalize, so the
        canonical search after the alias one simulates nothing."""
        cache_dir = tmp_path / "cache"
        shared = ["--axis", "num_arrays=8,16", "--scale", str(SCALE),
                  "--budget", "4", "--jobs", "1", "--no-progress"]
        assert cli_main(
            ["--cache-dir", str(cache_dir), "explore", "run", "csum",
             "--axis", "scheme=bs,bp", *shared]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["--cache-dir", str(cache_dir), "explore", "run", "csum",
             "--axis", "scheme=bit-serial,bit-parallel", *shared]
        ) == 0
        assert "0 simulated this run" in capsys.readouterr().out

    def test_export_schema_matches_golden(self, tmp_path):
        """The frontier export schema is pinned alongside the experiment
        goldens; the outline is value-free, so the small axes here pin the
        same shape the CI default-space smoke exports."""
        cache_dir = tmp_path / "cache"
        out_path = tmp_path / "frontier.json"
        assert cli_main(
            explore_argv(
                cache_dir, "run", "--budget", "8", "--no-progress",
                "--export", "json", "--out", str(out_path),
            )
        ) == 0
        payload = json.loads(out_path.read_text())
        with open(EXPLORE_SCHEMA_GOLDEN) as handle:
            golden = json.load(handle)
        assert _axis_free_outline(schema_outline(payload)) == golden


def _axis_free_outline(outline):
    """The export outline with per-space axis names normalized away: the
    ``values`` dict of a frontier point keys on the searched axes, which
    are configuration, not schema."""
    if isinstance(outline, dict):
        return {
            key: ("axis-values" if key == "values" else _axis_free_outline(value))
            for key, value in outline.items()
        }
    if isinstance(outline, list):
        return [_axis_free_outline(item) for item in outline]
    return outline


# ---------------------------------------------------------------------- #
#  Golden regeneration:
#  PYTHONPATH=src python tests/test_explore.py --update-schema
# ---------------------------------------------------------------------- #


def _update_schema_golden() -> None:
    import tempfile

    cache_dir = tempfile.mkdtemp(prefix="repro-explore-schema-")
    out_path = os.path.join(tempfile.mkdtemp(), "frontier.json")
    argv = explore_argv(
        cache_dir, "run", "--budget", "8", "--no-progress",
        "--export", "json", "--out", out_path,
    )
    assert cli_main(argv) == 0
    with open(out_path) as handle:
        payload = json.load(handle)
    with open(EXPLORE_SCHEMA_GOLDEN, "w") as handle:
        json.dump(
            _axis_free_outline(schema_outline(payload)),
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"updated {EXPLORE_SCHEMA_GOLDEN}")


if __name__ == "__main__":
    if "--update-schema" in sys.argv:
        _update_schema_golden()
    else:
        raise SystemExit(
            "usage: PYTHONPATH=src python tests/test_explore.py --update-schema"
        )
