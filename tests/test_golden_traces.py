"""Golden-trace regression suite.

Each snapshot under ``tests/golden/`` pins the full observable outcome of
simulating one representative kernel: instruction-category counts, cycle
totals and the energy breakdown.  The suite guards two invariants:

* the serial ``simulate_kernel`` path keeps producing the checked-in
  numbers (any simulator change that shifts results must regenerate the
  snapshots deliberately),
* the parallel sweep engine -- worker processes plus the persistent cache
  -- reproduces the serial numbers bit-for-bit, and
* the reference oracle (``tests/oracle.py``: the per-config simulator over
  the scalar, per-line cache) reproduces them bit-for-bit too.

Regenerate snapshots after an intentional model change with::

    PYTHONPATH=src python tests/test_golden_traces.py --update
"""

import json
from pathlib import Path

import pytest

from repro.core.cache import ResultStore
from repro.experiments.sweep import KernelJob, ParallelSweepEngine, execute_job
from repro.sram.schemes import get_scheme

import oracle

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (kernel, kind, scale, kwargs, scheme) -- spans 1D/2D/3D kernels, strided
#: and random memory access, the RVV lowering and a non-default scheme
GOLDEN_CASES = [
    ("csum", "mve", 0.5, {}, "bit-serial"),
    ("csum", "rvv", 0.5, {}, "bit-serial"),
    ("gemm", "mve", 0.5, {}, "bit-serial"),
    ("gemm", "mve", 0.5, {}, "bit-parallel"),
    ("spmm", "mve", 0.5, {}, "bit-serial"),
    ("dct", "mve", 0.125, {}, "bit-serial"),
    ("png_filter_up", "mve", 0.5, {}, "bit-serial"),
    ("memcpy", "mve", 0.5, {}, "bit-serial"),
]


def case_id(case) -> str:
    kernel, kind, _, _, scheme = case
    return f"{kernel}-{kind}-{scheme}"


def job_for(case) -> KernelJob:
    kernel, kind, scale, kwargs, scheme = case
    return KernelJob(
        kernel=kernel,
        kind=kind,
        scale=scale,
        kwargs=tuple(sorted(kwargs.items())),
        scheme_name=scheme,
    )


def snapshot_path(case) -> Path:
    return GOLDEN_DIR / f"{case_id(case)}.json"


def snapshot_from_outcome(case, outcome) -> dict:
    kernel, kind, scale, kwargs, scheme = case
    result = outcome.result
    return {
        "kernel": kernel,
        "kind": kind,
        "scale": scale,
        "kwargs": kwargs,
        "scheme": scheme,
        "total_cycles": result.total_cycles,
        "idle_cycles": result.idle_cycles,
        "compute_cycles": result.compute_cycles,
        "data_access_cycles": result.data_access_cycles,
        "scalar_instructions": result.scalar_instructions,
        "vector_instructions": dict(result.vector_instructions),
        "spill_instructions": result.spill_instructions,
        "energy": result.energy.to_dict(),
        "energy_total_nj": result.energy.total_nj,
        "dram_bytes": result.dram_bytes,
    }


@pytest.fixture(scope="module")
def serial_outcomes():
    """Every golden case simulated through the plain serial path."""
    return {case_id(case): execute_job(job_for(case)) for case in GOLDEN_CASES}


@pytest.fixture(scope="module")
def parallel_outcomes(tmp_path_factory):
    """The same cases through the parallel engine with a fresh disk store."""
    store = ResultStore(tmp_path_factory.mktemp("sweep-cache"))
    engine = ParallelSweepEngine(jobs=4, store=store)
    return engine.run_jobs([job_for(case) for case in GOLDEN_CASES])


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_serial_matches_golden(case, serial_outcomes):
    path = snapshot_path(case)
    assert path.exists(), f"missing golden snapshot {path}; regenerate with --update"
    golden = json.loads(path.read_text())
    actual = snapshot_from_outcome(case, serial_outcomes[case_id(case)])

    assert actual["vector_instructions"] == golden["vector_instructions"]
    assert actual["scalar_instructions"] == golden["scalar_instructions"]
    assert actual["spill_instructions"] == golden["spill_instructions"]
    assert actual["dram_bytes"] == golden["dram_bytes"]
    for field in ("total_cycles", "idle_cycles", "compute_cycles", "data_access_cycles"):
        assert actual[field] == pytest.approx(golden[field], rel=1e-12), field
    assert actual["energy_total_nj"] == pytest.approx(golden["energy_total_nj"], rel=1e-12)
    for component, value in golden["energy"].items():
        assert actual["energy"][component] == pytest.approx(value, rel=1e-12), component


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_parallel_engine_matches_serial_bit_for_bit(case, serial_outcomes, parallel_outcomes):
    serial = serial_outcomes[case_id(case)]
    parallel = parallel_outcomes[job_for(case)]
    assert parallel.result.to_dict() == serial.result.to_dict()
    assert parallel.spills == serial.spills


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_scalar_cache_reference_matches_golden(case, serial_outcomes):
    """The reference oracle -- per-config simulator on the scalar, per-line
    cache -- reproduces the production golden numbers bit-for-bit."""
    job = job_for(case)
    trace = job.trace_spec().capture().trace
    result, compiled = oracle.simulate_trace(
        trace, config=job.config, scheme=get_scheme(job.scheme_name)
    )
    production = serial_outcomes[case_id(case)]
    assert result.to_dict() == production.result.to_dict()
    assert compiled.spill_count == production.spills


def test_cached_reload_is_bit_for_bit(tmp_path, serial_outcomes):
    """A disk round-trip (simulate, persist, reload) loses nothing."""
    store = ResultStore(tmp_path / "cache")
    engine = ParallelSweepEngine(jobs=1, store=store)
    job = job_for(GOLDEN_CASES[0])
    first = engine.run_one(job)
    assert first.source == "computed"

    reloaded = ParallelSweepEngine(jobs=1, store=store).run_one(job)
    assert reloaded.source == "disk"
    assert reloaded.result.to_dict() == first.result.to_dict()
    assert reloaded.result.to_dict() == serial_outcomes[case_id(GOLDEN_CASES[0])].result.to_dict()


def _update_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in GOLDEN_CASES:
        outcome = execute_job(job_for(case))
        path = snapshot_path(case)
        path.write_text(json.dumps(snapshot_from_outcome(case, outcome), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update_goldens()
    else:
        print(__doc__)
