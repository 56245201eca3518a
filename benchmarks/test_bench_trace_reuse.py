"""Structural checks for the staged trace pipeline.

The staged engine exists so a multi-config sweep runs the functional
machine once per distinct trace and replays the capture per configuration
(sharing the compiled kernel when the register-file geometry matches).
These checks count captures; they time nothing.
"""

from repro.experiments.sweep import ParallelSweepEngine, SweepSpec
from repro.sram.schemes import SCHEME_NAMES

#: capture-heavy kernels swept over every compute scheme: 12 timing runs
#: but only 3 distinct traces
SPEC = SweepSpec(
    name="trace-reuse",
    kernels=[
        ("gemm", {"scale": 0.5}),
        ("satd", {"scale": 0.25}),
        ("memcpy", {"scale": 0.5}),
    ],
    schemes=SCHEME_NAMES,
)


def test_staged_sweep_captures_once_per_spec():
    jobs = SPEC.jobs()
    engine = ParallelSweepEngine(jobs=1, store=None)
    outcomes = engine.run_jobs(jobs)
    assert len(outcomes) == len(jobs)
    assert engine.traces_captured == len({job.trace_spec() for job in jobs})


def test_warm_trace_store_skips_every_capture(tmp_path):
    """With traces already in the store (e.g. after a timing-model edit
    rolled the result keys but not the functional fingerprint), a sweep
    replays without a single functional-machine run."""
    from repro.core.cache import ResultStore

    jobs = SPEC.jobs()
    store = ResultStore(tmp_path)
    ParallelSweepEngine(jobs=1, store=store).run_jobs(jobs)

    # Drop the results, keep the trace artifacts.
    trace_keys = {job.trace_spec().cache_key() for job in jobs}
    for path in tmp_path.glob("*/*.json"):
        if path.stem not in trace_keys:
            path.unlink()

    replay = ParallelSweepEngine(jobs=1, store=ResultStore(tmp_path))
    outcomes = replay.run_jobs(jobs)
    assert len(outcomes) == len(jobs)
    assert replay.computed == len(jobs)  # results really were cold
    assert replay.traces_captured == 0
    assert replay.trace_store_hits == len(trace_keys)
