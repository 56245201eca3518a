#!/usr/bin/env python3
"""Benchmark of the MVE reproduction: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload eval_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` measures an untraced window, then a traced one, and
prints the per-layer metrics (including the tracing overhead).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric with its unit and record the result digest and the host.  See
``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: environment switches that would change what the workloads exercise
_SCRUBBED_ENV = (
    "REPRO_BATCHED_REPLAY",
    "REPRO_CACHE_TOKEN",
    "REPRO_REMOTE_CACHE",
    "REPRO_SCALAR_CACHE",
    "REPRO_SHM_TRACE",
    "REPRO_SWEEP_CACHE_DIR",
    "REPRO_SWEEP_JOBS",
)

EXPERIMENTS = (
    "tables", "figure7", "figure8", "figure9", "figure10", "figure11",
    "figure12", "figure12a", "figure12b", "figure12c", "figure13",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_instr_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("paper_err", "log2"),
)


#: layers reported as ``<layer>.calls`` and ``<layer>.s`` (self time)
TIMED_LAYERS = (
    "addrgen", "compile", "replay.single", "replay.batch", "cache", "dram",
    "baselines", "codec.encode", "codec.decode", "store.load", "store.save", "render",
)


def per_layer_metrics() -> tuple:
    import fidelity

    layers = [(f"exp.{name}.s", "s") for name in EXPERIMENTS]
    layers += [
        ("capture.calls", "count"),
        ("capture.s", "s"),
        ("capture.hidden_calls", "count"),
        ("capture.hidden_s", "s"),
    ]
    for layer in TIMED_LAYERS:
        layers += [(f"{layer}.calls", "count"), (f"{layer}.s", "s")]
    layers += [
        ("compile.memo_hit_ratio", "ratio"),
        ("replay.batch.configs", "count"),
        ("codec.encode.bytes", "bytes"),
        ("store.hit_ratio", "ratio"),
        ("store.save.bytes", "bytes"),
        ("engine.computed", "count"),
        ("engine.captures", "count"),
        ("engine.trace_store_hits", "count"),
        ("engine.batched_replays", "count"),
        ("engine.captures_per_spec", "ratio"),
        ("engine.sim_instructions", "count"),
        ("pool.tasks", "count"),
        ("pool.execute.s", "s"),
        ("read.unaccounted_ms", "ms"),
        ("tracing_overhead", "ratio"),
    ]
    layers += [(f"paper_err.{pair}", "log2") for pair in fidelity.PAIR_NAMES]
    return tuple(layers)


# ---------------------------------------------------------------------- #


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_values(it) -> dict:
    """One traced iteration's per-layer numbers (both phases)."""
    import fidelity

    self_s, calls, counts = {}, {}, {}
    for phase in (it.layers, it.read_layers):
        for table, merged in (("self_s", self_s), ("calls", calls), ("counts", counts)):
            for name, value in phase.get(table, {}).items():
                merged[name] = merged.get(name, 0) + value

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    values = {f"exp.{name}.s": s(f"exp.{name}") for name in EXPERIMENTS}
    values["capture.calls"] = n("capture.plain") + n("capture.hidden")
    values["capture.s"] = s("capture.plain") + s("capture.hidden")
    values["capture.hidden_calls"] = n("capture.hidden")
    values["capture.hidden_s"] = s("capture.hidden")
    for layer in TIMED_LAYERS:
        values[f"{layer}.calls"] = n(layer)
        values[f"{layer}.s"] = s(layer)
    values["replay.batch.configs"] = counts.get("replay.batch.configs", 0)
    values["codec.encode.bytes"] = counts.get("codec.encode.bytes", 0)
    values["store.hit_ratio"] = (
        counts.get("store.load.hits", 0) / n("store.load") if n("store.load") else 0.0
    )
    values["store.save.bytes"] = counts.get("store.save.bytes", 0)
    values.update(it.counters)
    values["engine.sim_instructions"] = it.instructions
    values["pool.tasks"] = n("pool.submit")
    values["pool.execute.s"] = s("pool.execute") + s("pool.submit")

    read = it.read_layers.get("self_s", {})
    in_server = read.get("store.load", 0.0) + read.get("render", 0.0)
    values["read.unaccounted_ms"] = (
        1000 * (median(it.latencies) - in_server / len(it.latencies)) if it.latencies else 0.0
    )
    for pair in fidelity.PAIR_NAMES:
        ratio = it.fidelity.get(pair)
        # -1: the workload's results do not determine this pair
        values[f"paper_err.{pair}"] = fidelity.error(ratio) if ratio is not None else -1.0
    return values


def end_to_end_values(iterations, setup_samples) -> dict:
    import fidelity

    wall = median([it.wall_s for it in iterations])
    latencies = [seconds for it in iterations for seconds in it.latencies]
    ratios = iterations[0].fidelity
    return {
        "setup_s": median(setup_samples),
        "wall_s": wall,
        "sim_instr_per_s": median([it.instructions for it in iterations]) / wall,
        "read_p50_ms": 1000 * median(latencies),
        "read_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "paper_err": fidelity.paper_err(ratios) if ratios else 0.0,
    }


def git_sha() -> str:
    """HEAD of the enclosing git checkout, or "unknown" outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_stamp() -> dict:
    from repro.core.cache import code_fingerprint

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_fingerprint": code_fingerprint()[:16],
        "machine": platform.machine(),
    }


def pinned_mismatches(workload: str, values: dict):
    """Counts that differ from the ones pinned in ``baseline.json`` (None
    when nothing is pinned for ``workload``)."""
    try:
        pinned = json.loads((HERE / "baseline.json").read_text())["pinned"][workload]
    except (OSError, KeyError, ValueError):
        return None
    return [
        f"{name}={values[name]} (pinned {expected})"
        for name, expected in pinned.items()
        if name in values and values[name] != expected
    ]


# ---------------------------------------------------------------------- #


def run_benchmark(args) -> int:
    import fidelity
    import scenarios
    from tracing import LayerTracer

    if args.workload not in scenarios.SCENARIOS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    scenario = scenarios.SCENARIOS[args.workload](work, args.seed)
    tracer = None
    try:
        scenario.prepare()
        setup_samples = scenario.setup_seconds()
        untraced = scenario.measure(args.seconds)
        traced = []
        if args.trace:
            tracer = LayerTracer()
            tracer.install()
            traced = scenario.measure(args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        scenario.finish()
        scenarios.stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    iterations = untraced + traced
    digests = {it.digest for it in iterations}
    scenario.tally.check(len(digests) == 1, "every iteration has the same result digest")
    tally = scenario.tally
    if args.trace:
        per_iteration = [layer_values(it) for it in traced]
        metrics = {
            name: median([values.get(name, 0) for values in per_iteration])
            for name, _ in per_layer_metrics()
        }
        metrics["tracing_overhead"] = (
            median([it.wall_s for it in traced]) / median([it.wall_s for it in untraced])
            - 1
        )
        units = dict(per_layer_metrics())
        mismatches = pinned_mismatches(args.workload, metrics)
    else:
        metrics = end_to_end_values(untraced, setup_samples)
        units = dict(END_TO_END)
        mismatches = pinned_mismatches(args.workload, untraced[0].counters)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
          f" and {len(traced)} traced iterations")
    for label, window in (("untraced", untraced), ("traced", traced)):
        if window:
            reads = sum(len(it.latencies) for it in window)
            print(f"  {label} walls (s): {[round(it.wall_s, 4) for it in window]},"
                  f" {reads} timed reads")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {tally.failed / max(1, tally.attempted):>16.6g} ratio"
          f" ({tally.failed} of {tally.attempted} operations)")
    print(f"result_digest {sorted(digests)[0] if len(digests) == 1 else 'MISMATCH'}")
    if mismatches is not None:
        print("pinned counts: " + ("; ".join(mismatches) or "as in baseline.json"))
    print("fidelity (ours vs the paper):")
    for line in fidelity.table(iterations[0].fidelity):
        print("  " + line)
    if args.trace and args.workload == "sweep_trace_warm":
        print("note: capture/replay/compile/cache/dram run inside the pool workers;"
              " their spans are not visible from the parent and read 0 here")
    print("host " + json.dumps(host_stamp(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_internal(args) -> int:
    """Fixture fills and set-up probes, each in a fresh interpreter."""
    import scenarios

    store = Path(args.store)
    try:
        if args.fill:
            summary = scenarios.fill(args.fill, store)
        else:
            summary = scenarios.probe(
                args.probe, store, args.template and Path(args.template)
            )
    finally:
        scenarios.stop_children()
    print(json.dumps(summary, sort_keys=True))
    return 0


#: ``personality(2)`` flag that turns address-space randomization off
ADDR_NO_RANDOMIZE = 0x0040000


def _personality(persona: int = 0xFFFFFFFF) -> int:
    """``personality(2)``: query (the default) or set this process's
    execution domain; -1 where the call is unavailable."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
    except (OSError, AttributeError):
        return -1
    return libc.personality(persona)


def pin_process_layout(argv) -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` and without address-space
    randomization, unless both already hold (or ASLR cannot be changed).

    Set and dict iteration orders inside the simulator follow the string
    hash seed and, for objects hashed by identity, their addresses; with
    them the peak memory of a cold evaluation moves by up to 15%.  A fixed
    seed and a fixed layout make every run (and its child interpreters)
    take the same path.
    """
    persona = _personality()
    layout_changed = False
    if persona != -1 and not persona & ADDR_NO_RANDOMIZE:
        _personality(persona | ADDR_NO_RANDOMIZE)
        layout_changed = _personality() not in (-1, persona)
    if os.environ.get("PYTHONHASHSEED") == "0" and not layout_changed:
        return
    os.execve(
        sys.executable,
        [sys.executable, str(Path(__file__).resolve()), *argv],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pin_process_layout(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run by the benchmark itself in child interpreters
    parser.add_argument("--fill", help=argparse.SUPPRESS)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--template", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    if args.fill or args.probe:
        return run_internal(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
