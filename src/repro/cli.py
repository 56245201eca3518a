"""Unified experiment CLI:
``python -m repro {list,run,trace,explore,cache,serve,export,queue,worker}``.

Every table/figure of the paper is a registered experiment; ``run`` executes
one end to end (sharded over worker processes, answered from the persistent
result store when warm) and can export the serialized result:

    python -m repro list
    python -m repro run figure7 --export json --out figure7.json
    python -m repro run tables --export csv

Raw kernel sweeps are available via ``--sweep`` (a named job set without
result assembly) or ad-hoc axes::

    python -m repro run --sweep figure7 --jobs 4
    python -m repro run --kernels gemm,csum --schemes bit-serial,bit-parallel \
        --kinds mve,rvv --scale 0.25 --jobs 8

``trace`` runs only the pipeline's capture stage: it records (or recalls
from the trace cache) a kernel's MVE/RVV instruction trace and reports its
dynamic instruction mix, without ever touching the timing simulator::

    python -m repro trace list
    python -m repro trace capture gemm --kind mve --scale 0.5
    python -m repro trace stats gemm
    python -m repro trace diff gemm --against kind=rvv
    python -m repro trace diff csum --against scale=0.25,lanes=4096

``explore`` searches the machine-configuration space adaptively for the
Pareto frontier of cycles vs area vs energy, checkpointing after every
round so a killed search resumes with zero re-simulation::

    python -m repro explore run csum --budget 128 --seed 7
    python -m repro explore status csum --seed 7
    python -m repro explore frontier csum --seed 7
    python -m repro explore export csum --seed 7 --export csv

Per-job progress streams to stderr as results complete (``--no-progress``
disables it).  ``cache`` shows or clears the persistent store (location:
``$REPRO_SWEEP_CACHE_DIR`` or ``~/.cache/repro-sweep``); ``--no-cache``
bypasses it for one run.

Multi-machine sweeps share one cache through the HTTP cache service::

    python -m repro serve --port 8750                  # on one machine
    python -m repro run figure7 --remote-cache http://cachehost:8750
    REPRO_REMOTE_CACHE=http://cachehost:8750 python -m repro run figure7

With a remote cache configured, reads try the local directory first and
fall through to the service (populating the local tier); writes go to
both.  An unreachable or failing service degrades to local-only operation
after a single warning.  ``cache`` then reports both tiers (including the
coordinator queue, when one is active); ``cache sync`` bulk-pushes local
entries the service is missing.

The service also exposes a token-free read API for result consumers:
``GET /v1/experiments`` lists registered experiments with availability and
``GET /v1/experiments/<name>`` serves the assembled result byte-identical
to the CLI export, with ETag/304 revalidation, ``Accept``-driven JSON/CSV
negotiation and ``offset``/``limit`` pagination.  ``export`` renders the
same documents into a static dataset directory without simulating::

    python -m repro export --all --out repro-export

The same service doubles as a sweep *coordinator* (fleet mode)::

    python -m repro serve --port 8750 --token s3cret   # coordinator
    python -m repro queue figure7 --coordinator http://cachehost:8750 \
        --token s3cret
    python -m repro worker --coordinator http://cachehost:8750 \
        --token s3cret --drain                          # on N machines

``queue`` expands an experiment into leaseable partitions; each
``worker`` drains them through the ordinary sweep engine, publishing
results via the shared store, so the union of the fleet's work is
bit-identical to a single-machine run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .core.cache import ResultStore
from .experiments.export import (
    EXPORT_SCHEMA_VERSION,
    columns as _columns,
    experiment_export_payload,
    explore_export_payload,
    export_rows as _export_rows,
    export_static_dataset,
    render_payload,
    rows_to_csv as _rows_to_csv,
    schema_outline,
    sweep_export_payload,
)
from .experiments.registry import (
    ExperimentOptions,
    all_experiments,
    experiment_names,
    get_experiment,
    run_experiment,
)
from .experiments.serialize import result_rows
from .experiments.sweep import (
    JobOutcome,
    KernelJob,
    OnResult,
    ParallelSweepEngine,
    SweepResult,
    SweepSpec,
    default_job_count,
)
from .experiments.tables import format_table, table3_libraries
from .explore import AXIS_NAMES, STRATEGY_NAMES
from .sram.schemes import SCHEME_NAMES, get_scheme
from .workloads import kernel_names

__all__ = [
    "EXPORT_SCHEMA_VERSION",
    "experiment_export_payload",
    "explore_export_payload",
    "main",
    "named_sweep",
    "named_sweep_names",
    "render_payload",
    "run_sweep",
    "schema_outline",
    "sweep_export_payload",
]


# ---------------------------------------------------------------------- #
#  Named sweeps (raw job sets)
# ---------------------------------------------------------------------- #


def _own_sweep_spec(experiment, scale: float = 0.5) -> Optional[SweepSpec]:
    """The experiment's job set as one raw sweep carrying its own name.

    Experiments spanning several specs (figure12) or borrowing another
    figure's runs (figure11 reuses figure10's spec) are not addressable as
    raw sweeps -- a ``--sweep figure11`` export would otherwise be labelled
    "figure10"."""
    specs = experiment.sweep_specs(ExperimentOptions(scale=scale))
    if len(specs) == 1 and specs[0].name == experiment.name:
        return specs[0]
    return None


def named_sweep_names() -> list[str]:
    """Experiments whose job set is expressible as one raw sweep."""
    return [
        experiment.name
        for experiment in all_experiments()
        if _own_sweep_spec(experiment) is not None
    ]


def named_sweep(name: str, scale: float = 0.5) -> SweepSpec:
    """One of the predefined evaluation sweeps by name.

    The spec comes straight from the owning experiment's registration, so
    the raw-sweep job set can never drift from the experiment's.
    """
    try:
        experiment = get_experiment(name)
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {', '.join(named_sweep_names())}"
        ) from None
    spec = _own_sweep_spec(experiment, scale=scale)
    if spec is None:
        raise KeyError(
            f"experiment {name!r} is not a single raw sweep; "
            f"run it as an experiment or pick one of: {', '.join(named_sweep_names())}"
        )
    return spec


def run_sweep(
    spec: SweepSpec,
    engine: Optional[ParallelSweepEngine] = None,
    on_result: Optional[OnResult] = None,
) -> SweepResult:
    """Execute every job of ``spec`` on ``engine`` and time the batch."""
    engine = engine or ParallelSweepEngine(jobs=default_job_count(), store=ResultStore.default())
    start = time.perf_counter()
    outcomes = engine.run_jobs(spec.jobs(), on_result=on_result)
    return SweepResult(spec=spec, outcomes=outcomes, elapsed_s=time.perf_counter() - start)


# ---------------------------------------------------------------------- #
#  Exports
# ---------------------------------------------------------------------- #
#
# The payload builders and renderers live in repro.experiments.export (the
# read API and static exporter share them); the historical names stay
# importable from here.


def _write_export(payload: dict, fmt: str, out_path: Optional[str]) -> None:
    data = render_payload(payload, fmt)
    if out_path:
        # Binary mode on purpose: the rendered CSV bytes already carry the
        # RFC-4180 \r\n terminators, and a text-mode write would double
        # them to \r\r\n on platforms with newline translation.
        with open(out_path, "wb") as handle:
            handle.write(data)
        print(f"wrote {fmt} export to {out_path}")
    else:
        sys.stdout.write(data.decode("utf-8"))


# ---------------------------------------------------------------------- #
#  Subcommands
# ---------------------------------------------------------------------- #


def _remote_url_for(args: argparse.Namespace) -> Optional[str]:
    return getattr(args, "remote_cache", None) or ResultStore.default_remote_url()


def _store_for(args: argparse.Namespace) -> ResultStore:
    root = Path(args.cache_dir) if args.cache_dir else ResultStore.default_dir()
    return ResultStore(root, remote=_remote_url_for(args))


def _progress(stream: TextIO) -> OnResult:
    def on_result(job: KernelJob, outcome: JobOutcome, completed: int, total: int) -> None:
        print(f"[{completed}/{total}] {job.describe():<52} {outcome.source}", file=stream)

    return on_result


def _cmd_list(args: argparse.Namespace) -> int:
    print("Experiments (python -m repro run NAME):")
    for experiment in all_experiments():
        jobs = len(experiment.jobs())
        jobs_note = f"{jobs:>4} jobs" if jobs else "  static"
        scale_note = (
            "" if experiment.uses_scale or not jobs else " (fixed shapes; ignores --scale)"
        )
        print(f"  {experiment.name:<10} {jobs_note}  {experiment.description}{scale_note}")
    print(
        "\nNamed sweeps (raw job tables, `run --sweep NAME`): "
        + ", ".join(named_sweep_names())
    )
    print("\nKernels by library (Table III):")
    rows = [
        [row["library"], row["domain"], row["dims"], ", ".join(row["kernels"])]
        for row in table3_libraries()
    ]
    print(format_table(["library", "domain", "dims", "kernels"], rows))
    store = _store_for(args)
    print(f"\nCache: {store.root} ({len(store)} entries)")
    return 0


def _print_remote_status(store: ResultStore) -> None:
    """Status lines for the remote tier, when one is configured."""
    remote = store.remote
    if remote is None:
        return
    stats = remote.stats()
    if stats is None:
        print(f"Remote: {remote.base_url} (unreachable)")
        return
    auth_note = ", token auth" if stats.get("auth") else ""
    print(
        f"Remote: {remote.base_url} ({stats.get('entries', 0)} entries, "
        f"{stats.get('hits_served', 0)} hits served, "
        f"{stats.get('puts', 0)} puts accepted{auth_note})"
    )
    queue = stats.get("queue")
    if isinstance(queue, dict):
        print(
            f"Queue:  {queue.get('pending', 0)} pending, "
            f"{queue.get('leased', 0)} leased, "
            f"{queue.get('completed', 0)} completed "
            f"({queue.get('requeued', 0)} requeued), "
            f"{queue.get('workers', 0)} active workers, "
            f"lease TTL {queue.get('lease_ttl_s', 0)}s"
        )


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _store_for(args)
    action = getattr(args, "action", "info")
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached results from {store.root}")
        if store.remote is not None:
            print(f"note: remote tier at {store.remote.base_url} left untouched")
    elif action == "sync":
        return _cache_sync(store)
    else:
        print(f"Cache: {store.root} ({len(store)} entries)")
        _print_remote_status(store)
    return 0


def _cache_sync(store: ResultStore, chunk: int = 200) -> int:
    """Bulk-push local entries the remote tier is missing.

    One ``POST /v1/keys`` existence probe plus one ``POST /v1/entries``
    upload per ``chunk`` keys -- warming a fresh coordinator from a laptop
    costs a handful of round trips, not one PUT per record.
    """
    remote = store.remote
    if remote is None:
        raise SystemExit("cache sync: no remote cache configured "
                         "(--remote-cache or $REPRO_REMOTE_CACHE)")
    probe = getattr(remote, "contains_batch", None)
    push = getattr(remote, "store_batch", None)
    if probe is None or push is None:
        raise SystemExit("cache sync: the remote tier does not support bulk transfer")
    local = getattr(store.backend, "local", store.backend)
    keys = sorted(local.keys()) if hasattr(local, "keys") else []
    pushed = present = failed = 0
    for start in range(0, len(keys), chunk):
        batch = keys[start : start + chunk]
        have = probe(batch)
        missing = [key for key in batch if not have.get(key)]
        present += len(batch) - len(missing)
        records = {}
        for key in missing:
            record = local.load(key)
            if isinstance(record, dict):
                records[key] = record
        stored = push(records) if records else []
        pushed += len(stored)
        failed += len(records) - len(stored)
        if getattr(remote, "dead", False):
            print(f"cache sync: remote went unreachable after {pushed} uploads")
            return 1
    print(
        f"cache sync: {pushed} entries pushed to {remote.base_url} "
        f"({present} already present, {failed} rejected, {len(keys)} local)"
    )
    return 0 if failed == 0 else 1


def _trace_artifact(trace_store, spec):
    """Load ``spec``'s artifact from the trace cache, capturing (and
    caching) on a miss -- the columnar encode happens exactly once per
    capture and never on a cache hit.  Returns (artifact, payload, source).
    """
    from .core.traces import TraceArtifact

    payload = trace_store.load_payload(spec)
    if payload is not None:
        try:
            return TraceArtifact.from_payload(spec, payload), payload, "cache"
        except (KeyError, TypeError, ValueError):
            pass  # corrupt entry: recapture below
    start = time.perf_counter()
    try:
        artifact = spec.capture()
    except NotImplementedError:
        raise SystemExit(
            f"trace: {spec.kernel} has no {spec.kind} lowering"
        ) from None
    elapsed_s = time.perf_counter() - start
    payload = artifact.to_payload()
    trace_store.save_payload(spec, payload)
    return artifact, payload, f"captured in {elapsed_s:.2f}s"


def _against_spec(base, text: str):
    """The ``trace diff --against`` spec: the base spec with key=value
    overrides (keys: kernel, kind, scale, lanes) applied."""
    from .core.traces import TraceSpec

    fields = {
        "kernel": base.kernel,
        "kind": base.kind,
        "scale": base.scale,
        "lanes": base.simd_lanes,
    }
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in fields:
            raise SystemExit(
                f"trace diff: bad --against entry {item!r} "
                f"(expected key=value with keys: {', '.join(fields)})"
            )
        fields[key] = value.strip()
    kernel = str(fields["kernel"])
    if kernel not in kernel_names():
        raise SystemExit(f"trace diff: unknown kernel {kernel!r}")
    kind = str(fields["kind"])
    if kind not in ("mve", "rvv"):
        raise SystemExit(f"trace diff: unknown kind {kind!r} (choose mve or rvv)")
    try:
        scale = float(fields["scale"])
        lanes = int(fields["lanes"])
    except ValueError:
        raise SystemExit(
            f"trace diff: --against scale must be a number and lanes an integer"
        ) from None
    return TraceSpec(kernel=kernel, kind=kind, scale=scale, simd_lanes=lanes)


def _print_trace_diff(spec, artifact, source, against, other, other_source) -> None:
    """Side-by-side dynamic-instruction-mix comparison of two traces."""
    base_stats, other_stats = artifact.stats(), other.stats()
    print(f"base:    {spec.describe()}: {len(artifact)} trace entries [{source}]")
    print(f"against: {against.describe()}: {len(other)} trace entries [{other_source}]")

    def ratio(a: int, b: int) -> str:
        if a == 0:
            return "-" if b == 0 else "new"
        return f"{b / a:.2f}x"

    base_mix, other_mix = base_stats.as_dict(), other_stats.as_dict()
    rows = [
        [
            category,
            base_mix[category],
            other_mix[category],
            f"{other_mix[category] - base_mix[category]:+d}",
            ratio(base_mix[category], other_mix[category]),
        ]
        for category in ("config", "move", "memory", "arithmetic")
    ]
    rows.append(
        [
            "vector total",
            base_stats.vector_total,
            other_stats.vector_total,
            f"{other_stats.vector_total - base_stats.vector_total:+d}",
            ratio(base_stats.vector_total, other_stats.vector_total),
        ]
    )
    rows.append(
        [
            "scalar",
            base_stats.scalar,
            other_stats.scalar,
            f"{other_stats.scalar - base_stats.scalar:+d}",
            ratio(base_stats.scalar, other_stats.scalar),
        ]
    )
    print("\nDynamic instruction mix:")
    print(format_table(["category", "base", "against", "delta", "ratio"], rows))

    opcodes = sorted(
        set(base_stats.opcodes) | set(other_stats.opcodes),
        key=lambda op: (
            -max(base_stats.opcodes.get(op, 0), other_stats.opcodes.get(op, 0)),
            op,
        ),
    )
    print("\nPer-opcode counts:")
    print(
        format_table(
            ["opcode", "base", "against", "delta"],
            [
                [
                    op,
                    base_stats.opcodes.get(op, 0),
                    other_stats.opcodes.get(op, 0),
                    f"{other_stats.opcodes.get(op, 0) - base_stats.opcodes.get(op, 0):+d}",
                ]
                for op in opcodes
            ],
        )
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace {list,capture,stats,diff}``: the capture stage without the
    timing simulator.

    Captures go through the same :class:`TraceStore` namespace the sweep
    engine uses, so a ``trace capture`` warms the cache for later sweeps and
    a sweep's capture makes ``trace stats`` instant.  ``diff`` compares the
    dynamic instruction mix of two captures of the same extraction (base
    spec vs ``--against`` overrides).
    """
    from .core.config import default_config
    from .core.traces import TraceSpec, TraceStore
    from .isa.trace_io import trace_payload_bytes
    from .workloads import get_kernel_class
    from .workloads.base import Kernel

    store = None if args.no_cache else _store_for(args)
    trace_store = TraceStore(store)
    lanes = args.lanes if args.lanes else default_config().simd_lanes

    if args.action == "list":
        rows = []
        for name in kernel_names():
            cls = get_kernel_class(name)
            supports_rvv = cls.run_rvv is not Kernel.run_rvv
            spec = TraceSpec(
                kernel=name, kind=args.kind, scale=args.scale, simd_lanes=lanes
            )
            cached = (
                args.kind == "mve" or supports_rvv
            ) and trace_store.contains_locally(spec)
            rows.append(
                [
                    name,
                    cls.library,
                    cls.dims,
                    cls.dtype.name,
                    "yes" if supports_rvv else "",
                    "yes" if cached else "",
                ]
            )
        print(f"Kernel traces (scale={args.scale}, {lanes} lanes, kind={args.kind}):")
        print(format_table(["kernel", "library", "dims", "dtype", "rvv", "cached"], rows))
        if store is not None:
            print(f"\nTrace cache: {store.root} (shared with simulation results)")
        return 0

    if not args.kernel:
        raise SystemExit(f"trace {args.action}: pass a kernel name (see `trace list`)")
    if args.kernel not in kernel_names():
        raise SystemExit(f"trace: unknown kernel {args.kernel!r}")
    spec = TraceSpec(
        kernel=args.kernel, kind=args.kind, scale=args.scale, simd_lanes=lanes
    )

    if args.action == "diff":
        if not args.against:
            raise SystemExit(
                "trace diff: pass --against key=value[,key=value...] "
                "(keys: kernel, kind, scale, lanes)"
            )
        against = _against_spec(spec, args.against)
        artifact, _, source = _trace_artifact(trace_store, spec)
        other, _, other_source = _trace_artifact(trace_store, against)
        _print_trace_diff(spec, artifact, source, against, other, other_source)
        return 0

    artifact, payload, source = _trace_artifact(trace_store, spec)
    print(f"{spec.describe()}: {len(artifact)} trace entries [{source}]")
    print(f"key: {spec.cache_key()}")
    if args.action == "capture":
        print(f"payload: {trace_payload_bytes(payload['trace'])} bytes (columnar npz)")
        return 0

    stats = artifact.stats()
    mix = stats.as_dict()
    print("\nDynamic instruction mix:")
    print(
        format_table(
            ["category", "count", "share"],
            [
                [category, mix[category], f"{mix[category] / max(1, stats.vector_total):.1%}"]
                for category in ("config", "move", "memory", "arithmetic")
            ],
        )
    )
    print(f"vector total: {stats.vector_total}")
    print(
        f"scalar: {stats.scalar} "
        f"({stats.scalar_loads} loads, {stats.scalar_stores} stores)"
    )
    print("\nPer-opcode counts:")
    ranked = sorted(stats.opcodes.items(), key=lambda item: (-item[1], item[0]))
    print(format_table(["opcode", "count"], [[op, count] for op, count in ranked]))

    if args.configs:
        _print_config_batching(args.configs, args.kernel, args.scale)
    return 0


def _print_config_batching(sweep_name: str, kernel: str, scale: float) -> None:
    """``trace stats KERNEL --configs SWEEP``: how the named sweep's
    configurations for this kernel collapse into batched replays."""
    from .experiments.sweep import batch_partitions

    try:
        sweep_spec = named_sweep(sweep_name, scale=scale)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"trace stats --configs: {error.args[0]}") from None

    groups: dict = {}
    for job in sweep_spec.jobs():
        if job.kernel == kernel:
            groups.setdefault(job.trace_spec(), []).append(job)
    if not groups:
        print(f"\nSweep {sweep_name!r} has no jobs for kernel {kernel!r}.")
        return

    print(f"\nConfig batching for sweep {sweep_name!r}:")
    rows = [
        [spec.describe(), len(jobs), len(batch_partitions(jobs))]
        for spec, jobs in groups.items()
    ]
    print(format_table(["trace", "configs", "batched replays"], rows))


def _token_for(args: argparse.Namespace) -> Optional[str]:
    return getattr(args, "token", None) or os.environ.get("REPRO_CACHE_TOKEN") or None


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.cache_service import CacheServer

    root = Path(args.cache_dir) if args.cache_dir else ResultStore.default_dir()
    token = _token_for(args)
    try:
        server = CacheServer(
            (args.host, args.port),
            root=root,
            verbose=args.verbose,
            token=token,
            lease_ttl_s=args.lease_ttl,
        )
    except (OSError, OverflowError) as error:
        # Port in use, privileged/out-of-range port, unresolvable host, ...
        raise SystemExit(f"serve: cannot bind {args.host}:{args.port}: {error}") from None
    host, port = server.server_address[:2]
    print(f"repro cache service listening on http://{host}:{port}")
    print(f"store: {root} ({len(server.backend)} entries)")
    print(
        f"fleet: job queue enabled (lease TTL {server.queue.lease_ttl_s:g}s), "
        f"auth {'on' if token else 'off (mutations open; set --token)'}"
    )
    print("point workers at it with --remote-cache or $REPRO_REMOTE_CACHE")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


def _coordinator_url_for(args: argparse.Namespace) -> str:
    url = getattr(args, "coordinator", None) or _remote_url_for(args)
    if not url:
        raise SystemExit(
            f"{args.command}: pass --coordinator URL (or set $REPRO_REMOTE_CACHE)"
        )
    return url


def _cmd_queue(args: argparse.Namespace) -> int:
    from .core.coordinator import CoordinatorClient, CoordinatorError

    url = _coordinator_url_for(args)
    client = CoordinatorClient(url, token=_token_for(args))
    try:
        summary = client.enqueue(args.experiment, scale=args.scale)
    except CoordinatorError as error:
        raise SystemExit(f"queue: coordinator rejected the request: {error}") from None
    if summary is None:
        raise SystemExit(f"queue: coordinator {url} unreachable")
    print(
        f"queued {summary.get('queued', 0)} partitions of "
        f"{args.experiment} ({summary.get('jobs', 0)} jobs, "
        f"{summary.get('already_queued', 0)} already queued) on {client.base_url}"
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .core.coordinator import CoordinatorError
    from .worker import run_worker, write_report

    url = _coordinator_url_for(args)
    try:
        report = run_worker(
            url,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            worker_id=args.id,
            token=_token_for(args),
            poll_s=args.poll,
            drain=args.drain,
            max_partitions=args.max_partitions,
            log=lambda message: print(message, file=sys.stderr),
        )
    except CoordinatorError as error:
        raise SystemExit(f"worker: coordinator rejected the request: {error}") from None
    if args.summary:
        write_report(report, args.summary)
    simulated = len(report.simulated_keys())
    print(
        f"worker {report.worker}: {report.acked} partitions acked "
        f"({report.stale_acks} stale, {report.mismatched} mismatched), "
        f"{simulated} jobs simulated"
    )
    if report.coordinator_lost:
        print(f"worker {report.worker}: coordinator lost; degraded to local-only")
        # Work already done is safe (store tiers); signal the supervisor
        # only when this run achieved nothing at all.
        return 1 if not report.partitions else 0
    return 0


def _space_from_args(args: argparse.Namespace):
    """The :class:`SearchSpace` the explore subcommand operates on: the
    stock grid unless ``--axis NAME=V1,V2`` flags spell out a custom one."""
    from .explore import Axis, SearchSpace, default_space

    kernel = args.kernel or "csum"
    try:
        if not args.axis:
            return default_space(kernel=kernel, scale=args.scale, kind=args.kind)
        axes = []
        for text in args.axis:
            name, sep, values = text.partition("=")
            if not sep:
                raise ValueError(f"bad --axis {text!r} (expected NAME=V1,V2,...)")
            parsed: list = []
            for raw in values.split(","):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    parsed.append(int(raw))
                except ValueError:
                    parsed.append(raw)
            axes.append(Axis(name.strip(), tuple(parsed)))
        return SearchSpace(
            kernel=kernel, axes=tuple(axes), kind=args.kind, scale=args.scale
        )
    except ValueError as error:
        raise SystemExit(f"explore: {error}") from None


def _cmd_explore(args: argparse.Namespace) -> int:
    """``explore {run,status,frontier,export}``: adaptive Pareto search.

    ``run`` searches (resuming any checkpoint for the same space, seed,
    strategy and objectives); the other actions inspect the checkpointed
    :class:`SearchState` without simulating anything.
    """
    from .explore import Explorer

    space = _space_from_args(args)
    objectives = tuple(
        name.strip() for name in args.objectives.split(",") if name.strip()
    )
    coordinator = None
    if args.coordinator:
        from .core.coordinator import CoordinatorClient

        coordinator = CoordinatorClient(args.coordinator, token=_token_for(args))
    try:
        explorer = Explorer(
            space,
            store=_store_for(args),
            jobs=args.jobs,
            strategy=args.strategy,
            seed=args.seed,
            objectives=objectives,
            batch=args.batch,
            coordinator=coordinator,
            log=None
            if args.no_progress
            else (lambda message: print(message, file=sys.stderr)),
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(f"explore: {error}") from None

    if args.action == "run":
        if not args.no_progress:
            print(f"exploring {space.describe()}", file=sys.stderr)
        on_result = None if args.no_progress else _progress(sys.stderr)
        summary = explorer.run(
            budget=args.budget, max_rounds=args.rounds, on_result=on_result
        )
        line = f"explore {space.kernel} [{args.strategy}]: {summary.describe()}"
        if args.export:
            payload = explore_export_payload(
                space, summary.state, elapsed_s=summary.elapsed_s
            )
            _write_export(payload, args.export, args.out)
            print(line, file=sys.stderr)
        else:
            print(line)
        return 0

    state = explorer.load_state()
    if state is None:
        raise SystemExit(
            f"explore {args.action}: no saved search for this space/seed/"
            "strategy/objectives (run `explore run` first)"
        )

    if args.action == "export":
        payload = explore_export_payload(space, state)
        _write_export(payload, args.export or "json", args.out)
        return 0

    if args.action == "status":
        status = "converged" if state.done else "resumable"
        print(f"{space.describe()}")
        print(
            f"strategy {state.strategy}, seed {state.seed}, "
            f"objectives {', '.join(state.objectives)}"
        )
        print(
            f"evaluated {len(state.evaluated)}/{space.size} configs "
            f"({state.simulated_total} simulated ever), frontier "
            f"{len(state.frontier)} points, {len(state.rounds)} rounds [{status}]"
        )
        if state.rounds:
            print()
            print(
                format_table(
                    ["round", "proposed", "simulated", "frontier", "changed"],
                    [
                        [
                            record.index,
                            record.proposed,
                            record.simulated,
                            record.frontier_size,
                            "yes" if record.frontier_changed else "",
                        ]
                        for record in state.rounds
                    ],
                )
            )
        return 0

    # frontier: the surviving points with their axis values and objectives
    axis_names = [axis.name for axis in space.axes]
    rows = [
        [member.point]
        + [member.values.get(name, "") for name in axis_names]
        + [
            f"{member.metrics.cycles:.0f}",
            f"{member.metrics.time_us:.2f}",
            f"{member.metrics.area.total_mm2:.4f}",
            f"{member.metrics.energy.total_nj:.1f}",
        ]
        for member in state.frontier
    ]
    print(f"Pareto frontier ({len(rows)} points, {', '.join(state.objectives)}):")
    print(
        format_table(
            ["point", *axis_names, "cycles", "time_us", "area_mm2", "energy_nj"],
            rows,
        )
    )
    return 0


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    scale = 0.5 if args.scale is None else args.scale
    if args.sweep:
        try:
            spec = named_sweep(args.sweep, scale=scale)
        except KeyError as error:
            raise SystemExit(f"run: {error.args[0]}") from None
        if args.scale is not None and not get_experiment(args.sweep).uses_scale:
            print(
                f"note: sweep {args.sweep!r} uses the paper's fixed dataset shapes; "
                f"--scale {args.scale} is ignored",
                file=sys.stderr,
            )
        return spec
    if not args.kernels:
        raise SystemExit("run: pass an experiment name, --sweep NAME or --kernels a,b,c")
    requested = [name.strip() for name in args.kernels.split(",") if name.strip()]
    unknown = sorted(set(requested) - set(kernel_names()))
    if unknown:
        raise SystemExit(f"unknown kernels: {', '.join(unknown)}")
    kinds = tuple(kind.strip() for kind in args.kinds.split(",") if kind.strip())
    bad_kinds = sorted(set(kinds) - {"mve", "rvv"})
    if bad_kinds:
        raise SystemExit(f"unknown kinds: {', '.join(bad_kinds)} (choose from mve, rvv)")
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    for scheme in schemes:
        try:
            get_scheme(scheme)
        except ValueError:
            raise SystemExit(
                f"unknown scheme {scheme!r} (choose from {', '.join(SCHEME_NAMES)})"
            ) from None
    return SweepSpec(
        name="custom",
        kernels=[(name, {"scale": scale}) for name in requested],
        kinds=kinds,
        schemes=schemes,
        default_scale=scale,
    )


def _print_sweep(sweep: SweepResult, args: argparse.Namespace, store) -> None:
    rows = sorted(sweep.outcomes.items(), key=lambda item: (item[0].kernel, item[0].kind))
    header = (
        f"{'kernel':<12} {'kind':<4} {'scheme':<13} {'cycles':>12} "
        f"{'time_us':>10} {'energy_nj':>12} {'src':>8}"
    )
    print(header)
    print("-" * len(header))
    for job, outcome in rows:
        result = outcome.result
        print(
            f"{job.kernel:<12} {job.kind:<4} {job.scheme_name:<13} "
            f"{result.total_cycles:>12.0f} {result.time_us:>10.2f} "
            f"{result.energy_nj:>12.1f} {outcome.source:>8}"
        )
    cache_note = "cache disabled" if store is None else f"cache at {store.root}"
    if store is not None and store.remote is not None:
        cache_note += f" + remote {store.remote.base_url}"
    print(
        f"\n{sweep.spec.name}: {len(sweep.outcomes)} jobs in {sweep.elapsed_s:.2f}s "
        f"({sweep.computed} simulated, {sweep.from_cache} from cache, "
        f"--jobs {args.jobs}, {cache_note})"
    )


def _print_experiment_result(name: str, result, elapsed_s: float) -> None:
    data = result.to_dict()
    sections: dict[str, list[dict]] = {}
    for row in result_rows(data):
        sections.setdefault(row.pop("section"), []).append(row)
    for section, rows in sections.items():
        if section == "summary":
            print(f"\n{name} summary:")
            (row,) = rows
            for key, value in row.items():
                print(f"  {key} = {value}")
            continue
        columns = _columns(rows)
        print(f"\n{name}.{section}:")
        print(format_table(columns, [[row.get(c, "") for c in columns] for row in rows]))
    print(f"\n{name}: assembled in {elapsed_s:.2f}s")


def _cmd_run(args: argparse.Namespace) -> int:
    store = None if args.no_cache else _store_for(args)
    on_result = None if args.no_progress else _progress(sys.stderr)

    name = args.name
    if name and (args.sweep or args.kernels):
        raise SystemExit(
            "run: pass either an experiment name or --sweep/--kernels, not both"
        )
    if name:
        try:
            get_experiment(name)
        except KeyError as error:
            raise SystemExit(f"run: {error.args[0]}") from None
        from .experiments.registry import build_runner

        options = ExperimentOptions(scale=0.5 if args.scale is None else args.scale)
        if args.scale is not None and not get_experiment(name).uses_scale:
            print(
                f"note: experiment {name!r} uses the paper's fixed dataset shapes; "
                f"--scale {args.scale} is ignored",
                file=sys.stderr,
            )
        runner = build_runner(jobs=args.jobs, store=store, default_scale=options.scale)
        start = time.perf_counter()
        result = run_experiment(
            name,
            runner=runner,
            options=options,
            use_cache=not args.no_cache,
            on_result=on_result,
        )
        elapsed_s = time.perf_counter() - start
        payload = experiment_export_payload(
            name, ExperimentOptions(scale=options.scale, config=runner.config), result
        )
        if args.export:
            _write_export(payload, args.export, args.out)
        else:
            _print_experiment_result(name, result, elapsed_s)
        return 0

    spec = _spec_from_args(args)
    engine = ParallelSweepEngine(jobs=args.jobs, store=store)
    sweep = run_sweep(spec, engine, on_result=on_result)
    if args.export:
        _write_export(sweep_export_payload(sweep), args.export, args.out)
    else:
        _print_sweep(sweep, args, store)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """``export [NAMES...|--all]``: the static dataset surface.

    Renders already-assembled results from the store into a directory of
    JSON + CSV + ``index.json`` -- never simulating; a cold store fails
    with one "not in store" line per missing experiment.
    """
    if args.all_experiments:
        names = experiment_names()
    else:
        names = list(dict.fromkeys(args.names))
    if not names:
        raise SystemExit("export: pass experiment names or --all")
    unknown = sorted(set(names) - set(experiment_names()))
    if unknown:
        raise SystemExit(
            f"export: unknown experiments: {', '.join(unknown)} "
            f"(available: {', '.join(experiment_names())})"
        )
    store = _store_for(args)
    options = ExperimentOptions(scale=args.scale)
    manifest, missing = export_static_dataset(store, args.out, names, options)
    if missing:
        for entry in missing:
            hint = f"python -m repro run {entry['name']}"
            if get_experiment(entry["name"]).uses_scale:
                hint += f" --scale {args.scale:g}"
            print(
                f"export: {entry['name']}: not in store "
                f"(key {entry['key'][:12]}...); warm it with `{hint}`",
                file=sys.stderr,
            )
        print(
            f"export: nothing written ({len(missing)} of {len(names)} "
            f"experiments missing from {store.root})",
            file=sys.stderr,
        )
        return 1
    total_bytes = sum(
        entry["bytes"]["json"] + entry["bytes"]["csv"]
        for entry in manifest["experiments"]
    )
    print(
        f"exported {len(manifest['experiments'])} experiments to {args.out} "
        f"({total_bytes} bytes + index.json, zero simulation)"
    )
    return 0


# ---------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments and kernel sweeps, with "
        "parallel execution, persistent caching and JSON/CSV export.",
    )
    parser.add_argument("--cache-dir", default=None, help="override the persistent cache directory")
    parser.add_argument(
        "--remote-cache", default=None, metavar="URL",
        help="shared cache service to read through / write back to "
        "(default: $REPRO_REMOTE_CACHE; start one with `serve`)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listp = sub.add_parser("list", help="show experiments, sweeps, kernels and cache status")
    listp.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    listp.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    run = sub.add_parser("run", help="run an experiment or a raw kernel sweep")
    run.add_argument(
        "name", nargs="?", default=None,
        help=f"experiment to run ({', '.join(experiment_names())})",
    )
    run.add_argument("--sweep", help=f"raw named sweep ({', '.join(named_sweep_names())})")
    run.add_argument("--kernels", help="comma-separated kernel names for an ad-hoc sweep")
    run.add_argument("--kinds", default="mve", help="comma-separated lowerings (mve,rvv)")
    run.add_argument("--schemes", default="bit-serial", help="comma-separated compute schemes")
    run.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale (default 0.5; ignored by fixed-shape experiments, see `list`)",
    )
    run.add_argument(
        "--jobs", type=int, default=default_job_count(), help="worker processes (default: cores)"
    )
    run.add_argument("--no-cache", action="store_true", help="bypass the persistent cache")
    run.add_argument(
        "--export", choices=("json", "csv"), default=None,
        help="export the result instead of printing the human-readable view",
    )
    run.add_argument("--out", default=None, help="write the export to this path (default: stdout)")
    run.add_argument(
        "--no-progress", action="store_true", help="do not stream per-job progress to stderr"
    )
    run.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    run.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    cache = sub.add_parser(
        "cache", help="show, clear or sync the persistent result cache"
    )
    cache.add_argument(
        "action", nargs="?", choices=("info", "clear", "sync"), default="info",
        help="info: report tiers (and the coordinator queue); "
        "clear: delete local entries; sync: bulk-push local entries the "
        "remote service is missing",
    )
    cache.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    cache.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    trace = sub.add_parser(
        "trace",
        help="capture and inspect kernel traces without running the timing simulator",
    )
    trace.add_argument("action", choices=("list", "capture", "stats", "diff"))
    trace.add_argument("kernel", nargs="?", default=None, help="kernel name (see `trace list`)")
    trace.add_argument("--kind", choices=("mve", "rvv"), default="mve", help="lowering to capture")
    trace.add_argument("--scale", type=float, default=0.5, help="dataset scale (default 0.5)")
    trace.add_argument(
        "--lanes", type=int, default=None,
        help="SIMD lane count (default: the base configuration's engine width)",
    )
    trace.add_argument(
        "--against", metavar="KEY=VALUE[,...]", default=None,
        help="with `diff`: compare the base trace against the spec with "
        "these overrides applied (keys: kernel, kind, scale, lanes)",
    )
    trace.add_argument(
        "--configs", metavar="SWEEP", default=None,
        help="with `stats`: report how many configurations of the named "
        "sweep share one batched replay of this kernel's trace",
    )
    trace.add_argument(
        "--no-cache", action="store_true", help="capture fresh, bypassing the trace cache"
    )
    trace.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    trace.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    explorep = sub.add_parser(
        "explore",
        help="adaptive Pareto search over the machine-configuration space",
    )
    explorep.add_argument(
        "action", choices=("run", "status", "frontier", "export"),
        help="run: search (resumes any checkpoint); status/frontier/export: "
        "inspect the checkpointed state without simulating",
    )
    explorep.add_argument(
        "kernel", nargs="?", default="csum", help="kernel to explore (default: csum)"
    )
    explorep.add_argument(
        "--kind", choices=("mve", "rvv"), default="mve", help="lowering to search over"
    )
    explorep.add_argument("--scale", type=float, default=0.5, help="dataset scale (default 0.5)")
    explorep.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2,...", default=None,
        help="add a search axis (repeatable; default: the stock scheme x "
        f"num_arrays x l2_compute_ways x dram grid); names: {', '.join(AXIS_NAMES)}",
    )
    explorep.add_argument(
        "--strategy", choices=STRATEGY_NAMES, default="frontier",
        help="sampling strategy (default: frontier-neighborhood refinement)",
    )
    explorep.add_argument("--seed", type=int, default=0, help="deterministic search seed")
    explorep.add_argument(
        "--objectives", default="cycles,area,energy",
        help="comma-separated Pareto objectives: cycles, time_us, area, energy "
        "(default: cycles,area,energy)",
    )
    explorep.add_argument(
        "--budget", type=int, default=64,
        help="stop after this many evaluated configs, resumable (default: 64)",
    )
    explorep.add_argument("--rounds", type=int, default=64, help="max search rounds (default: 64)")
    explorep.add_argument(
        "--batch", type=int, default=16, help="per-round proposal cap (default: 16)"
    )
    explorep.add_argument(
        "--jobs", type=int, default=default_job_count(),
        help="worker processes (default: cores)",
    )
    explorep.add_argument(
        "--coordinator", metavar="URL", default=None,
        help="drain each round through this fleet coordinator's worker pool "
        "before falling back to local simulation",
    )
    explorep.add_argument(
        "--token", default=None,
        help="coordinator auth token (default: $REPRO_CACHE_TOKEN)",
    )
    explorep.add_argument(
        "--export", choices=("json", "csv"), default=None,
        help="export the frontier instead of printing the human-readable view",
    )
    explorep.add_argument(
        "--out", default=None, help="write the export to this path (default: stdout)"
    )
    explorep.add_argument(
        "--no-progress", action="store_true",
        help="do not stream per-round/per-job progress to stderr",
    )
    explorep.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    explorep.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    exportp = sub.add_parser(
        "export",
        help="render warm experiment results into a static dataset directory "
        "(JSON + CSV + index manifest; never simulates)",
    )
    exportp.add_argument(
        "names", nargs="*", default=[],
        help=f"experiments to export ({', '.join(experiment_names())})",
    )
    exportp.add_argument(
        "--all", action="store_true", dest="all_experiments",
        help="export every registered experiment",
    )
    exportp.add_argument(
        "--out", default="repro-export", metavar="DIR",
        help="output directory (default: repro-export)",
    )
    exportp.add_argument(
        "--scale", type=float, default=0.5,
        help="dataset scale of the stored results to export (default 0.5)",
    )
    exportp.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    exportp.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    serve = sub.add_parser(
        "serve",
        help="serve the result cache over HTTP and coordinate fleet sweeps",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8750, help="port to listen on (default: 8750; 0 = ephemeral)"
    )
    serve.add_argument("--verbose", action="store_true", help="log every request to stderr")
    serve.add_argument(
        "--token", default=None,
        help="require this token on every mutating request "
        "(default: $REPRO_CACHE_TOKEN; unset leaves mutations open)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="SECONDS",
        help="seconds a leased partition survives without a worker "
        "heartbeat before it is requeued (default: 60)",
    )
    serve.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    queuep = sub.add_parser(
        "queue", help="enqueue an experiment's partitions on a coordinator"
    )
    queuep.add_argument(
        "experiment", help=f"experiment to enqueue ({', '.join(experiment_names())})"
    )
    queuep.add_argument(
        "--coordinator", metavar="URL", default=None,
        help="coordinator URL (default: --remote-cache / $REPRO_REMOTE_CACHE)",
    )
    queuep.add_argument(
        "--scale", type=float, default=0.5,
        help="dataset scale for scale-honouring experiments (default 0.5)",
    )
    queuep.add_argument(
        "--token", default=None,
        help="coordinator auth token (default: $REPRO_CACHE_TOKEN)",
    )
    queuep.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    queuep.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    workerp = sub.add_parser(
        "worker", help="drain leased sweep partitions from a coordinator"
    )
    workerp.add_argument(
        "--coordinator", metavar="URL", default=None,
        help="coordinator URL (default: --remote-cache / $REPRO_REMOTE_CACHE)",
    )
    workerp.add_argument(
        "--jobs", type=int, default=default_job_count(),
        help="worker processes per partition replay (default: cores)",
    )
    workerp.add_argument("--id", default=None, help="worker id (default: host-pid)")
    workerp.add_argument(
        "--token", default=None,
        help="coordinator auth token (default: $REPRO_CACHE_TOKEN)",
    )
    workerp.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="idle poll interval while the queue is empty (default: 1)",
    )
    workerp.add_argument(
        "--drain", action="store_true",
        help="exit once the queue is fully drained instead of polling forever",
    )
    workerp.add_argument(
        "--max-partitions", type=int, default=None, metavar="N",
        help="stop after processing N partitions",
    )
    workerp.add_argument(
        "--summary", default=None, metavar="PATH",
        help="write a JSON report of processed partitions (and which jobs "
        "this worker actually simulated) to PATH",
    )
    workerp.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    workerp.add_argument("--remote-cache", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "queue":
        return _cmd_queue(args)
    if args.command == "worker":
        return _cmd_worker(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
