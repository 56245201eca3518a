"""Declarative experiment registry: every table/figure as an addressable unit.

Each table/figure is one :class:`Experiment` that declares

* its **job set** -- ``specs(options)`` returns the
  :class:`~repro.experiments.sweep.SweepSpec` list the figure module builds
  (``figureN_sweep_spec(options)``), which the CLI's named sweeps share,
  and
* its **assembly** -- ``assemble(runner, options)`` reads the simulated jobs
  back through the :class:`~repro.experiments.runner.ExperimentRunner` and
  turns them into the figure's serializable result dataclass.

Experiment modules register themselves at import time via
:func:`register_experiment`; :func:`run_experiment` is the one call sites
need: it runs the declared job set as one batch on the
:class:`~repro.experiments.sweep.ParallelSweepEngine` (streaming per-job
progress to an optional ``on_result`` callback) before it assembles,
answers whole assembled results from the persistent
:class:`~repro.core.cache.ResultStore` when the options and source
fingerprint match, and caches fresh results there.  ``python -m repro``
exposes the registry as a CLI.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..core.cache import ResultStore, code_fingerprint, config_digest, stable_hash
from ..core.config import MachineConfig, default_config
from ..core.traces import positive_scale
from .runner import ExperimentRunner
from .sweep import (
    KernelJob,
    OnResult,
    ParallelSweepEngine,
    SweepSpec,
    default_job_count,
)

__all__ = [
    "Experiment",
    "ExperimentOptions",
    "all_experiments",
    "assembled_result_payload",
    "build_runner",
    "experiment_catalog",
    "experiment_names",
    "experiment_store_key",
    "get_experiment",
    "register_experiment",
    "run_experiment",
]

#: modules that register experiments on import (one per table/figure)
_EXPERIMENT_MODULES = (
    "repro.experiments.tables",
    "repro.experiments.figure7",
    "repro.experiments.figure8",
    "repro.experiments.figure9",
    "repro.experiments.figure10",
    "repro.experiments.figure11",
    "repro.experiments.figure12",
    "repro.experiments.figure13",
)


@dataclass(frozen=True)
class ExperimentOptions:
    """Caller-tunable knobs shared by every experiment.

    ``scale`` is honoured only by experiments with ``uses_scale=True`` (the
    fixed-shape sweeps pin the paper's dataset sizes); ``config=None`` means
    the runner's machine configuration.  Construction validates and
    canonicalizes ``scale`` (a finite float above zero, else
    ``ValueError``), so ``scale=1`` and ``scale=1.0`` key one result.
    """

    scale: float = 0.5
    config: Optional[MachineConfig] = None

    def __post_init__(self):
        object.__setattr__(self, "scale", positive_scale(self.scale))

    def resolved_config(self) -> MachineConfig:
        return self.config if self.config is not None else default_config()

    def to_dict(self) -> dict:
        """The options as the JSON dict used in cache keys and exports."""
        return {"scale": self.scale, "config": config_digest(self.resolved_config())}


@dataclass(frozen=True)
class Experiment:
    """One table/figure of the evaluation, runnable over the sweep engine."""

    name: str
    description: str
    #: result dataclass with ``to_dict``/``from_dict`` (ResultStore payload)
    result_type: type
    #: turns the already-run jobs into the result; must only request jobs
    #: that ``specs`` declares, so the two can never drift apart
    assemble: Callable[[ExperimentRunner, ExperimentOptions], Any] = field(repr=False)
    #: the declarative job set; empty for analytic/static experiments
    specs: Callable[[ExperimentOptions], tuple[SweepSpec, ...]] = field(
        default=lambda options: (), repr=False
    )
    #: whether ``options.scale`` changes the job set
    uses_scale: bool = False

    def sweep_specs(self, options: Optional[ExperimentOptions] = None) -> tuple[SweepSpec, ...]:
        return tuple(self.specs(options or ExperimentOptions()))

    def jobs(self, options: Optional[ExperimentOptions] = None) -> list[KernelJob]:
        """The engine job set, deduplicated across this experiment's specs."""
        expanded: list[KernelJob] = []
        for spec in self.sweep_specs(options):
            expanded.extend(spec.jobs())
        return list(dict.fromkeys(expanded))

    def warm_command(self, options: ExperimentOptions) -> str:
        """The CLI command that stores this experiment's result for
        ``options`` -- the hint every read-only consumer gives on a miss."""
        command = f"python -m repro run {self.name}"
        if self.uses_scale:
            command += f" --scale {options.scale:g}"
        return command

    def cache_key(self, options: ExperimentOptions) -> str:
        """Identity of the assembled result in the persistent store."""
        encoded = options.to_dict()
        if not self.uses_scale:
            # Fixed-shape experiments ignore --scale; keying on it would
            # store duplicate results under distinct keys.
            del encoded["scale"]
        return stable_hash(
            {
                "experiment": self.name,
                "fingerprint": code_fingerprint(),
                "options": encoded,
            }
        )


_REGISTRY: dict[str, Experiment] = {}


def register_experiment(
    name: str,
    description: str,
    result_type: type,
    assemble: Callable[[ExperimentRunner, ExperimentOptions], Any],
    specs: Optional[Callable[[ExperimentOptions], tuple[SweepSpec, ...]]] = None,
    uses_scale: bool = False,
) -> Experiment:
    """Register (or replace) one experiment; returns the registered record."""
    experiment = Experiment(
        name=name,
        description=description,
        result_type=result_type,
        assemble=assemble,
        specs=specs if specs is not None else (lambda options: ()),
        uses_scale=uses_scale,
    )
    _REGISTRY[name] = experiment
    return experiment


def _ensure_registered() -> None:
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)


def _natural_key(name: str) -> tuple:
    return tuple(int(part) if part.isdigit() else part for part in re.split(r"(\d+)", name))


def experiment_names() -> list[str]:
    """Registered experiment names in natural order (figure7 < figure10)."""
    _ensure_registered()
    return sorted(_REGISTRY, key=_natural_key)


def all_experiments() -> list[Experiment]:
    return [_REGISTRY[name] for name in experiment_names()]


def get_experiment(name: str) -> Experiment:
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(experiment_names())}"
        ) from None


def experiment_store_key(name: str, options: Optional[ExperimentOptions] = None) -> str:
    """Where ``name``'s assembled result lives in the store, without running
    anything -- the address readers (the read API, the static exporter)
    resolve before deciding whether a result is available."""
    return get_experiment(name).cache_key(options or ExperimentOptions())


def assembled_result_payload(name: str, record) -> Optional[dict]:
    """The validated raw ``result`` dict inside a store record for ``name``.

    The one stored-document path of the read API and ``repro export``.
    Returns the payload only when it parses as the experiment's result type;
    serving the stored dict verbatim (rather than re-serializing the parsed
    object) keeps both byte-identical to the CLI export for free, because
    ``to_dict``/``from_dict`` round trips are bit-exact.
    """
    experiment = get_experiment(name)
    if not isinstance(record, dict):
        return None
    payload = record.get("result")
    if not isinstance(payload, dict):
        return None
    try:
        experiment.result_type.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    return payload


def experiment_catalog(
    contains: Callable[[str], bool], options: Optional[ExperimentOptions] = None
) -> list[dict]:
    """One availability row per registered experiment.

    ``contains`` is a store backend's existence probe; availability is
    reported per store key, so the catalog tells a reader exactly which
    documents ``GET /v1/experiments/<name>`` would answer right now.
    """
    options = options or ExperimentOptions()
    rows = []
    for experiment in all_experiments():
        key = experiment.cache_key(options)
        rows.append(
            {
                "name": experiment.name,
                "description": experiment.description,
                "uses_scale": experiment.uses_scale,
                "jobs": len(experiment.jobs(options)),
                "key": key,
                "available": bool(contains(key)),
            }
        )
    return rows


def build_runner(
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    config: Optional[MachineConfig] = None,
    default_scale: float = 0.5,
) -> ExperimentRunner:
    """An :class:`ExperimentRunner` over a sweep engine -- the standard
    stack the CLI, the benchmark session and the example scripts share.

    ``jobs`` defaults to :func:`default_job_count`; one job slot runs
    in-process, more use the engine's persistent local process pool.
    """
    engine = ParallelSweepEngine(
        jobs=default_job_count() if jobs is None else jobs, store=store
    )
    return ExperimentRunner(config=config, default_scale=default_scale, engine=engine)


def run_experiment(
    name: str,
    runner: Optional[ExperimentRunner] = None,
    options: Optional[ExperimentOptions] = None,
    on_result: Optional[OnResult] = None,
):
    """Run one registered experiment end to end and return its result.

    The declared job set runs as a single engine batch (sharded over worker
    processes when the runner's engine has ``jobs > 1``), with ``on_result``
    streaming per-job progress, before the experiment assembles.  The
    store is the runner's (a runner built here uses
    :meth:`ResultStore.default`): the assembled result itself is answered
    from / persisted to it as ``{"result": to_dict()}``, keyed by
    experiment name, options and the source fingerprint; a stored result
    that no longer deserializes is a miss, reassembled and overwritten.  A
    storeless runner stores nothing.
    """
    experiment = get_experiment(name)
    options = options or ExperimentOptions()
    if runner is None:
        runner = build_runner(store=ResultStore.default(), config=options.config)
    if options.config is None:
        options = replace(options, config=runner.config)
    elif options.config != runner.config:
        # The spec/assemble contract keys every job on the runner's config;
        # honour an explicit override by rebinding the runner (sharing its
        # engine, so memo and store stay warm).
        runner = ExperimentRunner(
            config=options.config,
            default_scale=runner.default_scale,
            engine=runner.engine,
        )
    store = runner.engine.store
    key = experiment.cache_key(options)
    record = store.load(key) if store is not None else None
    if record is not None:
        try:
            return experiment.result_type.from_dict(record["result"])
        except (KeyError, TypeError, ValueError):
            pass
    jobs = experiment.jobs(options)
    if jobs:
        runner.engine.run_jobs(jobs, on_result=on_result)
    result = experiment.assemble(runner, options)
    if store is not None:
        store.store(key, {"result": result.to_dict()})
    return result
