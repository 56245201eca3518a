"""Shared helpers for the experiment modules (one module per table/figure).

The runner sits on top of the :class:`ParallelSweepEngine`: every MVE/RVV
simulation becomes a :class:`KernelJob` keyed by the *full* machine
configuration, the scheme, the kernel and its parameters, so results are
memoized in-process (and, when a persistent store is attached, on disk)
without any risk of two different configurations aliasing the same entry.
``run_mve``/``run_rvv`` return the engine's
:class:`~repro.experiments.sweep.JobOutcome` (result, spills, source), and
the baseline models (Neon/GPU) cache through the same store.  Experiments
that know their job set up front call :meth:`ExperimentRunner.prefetch` so
a pooled engine can shard the batch across worker processes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..baselines.gpu import GPUModel, GPUResult
from ..baselines.neon import NeonModel, NeonResult
from ..baselines.profile import KernelProfile
from ..core.cache import (
    code_fingerprint,
    config_digest,
    load_cached_result,
    stable_hash,
    store_cached_result,
)
from ..core.config import MachineConfig, default_config
from ..workloads.base import Kernel
from .sweep import JobOutcome, KernelJob, ParallelSweepEngine

__all__ = ["ExperimentRunner"]


class ExperimentRunner:
    """Runs kernels on the MVE simulator and the baseline models, with caching."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        default_scale: float = 0.5,
        engine: Optional[ParallelSweepEngine] = None,
    ):
        self.config = config or default_config()
        self.default_scale = default_scale
        self.engine = engine if engine is not None else ParallelSweepEngine()
        self._kernel_cache: dict = {}
        #: baseline results by cache key, mirroring the engine's job memo so
        #: repeated run_neon/run_gpu calls never re-read the persistent store
        self._baseline_memo: dict = {}

    # ------------------------------------------------------------------ #

    def _get_kernel(self, name: str, scale: float, **kwargs) -> Kernel:
        key = (name, scale, tuple(sorted(kwargs.items())))
        if key not in self._kernel_cache:
            from ..workloads import get_kernel_class

            kernel = get_kernel_class(name)(scale=scale, **kwargs)
            kernel.setup()
            self._kernel_cache[key] = kernel
        return self._kernel_cache[key]

    def job(
        self,
        name: str,
        kind: str = "mve",
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        scheme_name: Optional[str] = None,
        **kernel_kwargs,
    ) -> KernelJob:
        """The fully-resolved simulation job for one runner request."""
        scale = scale if scale is not None else self.default_scale
        config = config or self.config
        scheme_name = scheme_name or config.scheme_name
        return KernelJob(
            kernel=name,
            kind=kind,
            scale=scale,
            kwargs=tuple(sorted(kernel_kwargs.items())),
            scheme_name=scheme_name,
            config=config,
        )

    def captured_trace(self, job: KernelJob):
        """The capture-stage trace for ``job``, via the engine's trace cache.

        Experiments that consume raw instruction streams (the Duality Cache
        transform of figure12a) must use this instead of calling
        ``kernel.trace_mve`` directly: the capture is answered from the
        engine's trace memo / the persistent trace store and is counted like
        any other capture.
        """
        return self.engine.captured_trace(job.trace_spec())

    def prefetch(self, jobs: Iterable[KernelJob]) -> None:
        """Execute a batch of jobs up front (in parallel on a pooled engine).

        Subsequent ``run_mve``/``run_rvv`` calls for the same jobs answer
        from the engine memo; experiments call this with their full job set
        so the serial result-assembly loop below stays trivially cheap.
        """
        self.engine.run_jobs(list(jobs))

    def run_mve(
        self,
        name: str,
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        scheme_name: Optional[str] = None,
        **kernel_kwargs,
    ) -> JobOutcome:
        """Simulate the MVE implementation of a kernel."""
        return self.engine.run_one(
            self.job(name, "mve", scale=scale, config=config, scheme_name=scheme_name, **kernel_kwargs)
        )

    def run_rvv(
        self,
        name: str,
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        scheme_name: Optional[str] = None,
        **kernel_kwargs,
    ) -> JobOutcome:
        """Simulate the 1D (RVV) lowering of a kernel on the same engine."""
        return self.engine.run_one(
            self.job(name, "rvv", scale=scale, config=config, scheme_name=scheme_name, **kernel_kwargs)
        )

    def profile(
        self, name: str, scale: Optional[float] = None, **kernel_kwargs
    ) -> KernelProfile:
        """A kernel's ISA-independent work profile (FLOPs, bytes moved),
        read from its prepared instance: an analytic query, so the
        functional machine never runs for it."""
        scale = scale if scale is not None else self.default_scale
        return self._get_kernel(name, scale, **kernel_kwargs).profile()

    # -- baseline models (persistent-cached like the simulator jobs) ------ #

    def _baseline_key(
        self, baseline: str, name: str, scale: float, extra: dict, config: MachineConfig
    ) -> str:
        """Cache key mirroring :meth:`KernelJob.cache_key`: full config,
        kernel identity and the source-tree fingerprint."""
        return stable_hash(
            {
                "baseline": baseline,
                "fingerprint": code_fingerprint(),
                "kernel": name,
                "scale": scale,
                "extra": sorted(extra.items()),
                "config": config_digest(config),
            }
        )

    def _baseline_run(self, key: str, result_type, compute):
        """Memo -> persistent store -> ``compute()``, mirroring the engine's
        lookup order for simulation jobs."""
        memo = self._baseline_memo.get(key)
        if memo is not None:
            return memo
        result = load_cached_result(self.engine.store, key, result_type)
        if result is None:
            result = compute()
            store_cached_result(self.engine.store, key, result)
        self._baseline_memo[key] = result
        return result

    def run_neon(
        self,
        name: str,
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        **kernel_kwargs,
    ) -> NeonResult:
        """The Neon baseline for a kernel, answered from the in-process memo
        or the persistent store when possible (its cache traffic runs on the
        same engine as the MVE simulations, so recomputation is no longer
        trivial)."""
        scale = scale if scale is not None else self.default_scale
        config = config or self.config
        key = self._baseline_key("neon", name, scale, dict(kernel_kwargs), config)
        return self._baseline_run(
            key,
            NeonResult,
            lambda: NeonModel(config).run(self.profile(name, scale, **kernel_kwargs)),
        )

    def run_gpu(
        self,
        name: str,
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        include_transfer: bool = True,
        **kernel_kwargs,
    ) -> GPUResult:
        scale = scale if scale is not None else self.default_scale
        config = config or self.config
        key = self._baseline_key(
            "gpu", name, scale, {"include_transfer": include_transfer, **kernel_kwargs}, config
        )
        return self._baseline_run(
            key,
            GPUResult,
            lambda: GPUModel().run(
                self.profile(name, scale, **kernel_kwargs),
                include_transfer=include_transfer,
            ),
        )
