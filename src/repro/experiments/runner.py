"""The query layer experiment assemblers read through.

``run_mve``/``run_rvv`` resolve a :class:`KernelJob` keyed by the *full*
machine configuration (compute scheme included), the kernel and its
parameters on the :class:`ParallelSweepEngine`, which answers from its
memo or persistent store before it simulates, and return the engine's
:class:`~repro.experiments.sweep.JobOutcome` (result, spills, source).
``run_neon``/``run_gpu`` evaluate the analytic baseline models on a kernel's
work profile: they are cheap, so they are computed on every call and never
stored.  The runner itself keeps no state beyond its configuration and its
engine.
"""

from __future__ import annotations

from typing import Optional

from ..baselines.gpu import GPUModel, GPUResult
from ..baselines.neon import NeonModel, NeonResult
from ..baselines.profile import KernelProfile
from ..core.config import MachineConfig, default_config
from .sweep import JobOutcome, KernelJob, ParallelSweepEngine

__all__ = ["ExperimentRunner"]


class ExperimentRunner:
    """Runs kernels on the MVE simulator (via the engine) and the baseline models."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        default_scale: float = 0.5,
        engine: Optional[ParallelSweepEngine] = None,
    ):
        self.config = config or default_config()
        self.default_scale = default_scale
        self.engine = engine if engine is not None else ParallelSweepEngine()

    def job(
        self,
        name: str,
        kind: str = "mve",
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        **kernel_kwargs,
    ) -> KernelJob:
        """The fully-resolved simulation job for one runner request."""
        return KernelJob(
            kernel=name,
            kind=kind,
            scale=scale if scale is not None else self.default_scale,
            kwargs=kernel_kwargs,
            config=config or self.config,
        )

    def captured_trace(self, job: KernelJob):
        """The capture-stage trace for ``job``, via the engine's trace cache.

        Experiments that consume raw instruction streams (the Duality Cache
        transform of figure12a) must use this instead of calling
        ``Kernel.capture`` directly: the capture is answered from the
        engine's trace memo / the persistent trace store and is counted like
        any other capture.
        """
        return self.engine.captured_trace(job.trace_spec())

    def run_mve(
        self,
        name: str,
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        **kernel_kwargs,
    ) -> JobOutcome:
        """Simulate the MVE implementation of a kernel."""
        return self.engine.run_one(
            self.job(name, "mve", scale=scale, config=config, **kernel_kwargs)
        )

    def run_rvv(
        self,
        name: str,
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        **kernel_kwargs,
    ) -> JobOutcome:
        """Simulate the 1D (RVV) lowering of a kernel on the same engine."""
        return self.engine.run_one(
            self.job(name, "rvv", scale=scale, config=config, **kernel_kwargs)
        )

    def profile(
        self, name: str, scale: Optional[float] = None, **kernel_kwargs
    ) -> KernelProfile:
        """A kernel's ISA-independent work profile (FLOPs, bytes moved),
        read from a freshly prepared instance: an analytic query, so the
        functional machine never runs for it."""
        from ..workloads import get_kernel_class

        scale = scale if scale is not None else self.default_scale
        kernel = get_kernel_class(name)(scale=scale, **kernel_kwargs)
        kernel.setup()
        return kernel.profile()

    def run_neon(
        self,
        name: str,
        scale: Optional[float] = None,
        config: Optional[MachineConfig] = None,
        **kernel_kwargs,
    ) -> NeonResult:
        """The Neon baseline for a kernel (its cache traffic streams through
        the same hierarchy model the MVE replay uses)."""
        profile = self.profile(name, scale, **kernel_kwargs)
        return NeonModel(config or self.config).run(profile)

    def run_gpu(self, name: str, scale: Optional[float] = None, **kernel_kwargs) -> GPUResult:
        """The mobile-GPU baseline for a kernel, host transfer included."""
        return GPUModel().run(self.profile(name, scale, **kernel_kwargs))
