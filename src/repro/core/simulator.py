"""Trace-driven cycle-accounting simulator for the MVE architecture.

This is the reproduction's stand-in for the paper's in-house cycle-accurate
simulator.  It consumes a compiled MVE instruction trace and models:

* the scalar core issuing scalar blocks and MVE instructions in program
  order (ROB-head issue, write-buffer backpressure),
* the MVE controller instruction queue decoupling the core from the engine,
* control blocks executing in-SRAM micro-ops with latencies from the
  configured compute scheme (bit-serial by default),
* vector memory accesses flowing through the L2/LLC/DRAM hierarchy with
  MSHR-limited parallelism, and through the Transpose Memory Unit, and
* the resulting energy, following the classification of Figure 7.

The output is a :class:`~repro.core.results.SimulationResult` whose cycle
breakdown (idle / compute / data access), instruction counts and utilization
metrics feed every experiment of Section VII.

The timing model is the config-batched replay of :mod:`repro.core.replay`;
the functions here are its entry points, and a single configuration is a
batch of one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..compiler.pipeline import CompiledKernel, compile_trace
from ..isa.instructions import TraceEntry
from ..sram.schemes import ComputeScheme, get_scheme
from .config import MachineConfig, default_config
from .replay import register_file_for, replay_trace, simulate_trace_batch
from .results import SimulationResult

__all__ = ["simulate_kernel", "simulate_trace", "simulate_trace_batch"]


def simulate_kernel(
    trace: Sequence[TraceEntry],
    config: Optional[MachineConfig] = None,
    scheme: Optional[ComputeScheme] = None,
    compile_first: bool = True,
    warm_cache: bool = True,
) -> tuple[SimulationResult, Optional[CompiledKernel]]:
    """Compile a raw trace (scheduler + register allocation) and simulate it.

    ``compile_first=False`` times the trace exactly as given (it must
    already be compiled, or be a transformed trace such as Duality Cache's
    SIMT form).  ``warm_cache=True`` runs the trace twice and reports the
    second, steady-state run -- the equivalent of the paper's repeated
    kernel invocations on the phone, where inputs already live in the cache
    hierarchy.
    """
    config = config or default_config()
    compiled = None
    if compile_first:
        compiled = compile_trace(trace, register_file=register_file_for(config))
        trace = compiled.trace
    scheme = scheme or get_scheme(config.scheme_name)
    (result,) = replay_trace(trace, [(config, scheme)], warm_cache)
    return result, compiled


def simulate_trace(
    trace: Sequence[TraceEntry],
    config: Optional[MachineConfig] = None,
    scheme: Optional[ComputeScheme] = None,
    warm_cache: bool = True,
) -> tuple[SimulationResult, CompiledKernel]:
    """Replay a shared, already-captured trace under one configuration.

    The staged pipeline's second phase: the trace comes from the capture
    stage (or the trace cache) and may be replayed many times, so the
    compile step goes through the geometry-keyed compile memo --
    configurations that keep the register-file geometry reuse the
    scheduled, register-allocated kernel and only re-run the timing model.
    Identical to :func:`simulate_kernel` with ``compile_first=True``
    result-wise.
    """
    config = config or default_config()
    ((result, compiled),) = simulate_trace_batch(trace, [config], [scheme], warm_cache)
    return result, compiled
