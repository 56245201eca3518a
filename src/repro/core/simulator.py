"""Trace-driven cycle-accounting simulator for the MVE architecture.

This is the reproduction's stand-in for the paper's in-house cycle-accurate
simulator.  It consumes a compiled MVE instruction trace and models:

* the scalar core issuing scalar blocks and MVE instructions in program
  order (ROB-head issue); scalar loads and stores are charged in the core
  timeline and never enter the cache model, so L1/L2 coherence and
  write-buffer disambiguation of MVE stores are not modeled,
* the MVE controller instruction queue decoupling the core from the engine,
* control blocks executing in-SRAM micro-ops with latencies from the
  compute scheme the config names (``config.scheme_name``, bit-serial by
  default),
* vector memory accesses flowing through the L2/LLC/DRAM hierarchy with
  MSHR-limited parallelism, and through the Transpose Memory Unit, and
* the resulting energy, following the classification of Figure 7.

The output is a :class:`~repro.core.results.SimulationResult` whose cycle
breakdown (idle / compute / data access), instruction counts and utilization
metrics feed every experiment of Section VII.

This module is the compile-and-time entry to the config-batched replay of
:mod:`repro.core.replay`.  :func:`simulate_trace` (and its batched form,
:func:`simulate_trace_batch`) compiles a captured trace through the
geometry-keyed compile memo and reports a warm replay; :func:`replay_trace`
times a trace exactly as given, with no compile step (an already-compiled
trace, or a transformed one such as Duality Cache's SIMT form), warm or
cold.  All three take machine configurations only: a config carries every
timing parameter, its compute scheme included.  A single configuration is
a batch of one.  :func:`compile_trace` is the un-memoized compile step,
re-exported beside them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..compiler.pipeline import CompiledKernel, compile_trace
from ..isa.instructions import TraceEntry
from .config import MachineConfig, default_config
from .replay import replay_trace, simulate_trace_batch
from .results import SimulationResult

__all__ = ["compile_trace", "replay_trace", "simulate_trace", "simulate_trace_batch"]


def simulate_trace(
    trace: Sequence[TraceEntry], config: Optional[MachineConfig] = None
) -> tuple[SimulationResult, CompiledKernel]:
    """Compile a captured trace (register allocation) and time it under one
    configuration.

    The compile step goes through the geometry-keyed compile memo, so a
    trace replayed under configurations that keep the register-file
    geometry reuses the register-allocated kernel and only re-runs the
    timing model.  The result is a second, steady-state run after one that
    fills the cache hierarchy -- the equivalent of the
    paper's repeated kernel invocations on the phone, where inputs already
    live in the caches.
    """
    ((result, compiled),) = simulate_trace_batch(trace, [config or default_config()])
    return result, compiled
