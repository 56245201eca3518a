"""Compiler support: liveness and greedy register allocation over the captured trace."""

from .liveness import LiveRange, LivenessInfo, analyze_liveness
from .pipeline import CompiledKernel, compile_trace

__all__ = [
    "LiveRange",
    "LivenessInfo",
    "analyze_liveness",
    "CompiledKernel",
    "compile_trace",
]
