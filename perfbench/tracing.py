"""Span tracer that wraps the simulator's layer entry points from outside.

Nothing under ``src/`` is instrumented: :class:`LayerTracer` replaces each
public entry point listed in :data:`ENTRY_POINTS` with a timing wrapper
(patching every module that imported the function by name) and restores the
originals on :meth:`LayerTracer.uninstall`.  Spans nest per thread, so a
layer's *self* time excludes the time of the spans it called -- e.g.
``cache`` accesses inside ``replay.single`` count once, under ``cache``.

Pool workers are forked with the wrappers installed, but the spans they
record stay in the worker; only parent-side layers are visible here.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict

#: (span name, module, attribute path, extra counter) -- one row per place a
#: layer's entry point is reachable from.  Functions imported by name into
#: other modules are patched in each importing module too.
ENTRY_POINTS = (
    ("capture", "repro.workloads.base", "Kernel.capture", "hidden"),
    ("addrgen", "repro.core.address_gen", "element_addresses", None),
    ("compile", "repro.compiler.pipeline", "compile_trace", None),
    ("compile", "repro.core.simulator", "compile_trace", None),
    ("compile", "repro.experiments.figure12", "compile_trace", None),
    ("replay.single", "repro.core.simulator", "simulate_trace", None),
    ("replay.single", "repro.experiments.sweep", "simulate_trace", None),
    ("replay.batch", "repro.core.replay", "simulate_trace_batch", "configs"),
    ("replay.batch", "repro.core.simulator", "simulate_trace_batch", "configs"),
    ("replay.batch", "repro.experiments.sweep", "simulate_trace_batch", "configs"),
    ("cache", "repro.memory.vector_cache", "VectorCache.access_batch", None),
    ("dram", "repro.memory.dram", "DRAMModel.classify_batch", None),
    ("baselines", "repro.baselines.neon", "NeonModel.run", None),
    ("baselines", "repro.baselines.gpu", "GPUModel.run", None),
    ("codec.encode", "repro.isa.trace_io", "encode_trace", "bytes"),
    ("codec.encode", "repro.core.traces", "encode_trace", "bytes"),
    ("codec.decode", "repro.isa.trace_io", "decode_trace", None),
    ("codec.decode", "repro.core.traces", "decode_trace", None),
    ("codec.decode", "repro.experiments.sweep", "decode_trace", None),
    ("store.load", "repro.core.cache", "ResultStore.load", "hits"),
    ("store.save", "repro.core.cache", "ResultStore.store", "bytes"),
    ("pool.execute", "repro.experiments.adapters", "LocalPoolAdapter.execute", None),
    ("pool.submit", "repro.experiments.adapters", "LocalPoolAdapter._submit", None),
    ("render", "repro.experiments.export", "render_payload", None),
)


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class LayerTracer:
    """Per-layer self time, call counts and extra counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append(_Frame(name, time.perf_counter()))

    def exit(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.self_s[frame.name] += duration - frame.child
            self.calls[frame.name] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()

    def snapshot(self) -> dict:
        """Copy of the accumulated totals (self seconds, calls, counters)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    # -- wrapping ------------------------------------------------------- #

    def _wrap(self, name: str, function, extra):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            span = name
            if extra == "hidden":
                hidden = kwargs.get("record_values", args[3] if len(args) > 3 else False)
                span = "capture.hidden" if hidden else "capture.plain"
            tracer.enter(span)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.exit()
            if extra == "configs":
                tracer.count("replay.batch.configs", len(args[1]))
            elif extra == "hits" and result is not None:
                tracer.count("store.load.hits")
            elif extra == "bytes" and name == "codec.encode":
                tracer.count("codec.encode.bytes", len(result.get("npz_b64", "")) * 3 // 4)
            elif extra == "bytes":
                try:
                    tracer.count("store.save.bytes", os.path.getsize(args[0]._path(args[1])))
                except OSError:
                    pass
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point (idempotent per tracer)."""
        if self._patched:
            return
        for name, module_name, path, extra in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._set(owner, attr, self._wrap(name, owner.__dict__[attr], extra))

    def wrap_backend(self, backend) -> None:
        """Time a server-side backend's record loads as ``store.load``."""
        self._patched.append((backend, "load", None))
        backend.load = self._wrap("store.load", backend.load, "hits")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
