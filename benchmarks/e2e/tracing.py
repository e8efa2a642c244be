"""Outside-in layer tracer for the end-to-end benchmark.

The tracer wraps the public entry points of each simulator layer (see
:func:`entry_points`) so that every call records one span: its layer, its
start and end on ``time.perf_counter_ns``, and the span that was open when
it started. Spans stay in memory, in flat typed arrays, until the run ends.

Attribution rules:

* a span's *self time* is its duration minus the durations of its direct
  children (children nest strictly inside their parent on one thread);
* a ``SimCore.run`` that starts inside an ``engine`` span is an engine's
  own event loop, so it counts as ``engine``; only the serving runtime's
  top-level loop counts as ``sim``;
* generator functions are never wrapped: a policy process body runs inside
  ``SimCore.run``, so its own work lands in ``sim`` self time;
* staticmethods and classmethods are re-wrapped as what they were.

Functions called through module globals (``executor.run``,
``compute_metrics``, the traffic generators) are rebound in every loaded
module that holds them, which is what makes ``repro.serving.latency.run``
and ``repro.skip.profiler.run`` resolve to the traced engine. A module
imported while the tracer is installed binds the traced function from its
defining module; uninstalling scans every module again, so it is restored
too.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

#: Span layers. ``run`` is the root span around the timed call; its self
#: time is the work no wrapped layer claims (``trace.unattributed_s``).
LAYERS = ("run", "sim", "session", "latency", "engine", "skip", "planner",
          "kvcache", "host", "router", "obs", "traffic")
_ID = {name: index for index, name in enumerate(LAYERS)}
RUN, SIM, ENGINE, LATENCY = _ID["run"], _ID["sim"], _ID["engine"], _ID["latency"]

#: RunRecorder hooks (the write side; the read side is not a layer's work).
RECORDER_HOOKS = (
    "on_admitted", "on_first_token", "on_token", "on_completed",
    "record_step", "on_kv_pool", "on_kv_event", "on_cluster", "on_routed",
    "on_host", "on_host_grant", "observe_launch_queue",
    "observe_launch_delay")


def _public_methods(cls: type) -> list[str]:
    """Names of the callable public attributes ``cls`` itself defines."""
    names = []
    for name, attr in vars(cls).items():
        if name.startswith("_") or isinstance(attr, property):
            continue
        if isinstance(attr, (staticmethod, classmethod)) or callable(attr):
            names.append(name)
    return names


def entry_points() -> tuple[list[tuple[str, type, list[str]]],
                            list[tuple[str, Callable]]]:
    """The methods and module-level functions traced, by layer."""
    from repro.analysis import pareto
    from repro.engine import executor
    from repro.host.model import HostModel
    from repro.kvcache.manager import KvManager
    from repro.obs.recorder import RunRecorder
    from repro.serving import requests
    from repro.serving.cluster import RoutedQueue
    from repro.serving.latency import LatencyModel
    from repro.serving.planner import StepPlanner
    from repro.serving.runtime import EngineSession
    from repro.skip import metrics
    from repro.skip.depgraph import DependencyGraph
    from repro.skip.profiler import ProfileResult
    from repro.traffic import generator

    methods = [
        ("session", EngineSession, ["execute"]),
        ("latency", LatencyModel, ["ttft_ns", "decode_step_ns",
                                   "ttft_cpu_ns", "decode_step_cpu_ns"]),
        ("skip", DependencyGraph, ["from_trace"]),
        ("skip", ProfileResult, ["fusion_plan"]),
        ("planner", StepPlanner, ["admit", "plan_step", "prefill_plan"]),
        ("kvcache", KvManager, _public_methods(KvManager)),
        ("host", HostModel, ["dispatch"]),
        ("router", RoutedQueue, ["push"]),
        ("obs", RunRecorder, list(RECORDER_HOOKS)),
    ]
    functions = [
        ("engine", executor.run),
        ("skip", metrics.compute_metrics),
        ("skip", metrics.metrics_from_tape),
        ("traffic", generator.generate_traffic),
        ("traffic", requests.poisson_requests),
        ("traffic", pareto.mixed_prompt_requests),
    ]
    return methods, functions


def _rebind(old: object, new: object) -> int:
    """Point every loaded module's binding of ``old`` at ``new``."""
    count = 0
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is old:
                namespace[name] = new
                count += 1
    return count


class Tracer:
    """Records layer spans while installed; computes per-layer totals."""

    def __init__(self) -> None:
        self._layer = array("b")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.calls = [0] * len(LAYERS)
        self.sim_events = [0] * len(LAYERS)
        self._methods: list[tuple[type, str, object]] = []
        self._functions: list[tuple[Callable, Callable]] = []

    # -- span recording --------------------------------------------------
    def _open(self, layer: int) -> int:
        index = len(self._start)
        stack = self._stack
        self._layer.append(layer)
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0)
        stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer: int, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            index = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def _wrap_core_run(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(core, *args, **kwargs):
            nested = any(tracer._layer[i] == ENGINE for i in tracer._stack)
            layer = ENGINE if nested else SIM
            if not nested:
                tracer.calls[SIM] += 1
            before = core.events_processed
            index = tracer._open(layer)
            try:
                return fn(core, *args, **kwargs)
            finally:
                tracer._close(index)
                tracer.sim_events[layer] += core.events_processed - before

        return traced

    @contextmanager
    def root(self) -> Iterator[None]:
        """The root span around the timed call."""
        index = self._open(RUN)
        try:
            yield
        finally:
            self._close(index)

    # -- install / uninstall ---------------------------------------------
    def _patch_method(self, cls: type, name: str, wrap: Callable) -> None:
        original = vars(cls)[name]
        if isinstance(original, (staticmethod, classmethod)):
            inner = original.__func__
            if inspect.isgeneratorfunction(inner):
                return
            replacement: object = type(original)(wrap(inner))
        else:
            if inspect.isgeneratorfunction(original):
                return
            replacement = wrap(original)
        setattr(cls, name, replacement)
        self._methods.append((cls, name, original))

    def install(self) -> None:
        """Wrap every entry point; call :meth:`uninstall` to restore."""
        from repro.sim.core import SimCore

        methods, functions = entry_points()
        self._patch_method(SimCore, "run", self._wrap_core_run)
        for layer, cls, names in methods:
            for name in names:
                self._patch_method(
                    cls, name, functools.partial(self._wrap, _ID[layer]))
        for layer, fn in functions:
            traced = self._wrap(_ID[layer], fn)
            _rebind(fn, traced)
            self._functions.append((fn, traced))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._methods):
            setattr(cls, name, original)
        for fn, traced in self._functions:
            _rebind(traced, fn)
        self._methods.clear()
        self._functions.clear()

    # -- read side --------------------------------------------------------
    def _columns(self) -> tuple[np.ndarray, ...]:
        layer = np.frombuffer(self._layer, dtype=np.int8).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        return layer, parent, start, end

    def layer_totals(self) -> dict[str, float]:
        """Per-layer host-time metrics (``<layer>.self_s``, ``.calls``...)."""
        layer, parent, start, end = self._columns()
        duration = (end - start).astype(np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=len(duration))
        self_ns = np.bincount(layer, weights=duration - covered,
                              minlength=len(LAYERS))
        engine_under_latency = int(np.count_nonzero(
            (layer == ENGINE) & child
            & (layer[np.where(child, parent, 0)] == LATENCY)))
        out: dict[str, float] = {}
        for index, name in enumerate(LAYERS):
            out[f"{name}.calls"] = self.calls[index]
            out[f"{name}.self_s"] = float(self_ns[index]) / 1e9
        out["trace.unattributed_s"] = out.pop("run.self_s")
        del out["run.calls"]
        calls = self.calls[LATENCY]
        out["latency.misses"] = engine_under_latency
        out["latency.hit_ratio"] = (1.0 - engine_under_latency / calls
                                    if calls else 0.0)
        out["sim.events"] = self.sim_events[SIM]
        out["engine.sim_events"] = self.sim_events[ENGINE]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as columns (one JSON object)."""
        layer, parent, start, end = self._columns()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": list(LAYERS), "layer": layer.tolist(),
                       "parent": parent.tolist(),
                       "start_ns": start.tolist(), "end_ns": end.tolist()},
                      fh)
