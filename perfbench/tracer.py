"""In-memory span recorder that wraps public calls into the ``repro`` layers.

The benchmark measures every layer from outside the program: :func:`install`
replaces a fixed set of public functions and methods with thin wrappers that
record one span per call (name, layer, start, end, parent span, request id
and a few counts).  Spans stay in memory and are written once, at exit, as
one JSON document.  Nothing here changes what the wrapped calls return.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Collects spans; one instance per process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.request: Optional[str] = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, target: Any, fn: Callable, args, kwargs,
             fields: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        # A subclass method calling its wrapped parent (``super().__init__``)
        # is one logical call: only the outermost records a span.
        if stack and stack[-1][1] == name and stack[-1][2] is target:
            return fn(*args, **kwargs)
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name, target))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
            "request": self.request,
        }
        if fields is not None:
            span.update(fields(args, kwargs, result))
        with self._lock:
            self.spans.append(span)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _wrap_method(tracer: Tracer, owner: type, attr: str, name: Any, layer: str,
                 fields: Optional[Callable] = None) -> None:
    """Wrap ``owner.attr``; ``name`` may be a callable of the bound object."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        span_name = name(self) if callable(name) else name
        return tracer.call(span_name, layer, self, original, (self,) + args, kwargs, fields)

    setattr(owner, attr, wrapper)


def _wrap_function(tracer: Tracer, module: Any, attr: str, name: str, layer: str,
                   fields: Optional[Callable] = None) -> None:
    """Wrap a module-level function and every ``repro`` module that imported it."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, None, original, args, kwargs, fields)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)


def _family(engine: Any) -> str:
    return type(engine).family


def _run_blocks_fields(args, kwargs, result) -> Dict[str, Any]:
    return {"accesses": len(args[1])}


def _run_block_runs_fields(args, kwargs, result) -> Dict[str, Any]:
    counts = args[2]
    return {"accesses": int(sum(counts)), "heads": len(args[1])}


def _dew_counters_fields(args, kwargs, result) -> Dict[str, Any]:
    counters = args[0].counters
    return {
        "counters": {
            "requests": counters.requests,
            "node_evaluations": counters.node_evaluations,
            "mra_hits": counters.mra_hits,
            "searches": counters.searches,
            "tag_comparisons": counters.tag_comparisons,
        }
    }


def _store_get_fields(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _store_put_fields(args, kwargs, result) -> Dict[str, Any]:
    try:
        return {"bytes": result.stat().st_size}
    except OSError:  # collected by a concurrent gc before the stat
        return {"bytes": 0}


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every timed layer; call once per process."""
    import repro.cli  # noqa: F401 - loads every module whose names get patched
    from repro.bench.harness import ExperimentRunner
    from repro.cache.simulator import SingleConfigSimulator
    from repro.engine import base as engine_base
    from repro.engine import sweep as engine_sweep
    from repro.engine.adapters import DewEngine
    from repro.explore import pareto
    from repro.explore.tuner import CacheTuner
    from repro.mechanisms.engines import MechanismEngine
    from repro.service.api import ServiceClient
    from repro.service.daemon import ServiceDaemon
    from repro.store.resultstore import ResultStore
    from repro.trace import files
    from repro.trace.planecache import TracePlaneCache
    from repro.trace.trace import Trace

    # Mechanism engines share their block loops through a base class that
    # is not registered itself.
    classes = [engine_base.get_engine_class(f) for f in engine_base.available_engines()]
    for cls in classes + [MechanismEngine]:
        if "__init__" in cls.__dict__:
            _wrap_method(tracer, cls, "__init__", lambda e: f"engine.{_family(e)}.construct", "engine")
        if "run_blocks" in cls.__dict__:
            _wrap_method(tracer, cls, "run_blocks", lambda e: f"engine.{_family(e)}.run", "engine",
                         _run_blocks_fields)
        if "run_block_runs" in cls.__dict__:
            _wrap_method(tracer, cls, "run_block_runs", lambda e: f"engine.{_family(e)}.run", "engine",
                         _run_block_runs_fields)
        for attr in ("finalize", "finalize_frame"):
            if attr in cls.__dict__:
                fields = _dew_counters_fields if cls is DewEngine and attr == "finalize" else None
                _wrap_method(tracer, cls, attr, "engine.finalize", "engine", fields)

    _wrap_method(tracer, engine_sweep.SweepJob, "build", "engine.job_build", "engine")
    _wrap_function(tracer, engine_sweep, "run_sweep", "engine.sweep", "engine")
    _wrap_method(tracer, SingleConfigSimulator, "__init__", "cache.dinero.construct", "cache")
    _wrap_method(tracer, SingleConfigSimulator, "run_blocks", "cache.dinero.run", "cache", _run_blocks_fields)
    _wrap_method(tracer, ResultStore, "get", "store.get", "store", _store_get_fields)
    _wrap_method(tracer, ResultStore, "put", "store.put", "store", _store_put_fields)
    _wrap_method(tracer, TracePlaneCache, "ensure", "trace.plane_ensure", "trace")
    _wrap_method(tracer, Trace, "fingerprint", "trace.fingerprint", "trace")
    _wrap_function(tracer, files, "load_trace_file", "trace.decode", "trace")
    _wrap_method(tracer, ServiceClient, "submit", "service.submit", "service")
    _wrap_method(tracer, ServiceClient, "wait", "service.wait", "service")
    _wrap_method(tracer, ServiceClient, "result_text", "service.result", "service")
    _wrap_method(tracer, ExperimentRunner, "run_cell", "bench.cell", "bench")
    _wrap_method(tracer, ExperimentRunner, "run_table4", "bench.table4", "bench")
    _wrap_function(tracer, pareto, "pareto_front_frame", "explore.pareto", "explore")
    _wrap_method(tracer, CacheTuner, "tune_frame", "explore.tune", "explore")

    # Daemon-side spans carry the job id as their request id.
    original_execute = ServiceDaemon.__dict__["_execute"]

    def execute(self, record):
        tracer.request = record.id
        try:
            return tracer.call("service.execute", "service", self, original_execute, (self, record), {})
        finally:
            tracer.request = None

    ServiceDaemon._execute = execute


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = []
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            begin = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > begin:
                covered += end - begin
                cursor = end
        result.append(max(span["end"] - span["start"] - covered, 0.0))
    return result
