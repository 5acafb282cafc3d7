"""Per-layer self time, measured from outside the program.

A traced run wraps the public functions at each layer boundary of the
program with :class:`LayerTracer` timers.  Nothing inside ``src/`` is
edited and the program's own telemetry (``TYBEC_TRACE``) stays off: the
spans live in this process's memory and are written out once, at the end.

A layer's *self* time is the wall time of its calls minus the time of the
wrapped calls nested inside them, so the self times of one thread never
overlap and their sum plus the unattributed rest is that thread's wall
time.  A call into the layer that is already innermost (recursion, or one
public function of a layer calling another) stays inside the open span.

Boundaries are patched as their modules load, so a traced process imports
exactly what its untraced twin imports, and a function that recurses
through its module global keeps calling itself unwrapped, so only the
outermost call pays for a timer.
"""

from __future__ import annotations

import dis
import functools
import inspect
import sys
import threading
import time
import types
from collections import defaultdict

#: (module, attribute path, layer) -- every boundary a traced run times.
#: One table for all workloads: a layer a workload does not reach reports
#: 0, which is its prediction there.
BOUNDARIES = (
    ("repro.compiler.pipeline", "CalibrationStage.run", "calibration.load"),
    ("repro.compiler.pipeline", "parse_module", "ir.parse"),
    ("repro.compiler.pipeline", "EstimationPipeline.cost", "pipeline.cost"),
    ("repro.explore.engine", "ExplorationEngine.cost_many", "engine.cost_many"),
    ("repro.explore.dense", "DenseBackend.explore_space", "dense.sweep"),
    ("repro.explore.dense", "DenseSweep.materialize_all", "dense.materialize"),
    ("repro.suite.runner", "build_suite_report", "suite.build_report"),
    ("repro.suite.report", "canonicalize", "report.canonicalize"),
    ("repro.suite.report", "canonical_json", "report.serialize"),
    ("repro.suite.report", "SuiteReport.write", "report.write"),
    ("repro.service.server", "ExplorationService.lease_cost", "service.lease_cost"),
    ("repro.service.server", "ExplorationService.run_cost", "service.run_cost"),
    ("repro.service.server", "ExplorationService.run_suite", "service.run_suite"),
    ("repro.service.server", "ExplorationService.run_dse", "service.run_dse"),
    ("repro.flows.flows", "Flow.cached_artifacts", "flows.emit"),
    ("repro.flows.flows", "parse_module_text", "flows.parse"),
    ("repro.flows.flows", "lint_module", "flows.elaborate"),
    ("repro.flows.flows", "elaborate", "flows.elaborate"),
    ("repro.flows.flows", "kernel_stimulus", "flows.reference"),
    ("repro.flows.flows", "reference_outputs", "flows.reference"),
    ("repro.flows.flows", "simulate_stream", "flows.simulate"),
    ("repro.flows.flows", "compare_outcome", "flows.verify"),
    ("repro.flows.flows", "RTLSimFlow._cycle_legs", "flows.verify"),
    ("repro.cost.cache", "DiskCache.get", "cache.disk_get"),
)


class LayerTracer:
    """Thread-aware self-time and call-count accounting per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (owner, attribute, original) of every wrapped function
        self.patched: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn, on_result=None):
        """``fn`` wrapped so its calls are billed to ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                started = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    with tracer._lock:
                        tracer.self_s[layer] += elapsed - frame[1]
                        tracer.total_s[layer] += elapsed
                        tracer.calls[layer] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                    "calls": dict(self.calls), "counts": dict(self.counts)}


def _recurses(fn) -> bool:
    """Whether module function ``fn`` calls itself through its module global."""
    if not isinstance(fn, types.FunctionType):
        return False
    codes = [fn.__code__]
    while codes:  # comprehensions are nested code objects before 3.12
        code = codes.pop()
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if any(ins.opname == "LOAD_GLOBAL" and ins.argval == fn.__name__
               for ins in dis.get_instructions(code)):
            return True
    return False


def _unhooked(fn):
    """``fn``, rebound so that its calls to its own name reach itself.

    A recursive module function finds itself through the module global,
    which the wrapper replaces; the copy looks itself up in a private copy
    of the module's globals instead, so the recursion costs what it costs
    untraced.
    """
    if not _recurses(fn):
        return fn
    scope = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__,
                              fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = copy
    return copy


def _patch(tracer: LayerTracer, owner, attr: str, layer: str, on_result=None):
    raw = inspect.getattr_static(owner, attr)
    tracer.patched.append((owner, attr, raw))
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(tracer.timed(layer, raw.__func__, on_result)))
    else:
        if isinstance(owner, types.ModuleType):
            raw = _unhooked(raw)
        setattr(owner, attr, tracer.timed(layer, raw, on_result))


def _on_result(tracer: LayerTracer, layer: str):
    """The counter a boundary's return value feeds, if any."""
    if layer == "pipeline.cost":
        return lambda _r: tracer.count("pipeline.costs")
    if layer == "dense.materialize":
        return lambda r: tracer.count("dense.points", len(r.entries))
    if layer == "cache.disk_get":
        return lambda r: tracer.count("cache.disk_misses" if r is None
                                      else "cache.disk_hits")
    return None


def _patch_module(tracer: LayerTracer, module) -> None:
    boundaries = [(path, layer) for name, path, layer in BOUNDARIES
                  if name == module.__name__]
    # a recursive function keeps a copy of the module's globals (see
    # _unhooked), so it is patched after the boundaries it may call
    boundaries.sort(key=lambda b: _recurses(getattr(module, b[0], None)))
    for path, layer in boundaries:
        owner = module
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        _patch(tracer, owner, attr, layer, _on_result(tracer, layer))


class _PatchOnImport:
    """A ``sys.meta_path`` finder that patches boundary modules as they load."""

    def __init__(self, tracer: LayerTracer, pending: set) -> None:
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        tracer, pending = self.tracer, self.pending

        def exec_and_patch(module):
            exec_module(module)
            if name in pending:
                pending.discard(name)
                _patch_module(tracer, module)

        # a path-based loader is made for this one module, so this
        # override touches no other import
        spec.loader.exec_module = exec_and_patch
        return spec


def uninstall(tracer: LayerTracer) -> None:
    """Put back every function :func:`install` wrapped."""
    sys.meta_path[:] = [finder for finder in sys.meta_path
                        if getattr(finder, "tracer", None) is not tracer]
    while tracer.patched:
        owner, attr, raw = tracer.patched.pop()
        setattr(owner, attr, raw)


def install(tracer: LayerTracer) -> None:
    """Wrap every boundary in :data:`BOUNDARIES`: now, where its module is
    loaded, and when it is first imported otherwise."""
    pending = set()
    for module_name in dict.fromkeys(name for name, _, _ in BOUNDARIES):
        module = sys.modules.get(module_name)
        if module is None:
            pending.add(module_name)
        else:
            _patch_module(tracer, module)
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(tracer, pending))


def delta(after: dict, before: dict) -> dict:
    """``after - before`` of two :meth:`LayerTracer.snapshot` results."""
    return {
        kind: {name: value - before[kind].get(name, 0)
               for name, value in after[kind].items()}
        for kind in after
    }


def layer_metrics(spans: list[dict], ops: int) -> tuple[dict, float]:
    """Per-op layer metrics of ``spans`` (snapshots or deltas), and the
    per-op sum of their self times.

    Self times become ``<layer>_s``; counts keep their names.
    """
    metrics: dict[str, float] = defaultdict(float)
    self_total = 0.0
    for snap in spans:
        for name, seconds in snap["self_s"].items():
            metrics[f"{name}_s"] += seconds / ops
            self_total += seconds / ops
        for name, n in snap["counts"].items():
            metrics[name] += n / ops
    return dict(metrics), self_total
