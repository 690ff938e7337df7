"""Span tracing from outside the package, for the per-layer metrics.

The tracer replaces each public function of a layer module with a wrapper
that records a span (name, start, end, parent, op id) and then calls the
original.  It patches the module attribute, every other package module that
bound the same function through ``from .x import y``, and the public methods
of the classes the layer defines, ``VectorField.__call__`` included.  Nothing
in the package changes on disk; ``uninstall`` puts every original back.

Spans live in flat typed arrays, so a run of a million spans costs tens of
megabytes, and are reduced to per-layer self times and counts at the end.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "verify", "analysis", "flows", "geodesics",
    "fields", "expressions", "domains", "grids", "sampling",
)

# Built-in field factories in siegelflow.fields; their evaluators are
# closures whose qualified names start with the factory name.
_BUILTIN_FACTORIES = ("example1", "example2", "reciprocal_1d")
FIELD_CALL = "fields.VectorField.__call__"
# Flow entry points whose spans carry points through a flow map: the two
# integrators take one start point, the flow-map evaluator a batch.
FLOW_MAP_SPANS = (
    "flows.integrate_autonomous", "flows.integrate_loewner", "flows.flow_map.apply",
)


def _points_in(points) -> int:
    shape = np.shape(points)
    if not shape:
        return 1
    return int(np.prod(shape[:-1], dtype=np.int64))


def _field_kind(evaluator) -> str:
    qualname = getattr(evaluator, "__qualname__", "")
    if qualname.split(".")[0] in _BUILTIN_FACTORIES:
        return "builtin"
    if qualname.startswith("_from_components"):
        return "parsed"
    return "other"


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[int] = []
        self._is_field: list[bool] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.points = array("q")
        # 1 when no enclosing span belongs to the same layer.
        self.outer = array("b")
        # 1 on a field span that encloses another field span.
        self.nonleaf = array("b")
        self._stack = [-1]
        self._field_stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self.op_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(LAYERS.index(name.split(".")[0]))
            self._is_field.append(name.startswith(FIELD_CALL))
        return self._name_ids[name]

    def _open(self, nid: int, points: int) -> int:
        idx = len(self.start)
        layer = self._layer_of[nid]
        self.outer.append(self._depth[layer] == 0)
        self._depth[layer] += 1
        self.nonleaf.append(0)
        if self._is_field[nid]:
            if self._field_stack:
                self.nonleaf[self._field_stack[-1]] = 1
            self._field_stack.append(idx)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.points.append(points)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        nid = self.name_id[idx]
        self._depth[self._layer_of[nid]] -= 1
        if self._is_field[nid]:
            self._field_stack.pop()

    def _in_same(self, nid: int) -> bool:
        top = self._stack[-1]
        return top >= 0 and self.name_id[top] == nid

    def wrap(self, name: str, fn, points=None, result_hook=None):
        """Return fn wrapped in a span; direct recursion records one span.

        `points` gives the span's point count: None for none, an int for a
        fixed count, or "batch" for the points in the first argument.
        """
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._in_same(nid):
                return fn(*args, **kwargs)
            count = _points_in(args[0]) if points == "batch" else points or 0
            idx = tracer._open(nid, count)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            return result_hook(result) if result_hook else result

        return traced

    def _wrap_field_call(self, original):
        tracer = self
        nids = {kind: self._intern(f"{FIELD_CALL}[{kind}]")
                for kind in ("builtin", "parsed", "other")}

        @functools.wraps(original)
        def traced(field, points):
            idx = tracer._open(nids[_field_kind(field._evaluator)], _points_in(points))
            try:
                return original(field, points)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_run_suite(self, original):
        tracer = self

        @functools.wraps(original)
        def traced(name, *args, **kwargs):
            idx = tracer._open(tracer._intern(f"verify.run_suite[{name}]"), 0)
            try:
                return original(name, *args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "siegelflow") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapper = self._make_function_wrapper(layer, attr, obj)
                    replacements[id(obj)] = wrapper
                    self._set(module, attr, wrapper)
        # Import sites: every module (and the package) that bound the original.
        sites = list(modules.values()) + [importlib.import_module(package)]
        for module in sites:
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and getattr(module, attr) is not wrapper:
                    self._set(module, attr, wrapper)

    def _make_function_wrapper(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "verify.run_suite":
            return self._wrap_run_suite(fn)
        if name == "flows.flow_map":
            return self.wrap(
                name, fn,
                result_hook=lambda apply: self.wrap(f"{name}.apply", apply, points="batch"),
            )
        return self.wrap(name, fn, points=1 if name in FLOW_MAP_SPANS else None)

    def _wrap_class(self, layer: str, cls) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        wanted = {"__call__", "__post_init__"}
        if "__post_init__" not in vars(cls):
            wanted.add("__init__")  # a dataclass __init__ only calls __post_init__
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if attr == "__call__" and cls.__name__ == "VectorField":
                self._set(cls, attr, self._wrap_field_call(member))
            elif not attr.startswith("_") or attr in wanted:
                self._set(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", member))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name and per-layer totals over every recorded span.

        Self time is a span's duration minus the durations of its direct
        children.  Busy time sums only the spans with no enclosing span of
        the same layer, so nested calls inside one layer count once.  Leaf
        field points count the points of field calls that enclose no other
        field call: the evaluations that did the arithmetic.
        """
        count = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32)[:count]
        duration = (np.frombuffer(self.end, dtype=np.float64)[:count]
                    - np.frombuffer(self.start, dtype=np.float64)[:count])
        parent = np.frombuffer(self.parent, dtype=np.int32)[:count]
        points = np.frombuffer(self.points, dtype=np.int64)[:count]
        outer = np.frombuffer(self.outer, dtype=np.int8)[:count].astype(bool)
        leaf = ~np.frombuffer(self.nonleaf, dtype=np.int8)[:count].astype(bool)
        has_parent = parent >= 0
        child_time = np.zeros(count)
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        span_layer = np.asarray(self._layer_of, dtype=np.int32)[nid]

        per_name = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            per_name[name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(np.sum(duration[mask])),
                "busy_s": float(np.sum(duration[mask & outer])),
                "self_s": float(np.sum(self_time[mask])),
                "points": int(np.sum(points[mask])),
                "leaf_points": int(np.sum(points[mask & leaf])),
            }
        per_layer = {}
        for i, layer in enumerate(LAYERS):
            mask = span_layer == i
            per_layer[layer] = {
                "calls": int(np.count_nonzero(mask)),
                "self_s": float(np.sum(self_time[mask])),
                "busy_s": float(np.sum(duration[mask & outer])),
            }
        return {"spans": count, "per_name": per_name, "per_layer": per_layer}
