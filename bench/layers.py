"""Layer tracing from outside the program.

`Tracer.install` replaces the public functions of each traced module with
wrappers, and rebinds every `from ... import` copy of them in the other
program modules, so calls between layers are seen too.  Spans (name, start,
end, parent) are kept in flat arrays in memory and reduced to per-function
calls, total and self time when the run ends.  Hot methods whose every call
would dwarf the work they measure only count calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# layer name -> module path under the package
LAYERS = {
    "freegroup.words": "torusconj.freegroup.words",
    "freegroup.stallings": "torusconj.freegroup.stallings",
    "freegroup.autos": "torusconj.freegroup.autos",
    "whitehead": "torusconj.whitehead",
    "torus": "torusconj.torus",
    "gog": "torusconj.gog",
    "fibercorrect": "torusconj.fibercorrect",
    "minkowski": "torusconj.minkowski",
    "pipeline": "torusconj.pipeline",
}

# called so often that a span per call would cost more than the call itself;
# these count calls only
COUNTED_ONLY = {"freegroup.words.reduce_letters"}

# (layer, class, method, metric name); counted only
COUNTED_METHODS = [
    ("whitehead", "WhiteheadMove", "apply_marking", "whitehead.WhiteheadMove.apply_marking.calls"),
    ("gog", "SlotIso", "apply", "gog.SlotIso.apply.calls"),
    ("gog", "SlotHom", "apply", "gog.SlotHom.apply.calls"),
    ("freegroup.words", "FreeGroup", "__init__", "freegroup.FreeGroup.constructions"),
]

ROOT = "bench.operation"


class Tracer:
    def __init__(self):
        self.names: List[str] = [ROOT]
        self.name_ids: Dict[str, int] = {ROOT: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.seen_markings: set = set()
        self._question_depth = 0
        self._separate_depth = 0
        self._restore: List = []

    # -- spans ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def operation(self, call: Callable):
        """Run one benchmark operation as a root span."""
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, name: str, fn: Callable, after: Optional[Callable]):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _count_wrapper(self, metric: str, fn: Callable):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator_wrapper(self, name: str, fn: Callable):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".yields"] += 1
                yield item

        return wrapper

    # -- result hooks for the ratio metrics ----------------------------

    def _after(self, name: str) -> Optional[Callable]:
        counts = self.counts
        if name == "pipeline.assemble":
            def hook(result, args):
                if isinstance(result, list):
                    counts["pipeline.assemble.morphisms"] += len(result)
            return hook
        if name == "pipeline.match_black":
            def hook(result, args):
                counts["pipeline.match_black.accepted"] += result is not None
            return hook
        if name == "whitehead.same_orbit":
            def hook(result, args):
                counts["whitehead.same_orbit.positive"] += bool(result[0])
            return hook
        if name == "fibercorrect.solve":
            def hook(result, args):
                counts["fibercorrect.solve.solvable"] += result is not None
            return hook
        return None

    def _question_wrapper(self, name: str, fn: Callable):
        """same_orbit / mwp_product: an outermost call is one orbit question."""
        inner = self._span_wrapper(name, fn, self._after(name))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._question_depth == 0:
                tracer.counts["whitehead.questions"] += 1
                for marking in args[:2]:
                    tracer.counts["whitehead.markings"] += 1
                    if marking not in tracer.seen_markings:
                        tracer.seen_markings.add(marking)
                        tracer.counts["whitehead.distinct_markings"] += 1
            tracer._question_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._question_depth -= 1

        return wrapper

    def _separate_wrapper(self, name: str, fn: Callable):
        inner = self._span_wrapper(name, fn, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._separate_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._separate_depth -= 1

        return wrapper

    def _quotient_wrapper(self, fn: Callable):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._separate_depth:
                tracer.counts["minkowski.quotients_tried"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _intersect_wrapper(self, fn: Callable):
        inner = self._span_wrapper("freegroup.stallings.SubgroupGraph.intersect", fn, None)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            counts["freegroup.stallings.intersect.states_out"] += result.nstates
            return result

        return wrapper

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        replaced: Dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, module_name in LAYERS.items():
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module_name:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED_ONLY:
                    wrapper = self._count_wrapper(name + ".calls", obj)
                elif inspect.isgeneratorfunction(obj):
                    wrapper = self._generator_wrapper(name, obj)
                elif name in ("whitehead.same_orbit", "whitehead.mwp_product"):
                    wrapper = self._question_wrapper(name, obj)
                elif name == "minkowski.separate":
                    wrapper = self._separate_wrapper(name, obj)
                else:
                    wrapper = self._span_wrapper(name, obj, self._after(name))
                replaced[id(obj)] = (obj, wrapper)
        # rebind the definitions and every imported copy of them
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("torusconj") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, attr, entry[1])
        for layer, cls_name, method, metric in COUNTED_METHODS:
            cls = getattr(importlib.import_module(LAYERS[layer]), cls_name)
            self._set(cls, method, self._count_wrapper(metric, getattr(cls, method)))
        stallings = importlib.import_module(LAYERS["freegroup.stallings"])
        graph_cls = stallings.SubgroupGraph
        self._set(graph_cls, "intersect", self._intersect_wrapper(graph_cls.intersect))
        quotient_cls = importlib.import_module(LAYERS["minkowski"]).FiniteQuotient
        self._set(quotient_cls, "__post_init__", self._quotient_wrapper(quotient_cls.__post_init__))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction -----------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """calls, total_s (outermost activations only) and self_s per name."""
        n = len(self.span_start)
        child_time = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child_time[parent] += self.span_end[idx] - self.span_start[idx]
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for idx in range(n):
            name_id = self.span_name[idx]
            row = table[self.names[name_id]]
            duration = self.span_end[idx] - self.span_start[idx]
            row["calls"] += 1
            row["self_s"] += duration - child_time[idx]
            if not self._has_ancestor(idx, name_id):
                row["total_s"] += duration
        return dict(table)

    def _has_ancestor(self, idx: int, name_id: int) -> bool:
        parent = self.span_parent[idx]
        while parent >= 0:
            if self.span_name[parent] == name_id:
                return True
            parent = self.span_parent[parent]
        return False

    def span_count(self) -> int:
        return len(self.span_start)
