"""Spans and counters around the public functions of thompsonf's layers.

`installed` replaces every public function of the layer modules at every
module that binds it (so `schreier.act_letter` is traced as well as
`cantor.act_letter`), and the traced methods on their classes, then puts the
originals back.  A span is (name, start, end, parent); spans are kept in
arrays in memory and written out once the run is over.  The dyadic layer is
only counted: its calls are so many and so short that a span each would
swamp what it measures, so its time shows in the self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

LAYERS = ("dyadic", "plmap", "words", "cantor", "schreier", "stabgen", "cli")

# Methods traced with spans, by (module, class): attribute -> span label.
SPAN_METHODS = {
    ("plmap", "PLMap"): {
        "__init__": "init",
        "evaluate": "evaluate",
        "preimage": "preimage",
        "compose": "compose",
        "inverse": "inverse",
    },
}

# Methods only counted, by (module, class): attribute -> counter name.
COUNTED_METHODS = {
    ("dyadic", "Dyadic"): {"__init__": "dyadic.Dyadic", "as_fraction": "dyadic.as_fraction"},
}

# Quantities read off a traced call's arguments and result, by span name.
OBSERVERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "plmap.word_to_plmap": lambda args, result: {"letters": len(args[0])},
    "plmap.PLMap.compose": lambda args, result: {"breakpoints": len(result.breakpoints)},
    "cantor.act_letter": lambda args, result: {"period_len": len(args[0].period)},
    "schreier.ball": lambda args, result: {"vertices": len(result)},
    "schreier.find_path": lambda args, result: {"found": 1},
    "stabgen.stabilizer_generators": lambda args, result: {"conjugator_len": len(result.conjugator)},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: dict[str, list[int]] = {}
        self.observed: dict[str, list[int]] = {}

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that each call records a span under the given name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                for key, v in observe(args, result).items():
                    self.observed.setdefault(f"{name}.{key}", []).append(v)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that its calls are counted, without spans."""
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: str) -> None:
        payload = {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "counters": {name: cell[0] for name, cell in self.counters.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


@contextmanager
def installed(tracer: Tracer, package: types.ModuleType) -> Iterator[None]:
    """Trace the package's layers for the duration of the block."""
    modules = {short: importlib.import_module(f"{package.__name__}.{short}") for short in LAYERS}
    wrappers: dict[int, Callable] = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if isinstance(obj, types.FunctionType) and not attr.startswith("_") and obj.__module__ == module.__name__:
                wrappers[id(obj)] = tracer.span(f"{short}.{attr}", obj)
    patched: list[tuple[Any, str, Any]] = []
    bindings = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
    for module in bindings:
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                patched.append((module, attr, obj))
                setattr(module, attr, wrapper)
    for (short, cls_name), methods in SPAN_METHODS.items():
        cls = getattr(modules[short], cls_name)
        for attr, label in methods.items():
            patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, tracer.span(f"{short}.{cls_name}.{label}", cls.__dict__[attr]))
    for (short, cls_name), methods in COUNTED_METHODS.items():
        cls = getattr(modules[short], cls_name)
        for attr, name in methods.items():
            patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, tracer.counter(name, cls.__dict__[attr]))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


class Profile:
    """Call counts and self times derived from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.span_name)
        names, span_name, parent = tracer.names, tracer.span_name, tracer.parent
        duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
        children = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]] += duration[i]
        self_ns = [duration[i] - children[i] for i in range(n)]
        self.tracer = tracer
        self.calls = dict.fromkeys(names, 0)
        self._self_ns = dict.fromkeys(names, 0)
        for i in range(n):
            name = names[span_name[i]]
            self.calls[name] += 1
            self._self_ns[name] += self_ns[i]
        self.root_ns = sum(duration[i] for i in range(n) if parent[i] < 0)
        self.total_self_ns = sum(self_ns)
        self.min_self_ns = min(self_ns, default=0)
        # For each span, the nearest enclosing span of each scope (or -1).
        # Parents are recorded before their children, so one forward pass does.
        self._scope: dict[str, list[int]] = {}
        for scope in ("schreier.ball", "schreier.find_path", "stabgen.verify_generators"):
            sid = names.index(scope) if scope in names else -2
            inside = [-1] * n
            for i in range(n):
                p = parent[i]
                if p >= 0:
                    inside[i] = p if span_name[p] == sid else inside[p]
            self._scope[scope] = inside
        self._names = [names[span_name[i]] for i in range(n)]
        self._self = self_ns

    def self_s(self, name: str) -> float:
        return self._self_ns.get(name, 0) / 1e9

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def counter(self, name: str) -> int:
        return self.tracer.counters.get(name, [0])[0]

    def observed(self, key: str) -> list[int]:
        return self.tracer.observed.get(key, [])

    def calls_within(self, name: str, scope: str) -> int:
        inside = self._scope[scope]
        return sum(1 for i, n in enumerate(self._names) if n == name and inside[i] >= 0)

    def self_s_within(self, prefix: str, scope: str) -> float:
        inside = self._scope[scope]
        ns = sum(s for i, s in enumerate(self._self) if inside[i] >= 0 and self._names[i].startswith(prefix))
        return ns / 1e9


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Profile) -> dict[str, float]:
    """The per-layer metrics that come from spans and counters."""
    metrics: dict[str, float] = {
        "dyadic.Dyadic.calls": p.counter("dyadic.Dyadic"),
        "dyadic.as_fraction.calls": p.counter("dyadic.as_fraction"),
        "plmap.word_to_plmap.calls": p.count("plmap.word_to_plmap"),
        "plmap.word_to_plmap.letters": sum(p.observed("plmap.word_to_plmap.letters")),
        "plmap.PLMap.compose.breakpoints_max": max(p.observed("plmap.PLMap.compose.breakpoints"), default=0),
        "cantor.act_letter.period_len_mean": _mean(p.observed("cantor.act_letter.period_len")),
        "schreier.ball.vertices": sum(p.observed("schreier.ball.vertices")),
        "schreier.find_path.act_letter_calls": p.calls_within("cantor.act_letter", "schreier.find_path"),
        "schreier.find_path.found_ratio": _ratio(
            len(p.observed("schreier.find_path.found")), p.count("schreier.find_path")
        ),
        "stabgen.conjugator_len_mean": _mean(p.observed("stabgen.stabilizer_generators.conjugator_len")),
        "stabgen.verify_generators.plmap_s": p.self_s_within("plmap.", "stabgen.verify_generators"),
    }
    # A ball's first vertex is its seed; the rest were found by act_letter calls.
    discovered = metrics["schreier.ball.vertices"] - p.count("schreier.ball")
    metrics["schreier.ball.new_ratio"] = _ratio(discovered, p.calls_within("cantor.act_letter", "schreier.ball"))
    for name in (
        "plmap.word_to_plmap",
        "plmap.PLMap.compose",
        "plmap.PLMap.init",
        "plmap.PLMap.evaluate",
        "cantor.act_letter",
        "cantor.canonicalize",
        "schreier.ball",
        "schreier.find_path",
        "stabgen.stabilizer_generators",
    ):
        metrics[f"{name}.calls"] = p.count(name)
    for name in (
        "plmap.word_to_plmap",
        "plmap.PLMap.compose",
        "plmap.PLMap.init",
        "plmap.PLMap.evaluate",
        "cantor.act_letter",
        "cantor.canonicalize",
        "cantor.primitive_root",
        "cantor.parse_point",
        "schreier.ball",
        "schreier.find_path",
        "schreier.export_json",
        "stabgen.stabilizer_generators",
        "stabgen.verify_generators",
        "stabgen.check_stabilizer_relators",
        "stabgen.check_reduction",
        "words.parse_word",
        "words.format_word",
        "cli.main",
    ):
        metrics[f"{name}.self_s"] = p.self_s(name)
    return metrics
