"""Span tracing of subeig's public functions, installed from outside.

`Tracer.install()` replaces every public function and method of the layer
modules with a wrapper that records a span (name, start, end, parent) in
memory. A function is replaced in every subeig module that bound it with
`from .x import ...`, so calls through any binding are seen. Private
helpers (such as the Gauss-Seidel smoothers) are not wrapped; their time
shows up as the self time of the public caller.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

LAYERS = ("gmg", "amg", "core", "dense", "projection", "inverse_power", "verify")

NAME, START, END, PARENT, COUNT = range(5)


def _orthonormalize_count(args, kwargs, basis):
    W = args[0] if args else kwargs["W"]
    cols_in = W.shape[1] if getattr(W, "ndim", 1) == 2 else 1
    return (cols_in, basis.dim)


def _sym_eig_count(args, kwargs, result):
    S = args[0] if args else kwargs["S"]
    return S.shape[0]


# Counts recorded at a boundary, computed from its arguments and result.
COUNTERS = {
    "core.orthonormalize": _orthonormalize_count,
    "dense.sym_eig": _sym_eig_count,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        # one list per span: [name, start, end, parent index, count]
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1], None]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if counter is not None:
                rec[COUNT] = counter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the layer modules' public functions and methods."""
        import subeig

        modules = [subeig] + [
            importlib.import_module(f"subeig.{info.name}")
            for info in pkgutil.iter_modules(subeig.__path__)
        ]
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"subeig.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, staticmethod) and not attr.startswith("_"):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member) and (
                not attr.startswith("_")
                # explicit constructors of solver and oracle classes; the
                # generated ones of dataclasses only store fields
                or (attr == "__init__" and not dataclasses.is_dataclass(cls))
            ):
                setattr(cls, attr, self.wrap(name, member))

    def write(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[COUNT]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "count"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Per-name calls, total time (outermost spans only) and self time
    (duration minus the durations of direct child spans)."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self._self = [(s[END] - s[START]) - c for s, c in zip(spans, child)]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        for s, own in zip(spans, self._self):
            self.calls[s[NAME]] += 1
            self.self_s[s[NAME]] += own

    def total(self, *names: str) -> float:
        """Time covered by spans of these names, counting a span nested in
        another of the same set once."""
        wanted = set(names)
        out = 0.0
        for s in self.spans:
            if s[NAME] not in wanted:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] not in wanted:
                p = self.spans[p][PARENT]
            if p < 0:
                out += s[END] - s[START]
        return out

    def counts(self, name: str) -> list:
        return [s[COUNT] for s in self.spans if s[NAME] == name]

    def self_by_layer_under(self, root: str) -> dict:
        """Self time of every span below the spans named root, by layer
        (the module part of the span name)."""
        inside = [False] * len(self.spans)
        by_layer = defaultdict(float)
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            inside[i] = p >= 0 and (inside[p] or self.spans[p][NAME] == root)
            if inside[i]:
                by_layer[s[NAME].split(".", 1)[0]] += self._self[i]
        return by_layer
