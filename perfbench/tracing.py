"""Spans and counts around every public function and method of spinref.

Used only by the traced run.  ``Tracer.install`` replaces, in the child
process, each public function and method of every spinref module (plus
``__init__`` of every class and the arithmetic operators a module defines
itself) by a wrapper that measures it.  A function is also patched in every
module that bound it with ``from .x import y``.  ``argparse`` parsing is
wrapped too, as ``cli.parse_args``, because it is the bulk of a small
request's time.

Per wrapped name the tracer keeps calls, inclusive time and self time
(inclusive minus the wrapped calls made inside it); spans (name, start,
end, parent) are kept for the outermost levels only, since classify makes
millions of calls.
"""

from __future__ import annotations

import argparse
import enum
import functools
import importlib
import inspect
import json
import time

MODULES = ("rootdata", "weyl", "parabolic", "refine", "hecke", "ratfunc", "intertwine", "cli")
OPERATORS = {"__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__eq__"}
SPAN_DEPTH = 3        # keep spans of the operation root and two levels below it
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.own: list[float] = []
        self.stack = [0.0]  # time spent in wrapped callees, one slot per open call
        self.spans: list[tuple[int, float, float]] = []
        self.term_products = 0
        self.max_terms = 0

    def _wrap(self, fn, name, after=None):
        key = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.own.append(0.0)
        calls, total, own, stack, spans = self.calls, self.total, self.own, self.stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args)
                return result
            finally:
                t1 = clock()
                inner = stack.pop()
                stack[-1] += t1 - t0
                calls[key] += 1
                total[key] += t1 - t0
                own[key] += t1 - t0 - inner
                if depth <= SPAN_DEPTH and len(spans) < SPAN_CAP:
                    spans.append((key, t0, t1))
        return functools.update_wrapper(wrapper, fn)

    def _count_terms(self, args):
        self.term_products += len(args[0].coeffs) * len(args[1].coeffs)

    def _note_size(self, args):
        self.max_terms = max(self.max_terms, len(args[0].num.coeffs), len(args[0].den.coeffs))

    def _hook(self, name):
        return {"ratfunc.Poly.__mul__": self._count_terms,
                "ratfunc.RatFunc.__init__": self._note_size}.get(name)

    def install(self) -> None:
        modules = [importlib.import_module(f"spinref.{short}") for short in MODULES]
        replaced = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    replaced[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._install_class(obj, short, mod.__file__)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        argparse.ArgumentParser.parse_args = self._wrap(
            argparse.ArgumentParser.parse_args, "cli.parse_args")

    def _install_class(self, cls, short, source_file) -> None:
        for attr, member in list(vars(cls).items()):
            binder = type(member) if isinstance(member, (classmethod, staticmethod)) else None
            fn = member.__func__ if binder else member
            if not inspect.isfunction(fn):
                continue
            # __init__ counts constructions even when a dataclass generated it;
            # other dunders only when the module wrote them (not dataclass __eq__).
            if attr == "__init__" or (attr in OPERATORS
                                      and fn.__code__.co_filename == source_file) \
                    or not attr.startswith("_"):
                name = f"{short}.{cls.__name__}.{attr}"
                wrapper = self._wrap(fn, name, self._hook(name))
                setattr(cls, attr, binder(wrapper) if binder else wrapper)

    def summary(self, spans_path=None) -> dict:
        """Per-name [calls, inclusive s, self s] for every name that ran."""
        if spans_path:
            self._write_spans(spans_path)
        return {"names": {name: [c, t, o] for name, c, t, o
                          in zip(self.names, self.calls, self.total, self.own) if c},
                "term_products": self.term_products, "max_terms": self.max_terms}

    def _write_spans(self, path) -> None:
        """Spans as {name, start, end, parent}; parent indexes the enclosing span."""
        out, open_ = [], []
        for key, t0, t1 in sorted(self.spans, key=lambda s: (s[1], -s[2])):
            while open_ and out[open_[-1]]["end"] < t1:
                open_.pop()
            out.append({"name": self.names[key], "start": t0, "end": t1,
                        "parent": open_[-1] if open_ else None})
            open_.append(len(out) - 1)
        with open(path, "w") as f:
            json.dump(out, f)
