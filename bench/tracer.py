"""Outside-in tracer for the minkdim benchmark's traced run.

``Tracer.install()`` replaces every public module-level function of every
``minkdim`` module with a timing wrapper, in every module namespace that binds
it (so re-exports in ``minkdim/__init__`` and ``from .x import y`` bindings in
sibling modules are wrapped too).  Classes are left alone: replacing them
would break ``isinstance`` and dataclass identity, so time spent in methods
and properties counts toward the module whose function called them.

A span is opened only where a call crosses from one module into another
(the layer boundaries); a call within the same module adds its time to the
span already open there.  Spans are kept in memory as lists
``[name, start, end, busy, parent, op, items]`` and written out once, at the
end of the run.  ``busy`` is the span's own duration, except for iterator
spans: when a wrapped function returns an iterator (``enumerate_cylinders``,
``enumerate_image_cylinders``), each later ``next()`` is timed and summed into
one ``<module>.<function>.next`` span whose parent is the span that pulled the
items, so pulling cylinders counts toward the module that yields them.  The
``h``/``h_prime`` callables handed to ``bisect_newton`` are wrapped and named
after the module that defined them; every ``h`` evaluation and every
``bisect_newton`` call is counted, boundary or not.

Self time of a span is its ``busy`` minus the ``busy`` of its child spans.
Wrappers record nothing while no op is open, so the benchmark's own output
checks are not traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types
from collections.abc import Iterator

NAME, START, END, BUSY, PARENT, OP, ITEMS = range(7)
MODULES = (
    "cli",
    "report",
    "cf_core",
    "selfsimilar",
    "minkowski_eval",
    "moran_solver",
    "dim_bounds",
    "empirical_dim",
)


def minkdim_modules():
    """The ``minkdim`` package and every submodule, imported."""
    import minkdim

    mods = [minkdim]
    for info in pkgutil.iter_modules(minkdim.__path__):
        mods.append(importlib.import_module(f"minkdim.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []  # indices of the open spans
        self.mods: list[str] = []  # module of each open span
        self.op = None
        self.counters = {"evals": 0, "roots": 0}

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str, module: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, 0.0, parent, self.op, 0])
        self.stack.append(len(self.spans) - 1)
        self.mods.append(module)

    def _close(self) -> None:
        span = self.spans[self.stack.pop()]
        self.mods.pop()
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START]

    def _crosses(self, module: str) -> bool:
        """True inside an op when the caller belongs to another module."""
        return self.op is not None and self.mods[-1] != module

    def begin_op(self, op_id, name: str) -> None:
        self.op = op_id
        self._open(f"op.{name}", "op")

    def end_op(self) -> None:
        while self.stack:
            self._close()
        self.op = None

    # -- wrappers ----------------------------------------------------------
    def _call(self, name: str, module: str, fn, args, kwargs):
        if not self._crosses(module):
            return fn(*args, **kwargs)
        self._open(name, module)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _iterate(self, name: str, module: str, it):
        span = None
        for_caller = False
        while True:
            t0 = time.perf_counter()
            if span is None and self._crosses(module):
                self.spans.append([name, t0, t0, 0.0, self.stack[-1], self.op, 0])
                span = len(self.spans) - 1
                for_caller = True
            if not (for_caller and self.op is not None):
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item
                continue
            self.stack.append(span)
            self.mods.append(module)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.stack.pop()
                self.mods.pop()
                rec = self.spans[span]
                rec[END] = time.perf_counter()
                rec[BUSY] += rec[END] - t0
            rec[ITEMS] += 1
            yield item

    def _callback(self, fn, role: str):
        origin = fn.__module__.rsplit(".", 1)[-1]
        name = f"{origin}.{role}"

        def traced(*args, **kwargs):
            if role == "h" and self.op is not None:
                self.counters["evals"] += 1
            return self._call(name, origin, fn, args, kwargs)

        return traced

    def _wrap(self, fn, module: str):
        name = f"{module}.{fn.__name__}"
        is_solver = fn.__name__ == "bisect_newton"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if is_solver:
                self.counters["roots"] += 1
                h, h_prime, *rest = args
                args = (self._callback(h, "h"), self._callback(h_prime, "h_prime"), *rest)
            result = self._call(name, module, fn, args, kwargs)
            if isinstance(result, Iterator):
                return self._iterate(f"{name}.next", module, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every public function in every namespace binding it."""
        mods = minkdim_modules()
        wrapped: dict[int, types.FunctionType] = {}
        for mod in mods:
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                    and not getattr(value, "__wrapped_by_tracer__", False)
                ):
                    wrapped[id(value)] = self._wrap(value, mod.__name__.rsplit(".", 1)[-1])
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and isinstance(value, types.FunctionType):
                    setattr(mod, attr, wrapped[id(value)])

    # -- output ----------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def summarize(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-module self time and calls, and the counters, from one span list.

    ``parent`` indexes into the same list, so spans gathered from several
    tracers are re-based (``rebase``) before they are concatenated.
    """
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_busy[span[PARENT]] += span[BUSY]
    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = 0.0
        out[f"{m}.calls"] = 0
    out["empirical_dim.cylinders"] = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        module = name.split(".", 1)[0]
        if module not in MODULES:
            continue
        out[f"{module}.self_s"] += span[BUSY] - child_busy[i]
        if not name.endswith(".next"):
            out[f"{module}.calls"] += 1
        elif spans[span[PARENT]][NAME].startswith("empirical_dim."):
            out["empirical_dim.cylinders"] += span[ITEMS]
    out["moran_solver.evals"] = counters["evals"]
    out["moran_solver.evals_per_root"] = counters["evals"] / counters["roots"] if counters["roots"] else 0.0
    return out


def rebase(spans: list[list], offset: int) -> list[list]:
    """Shift parent indices of a dumped span list appended at ``offset``."""
    for span in spans:
        if span[PARENT] >= 0:
            span[PARENT] += offset
    return spans
