"""Span tracer that wraps the public functions of every gkmflag module.

The wrappers live only in the benchmark: ``install`` swaps each public
function or method for a timing wrapper (in the defining module and in
every gkmflag module that imported it by name) and ``uninstall`` puts
the originals back, so an untraced pass runs the unmodified program.

Each call records a span (name, start, end, parent) in flat arrays kept
in memory; self time is the span's duration minus the time its child
spans cover, accumulated per name as calls return.  Code that is not
wrapped (private helpers, ``__eq__``/``__hash__``, properties) counts as
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ["polyring", "linalg", "rootsys", "gkmgraph", "parabolic",
          "schubert", "invbases", "cli"]

# Operators wrapped besides the public (non-underscore) methods.  Equality
# and hashing stay unwrapped: they run inside every dict lookup.
_DUNDERS = {"__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__matmul__"}
# Constructors wrapped so that the number of builds can be counted.
_CONSTRUCTORS = {("parabolic", "CosetGraph")}
# Spans shorter than this appear in the written trace only through the totals.
MIN_SPAN_S = 1e-3
# Parents under which a coh_failure call is a re-check of a ring operation.
_RECHECK_PARENTS = {"gkmgraph.CohClass.__add__", "gkmgraph.CohClass.__sub__",
                    "gkmgraph.CohClass.__mul__", "gkmgraph.CohClass.scale_poly"}


class Tracer:
    """Spans of one traced pass, held in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child time] per open span
        self._patches: list[tuple] = []
        self._active = [True]  # cleared by ``paused``

    # ------------------------------------------------------------------
    # wrapping

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        sid = self._name_id(name)
        stack = self._stack
        calls, self_time = self.calls, self.self_time
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(s_name)
            s_name.append(sid)
            s_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            s_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                s_end[idx] = t1
                calls[sid] += 1
                self_time[sid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self):
        """Wrap the public functions and methods that each layer defines."""
        modules = {m: importlib.import_module(f"gkmflag.{m}") for m in LAYERS}
        replaced = {}  # id(original) -> wrapper; the originals stay alive in _patches
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # rebind module globals, including names imported from other layers
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _wrap_class(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue  # properties, classmethods, staticmethods
            wanted = (not attr.startswith("_") or attr in _DUNDERS
                      or (attr == "__init__" and (layer, cls.__name__) in _CONSTRUCTORS))
            if wanted:
                self._patches.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(obj, f"{layer}.{cls.__name__}.{attr}"))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results

    def _id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no traced function named {name}") from None

    def count(self, name: str) -> int:
        return self.calls[self._id(name)]

    def self_s(self, name: str) -> float:
        return self.self_time[self._id(name)]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix))

    def count_under(self, name: str, parents=None, ancestor=None) -> int:
        """Spans of ``name`` whose parent is in ``parents``, or that have
        ``ancestor`` somewhere above them."""
        sid = self._id(name)
        parent_ids = {self._id(p) for p in parents} if parents else set()
        anc_id = self._id(ancestor) if ancestor else None
        names, parent_of = self.span_name, self.span_parent
        n = 0
        for idx in range(len(names)):
            if names[idx] != sid:
                continue
            par = parent_of[idx]
            if parents is not None:
                n += par >= 0 and names[par] in parent_ids
                continue
            while par >= 0 and names[par] != anc_id:
                par = parent_of[par]
            n += par >= 0
        return n

    def recheck_calls(self) -> int:
        return self.count_under("gkmgraph.coh_failure", parents=_RECHECK_PARENTS)

    def nspans(self) -> int:
        return len(self.span_name)

    def write(self, path):
        """Dump per-name totals and the spans of at least MIN_SPAN_S as JSON.

        A parent lasts at least as long as each child, so the kept spans
        form a closed tree; shorter spans appear only in the totals.
        Times are in microseconds from the first span.
        """
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        start, end, parent = self.span_start, self.span_end, self.span_parent
        kept = {}
        rows = []
        for idx in range(len(self.span_name)):
            if end[idx] - start[idx] >= MIN_SPAN_S:
                kept[idx] = len(rows)
                par = parent[idx]
                rows.append([self.span_name[idx], round((start[idx] - t0) * 1e6, 1),
                             round((end[idx] - t0) * 1e6, 1), kept[par] if par >= 0 else -1])
        doc = {
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_time,
            "min_span_us": MIN_SPAN_S * 1e6,
            "spans_recorded": self.nspans(),
            "fields": ["name", "start_us", "end_us", "parent"],
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
