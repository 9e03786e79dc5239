"""Spans around wasserline's public callables, recorded from outside.

``Tracer.install`` wraps every public function, every public class's
constructor and every public method defined in the layer modules, and
rebinds each wrapped function wherever a wasserline module bound it by
name (``from .plf import on_common_grid`` and the package re-exports),
so calls made inside the library are seen too.  ``uninstall`` puts the
originals back.

A span is (name, start, end, parent, operation id); spans live in
compact arrays until ``write_spans``.  Per-name totals are kept as the
spans close: calls, failures (the call raised) and self time (the
span's duration minus the durations of its direct children), plus the
size counters named in SIZE_COUNTERS.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "plf",
    "measures",
    "metric",
    "isometries",
    "interval",
    "midpoints",
    "sampling",
    "reports",
    "suites",
    "cli",
)


def _grid_nodes(args, result):
    return len(args[1])


def _grid_identity(args, result):
    return 1 if result is args[0] else 0


def _cells(args, result):
    return int(np.size(args[0]))


def _segments(args, result):
    return args[0].num_segments


def _atoms(args, result):
    return result.quantile.num_segments


# span name -> {counter: f(args, result) -> amount}
SIZE_COUNTERS = {
    "plf.PLF.on_grid": {"nodes": _grid_nodes, "identity": _grid_identity},
    "plf.abs_pow_cells": {"cells": _cells},
    "plf.PLF.inverse": {"segments": _segments},
    "measures.from_atoms": {"atoms": _atoms},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = 0
        # while paused (oracle checks), wrapped calls record nothing
        self.paused = False
        # open spans: [index, start, child time]
        self._stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.fails: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sizes: dict[str, dict[str, int]] = {}
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    # recording

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([index, start, 0.0])

    def leave(self, name: str, failed: bool) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if failed:
            self.fails[name] = self.fails.get(name, 0) + 1

    def count(self, name: str, counter: str, amount: int) -> None:
        bucket = self.sizes.setdefault(name, {})
        bucket[counter] = bucket.get(counter, 0) + amount

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, name: str, fn, by_kind: bool = False):
        tracer = self
        counters = SIZE_COUNTERS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = f"{name}.{type(args[0]).__name__}" if by_kind else name
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(span, True)
                raise
            tracer.leave(span, False)
            for counter, amount in counters.items():
                tracer.count(name, counter, amount(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of every layer module."""
        replaced: dict[int, tuple] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wasserline.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    by_kind = (layer, attr) == ("isometries", "apply")
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, by_kind))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for module in [m for n, m in sys.modules.items() if n == "wasserline" or n.startswith("wasserline.")]:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, obj))

    def _wrap_class(self, name: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{name}.{attr}", raw)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{name}.{attr}", raw.__func__))
            else:
                continue
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # output

    def table(self) -> dict[str, float]:
        """Per-layer counters: calls, fail, self_s and the size counters."""
        out: dict[str, float] = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.fail"] = self.fails.get(name, 0)
            out[f"{name}.self_s"] = self.self_s[name]
        for name, bucket in self.sizes.items():
            for counter, amount in bucket.items():
                out[f"{name}.{counter}"] = amount
        calls = self.calls.get("plf.PLF.on_grid", 0)
        if calls:
            out["plf.PLF.on_grid.identity_ratio"] = self.sizes["plf.PLF.on_grid"]["identity"] / calls
        distances = self.calls.get("metric.wasserstein_distance", 0)
        if distances:
            out["plf.PLF.per_distance"] = self.calls.get("plf.PLF", 0) / distances
        return out

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
