"""Span recorder for the autoserve benchmark.

`SpanRecorder.install()` wraps every public function and every public
method of every public class defined in the autoserve layers, at every
module-level binding in `autoserve.*`: `transport` binds `encode_frame`
and `decode_frame` at import, and `sim` binds `message_to_fields`, so
patching only the defining module would miss their calls. Class methods
are patched once, on the class, which every binding shares.

Each call records one span: name, start, end (perf_counter ns) and the
index of the enclosing span (-1 at top level). Spans stay in memory in
flat arrays and are written out with `save()` when the run ends.
`analyse()` turns them into per-layer self times and the per-tick phase
split. A span's self time is its duration minus the time covered by its
child spans, so the self times of all spans sum to the root span's
duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from enum import Enum

import numpy as np

LAYERS = ("wire", "transport", "reservation", "lp_node", "ap_node", "routing", "sim", "cli")

# Tick phases in run order, each starting at the first top-level call of
# one of its marker spans within the tick. The trace phase starts once the
# LP ticks and the sends they trigger are done: at the end of the last
# top-level span after the first LP tick that is not a trace record.
PHASE_MARKERS = (
    ("deliver", ("transport.InMemoryBus.pop_due",)),
    ("physics", ("sim.sample_consumption", "sim.sample_displacement")),
    ("ap_tick", ("ap_node.ApNode.tick",)),
    ("lp_tick", ("lp_node.LpNode.tick",)),
)
TRACE_RECORD = "sim.TraceWriter.record"


def _is_public_class(obj, module_name: str) -> bool:
    return (
        inspect.isclass(obj)
        and obj.__module__ == module_name
        and not obj.__name__.startswith("_")
        and not issubclass(obj, (Enum, BaseException))
    )


class SpanRecorder:
    """Wraps the autoserve layers and records one span per call."""

    def __init__(self, hooks=None):
        # hooks: span name -> callable(args, result), run after the span
        # closes, for counts that need the call's arguments or result.
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.codes = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        code = len(self.names)
        self.names.append(name)
        codes_append = self.codes.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append
        parents_append = self.parents.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter_ns
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(ends)
            codes_append(code)
            parents_append(stack[-1])
            ends_append(0)
            push(index)
            starts_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()
            if hook is not None:
                hook(args, result)
            return result

        return span

    def install(self) -> None:
        package = importlib.import_module("autoserve")
        modules = {layer: importlib.import_module(f"autoserve.{layer}") for layer in LAYERS}
        wrapped_functions = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped_functions[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif _is_public_class(obj, module.__name__):
                    self._wrap_class(layer, obj)
        # Replace every module-level binding of a wrapped function.
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped_functions:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped_functions[obj])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                replacement = self._wrap(raw, name)
            elif isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, name))
            else:
                continue  # properties and data attributes
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self):
        return (
            np.frombuffer(self.codes, dtype=np.uint16),
            np.frombuffer(self.starts, dtype=np.int64),
            np.frombuffer(self.ends, dtype=np.int64),
            np.frombuffer(self.parents, dtype=np.int32),
        )

    def save(self, path: str) -> None:
        codes, starts, ends, parents = self.arrays()
        np.savez(
            path, names=np.array(self.names), code=codes, start=starts, end=ends, parent=parents
        )

    def analyse(self) -> "SpanStats":
        return SpanStats(self.names, *self.arrays())


class SpanStats:
    """Self times, call counts and the phase split of one recorded run."""

    def __init__(self, names, codes, starts, ends, parents):
        self.names = list(names)
        self.code_of = {name: i for i, name in enumerate(self.names)}
        self.codes = codes
        self.starts = starts
        self.ends = ends
        self.parents = parents
        self.count = len(codes)
        n_names = len(self.names)
        self.durations = ends - starts
        child = parents >= 0
        covered = np.bincount(
            parents[child], weights=self.durations[child], minlength=self.count
        )
        self.self_ns = self.durations - covered
        self.self_by_code = np.bincount(codes, weights=self.self_ns, minlength=n_names)
        self.calls_by_code = np.bincount(codes, minlength=n_names)

    def nested(self) -> bool:
        """Every span lies within its parent's interval."""
        child = self.parents >= 0
        parent = self.parents[child]
        return bool(
            np.all(self.starts[child] >= self.starts[parent])
            and np.all(self.ends[child] <= self.ends[parent])
            and np.all(self.durations >= 0)
        )

    def calls(self, name: str) -> int:
        code = self.code_of.get(name)
        return int(self.calls_by_code[code]) if code is not None else 0

    def self_s(self, name: str) -> float:
        code = self.code_of.get(name)
        return float(self.self_by_code[code]) / 1e9 if code is not None else 0.0

    def median_us(self, name: str) -> float:
        code = self.code_of.get(name)
        if code is None or not self.calls_by_code[code]:
            return 0.0
        return float(np.median(self.durations[self.codes == code])) / 1e3

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for code, name in enumerate(self.names):
            totals[name.split(".", 1)[0]] += float(self.self_by_code[code]) / 1e9
        return totals

    def layer_entries(self, layer: str) -> np.ndarray:
        """Indices of spans of `layer` entered from outside that layer."""
        in_layer = np.array([n.split(".", 1)[0] == layer for n in self.names], dtype=bool)
        mine = in_layer[self.codes]
        parent_in_layer = np.zeros(self.count, dtype=bool)
        has_parent = self.parents >= 0
        parent_in_layer[has_parent] = mine[self.parents[has_parent]]
        return np.flatnonzero(mine & ~parent_in_layer)

    def phases_s(self) -> dict[str, float]:
        """Per-tick phase split of the spans directly under the root.

        A tick runs from one pop_due call to the next (the last tick ends
        with the root span). A phase whose marker does not occur in a tick
        takes no time in it; the phase before it runs on.
        """
        totals = {phase: 0 for phase, _ in PHASE_MARKERS}
        totals["trace"] = 0
        roots = np.flatnonzero(self.parents < 0)
        if len(roots) != 1:
            return {phase: 0.0 for phase in totals}
        root = int(roots[0])
        phase_of_code = {
            self.code_of[marker]: phase
            for phase, markers in PHASE_MARKERS
            for marker in markers
            if marker in self.code_of
        }
        record_code = self.code_of.get(TRACE_RECORD)

        # Per tick, the start of each phase in the order phases begin.
        ticks: list[dict[str, int]] = []
        for index in np.flatnonzero(self.parents == root):
            code = int(self.codes[index])
            phase = phase_of_code.get(code)
            if phase == "deliver":
                ticks.append({"deliver": int(self.starts[index])})
            elif ticks:
                if phase is not None:
                    ticks[-1].setdefault(phase, int(self.starts[index]))
                if "lp_tick" in ticks[-1] and code != record_code:
                    ticks[-1]["trace"] = int(self.ends[index])

        tick_ends = [tick["deliver"] for tick in ticks[1:]] + [int(self.ends[root])]
        for tick, tick_end in zip(ticks, tick_ends):
            starts = list(tick.items())
            for (phase, start), end in zip(starts, [t for _, t in starts[1:]] + [tick_end]):
                totals[phase] += end - start
        return {phase: ns / 1e9 for phase, ns in totals.items()}
