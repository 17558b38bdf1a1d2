"""Span tracing of edimlab's layers, done from outside the package.

`Tracer.install` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and operation id.  Two kinds
of attribute are wrapped:

* every function that a layer module imported from another layer module
  (for example the `edge_metric_dimension` that `theorems` imports, or the
  `all_pairs_distances` that `resolver` imports), in the importing
  module's namespace;
* the functions in ENTRY_POINTS, in their own module's namespace, because
  other layers or the benchmark look them up there at call time (the
  sweeps import `experiments._connected_graph_from_mask` inside the
  block function, `min_joint_cover` calls `metric_dimension` through the
  resolver globals, the pool pickles `theorems._sweep_block` by name).

Spans live in flat arrays in memory and are written out by `write`.
A forked child (a sweep worker) stops recording, so only spans of the
parent process exist.  `uninstall` puts every original back.
"""

import functools
import gzip
import inspect
import os
import time
import types
from array import array
from collections import Counter
from math import comb

ENTRY_POINTS = {
    "cli": ("main",),
    "experiments": ("_connected_graph_from_mask", "survey_triples", "_survey_block"),
    "theorems": ("_sweep_block",),  # plus every check_* function
    "resolver": (
        "metric_dimension",
        "edge_metric_dimension",
        "min_joint_cover",
        "is_vertex_generator",
        "is_edge_generator",
    ),
    "graph": ("all_pairs_distances",),
}

# short span names for the functions the per-layer metrics are named after
ALIASES = {
    "_connected_graph_from_mask": "decode",
    "all_pairs_distances": "apd",
    "metric_dimension": "dim",
    "edge_metric_dimension": "edim",
    "min_joint_cover": "joint",
    "is_vertex_generator": "generator_check",
    "is_edge_generator": "generator_check",
    "write_graph6": "graph6",
    "parse_graph6": "graph6",
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _span_name(fn) -> str:
    return f"{_layer(fn.__module__)}.{ALIASES.get(fn.__name__, fn.__name__)}"


def _count_decode(counts, args, kwargs, result):
    if result is not None:
        counts["experiments.graphs_enumerated"] += 1


def _solve_counter(objects):
    """Counts the object pairs a solve must separate, and the bases it lists."""

    def count(counts, args, kwargs, result):
        counts["resolver.pairs"] += comb(objects(args[0]), 2)
        if kwargs.get("want_all_bases") or (len(args) > 1 and args[1]):
            counts["resolver.bases_enumerated"] += len(result.all_bases)

    return count


def _count_blocks(counts, args, kwargs, result):
    counts["par.blocks"] += len(args[1])


# span name -> fn(counts, args, kwargs, result), run after the call returns
COUNTERS = {
    "experiments.decode": _count_decode,
    "resolver.dim": _solve_counter(lambda g: g.n),
    "resolver.edim": _solve_counter(lambda g: g.m),
    "par.run_blocks": _count_blocks,
}


class Tracer:
    """Records spans and counts for the wrapped layer boundaries of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.recording = False
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    def _wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        name = _span_name(fn)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        count = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        # same module and qualname, so the sweep pool still pickles it by name
        functools.update_wrapper(wrapper, fn)
        setattr(module, attr, wrapper)
        self._saved.append((module, attr, fn))

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap the layer boundaries of `modules` (layer name -> module)."""
        layer_modules = {m.__name__ for m in modules.values()}
        for layer, module in modules.items():
            own = list(ENTRY_POINTS.get(layer, ()))
            if layer == "theorems":
                own += [a for a in vars(module) if a.startswith("check_")]
            imported = [
                attr for attr, obj in vars(module).items()
                if isinstance(obj, types.FunctionType)
                and obj.__module__ in layer_modules
                and obj.__module__ != module.__name__
                and not inspect.isgeneratorfunction(obj)
            ]
            for attr in own + imported:
                self._wrap(module, attr)
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def summary(self) -> tuple[dict[str, int], dict[str, float], dict[str, float], float]:
        """(calls per span name, self seconds per span name, self seconds per layer, root seconds).

        A span's self time is its duration minus the durations of its
        direct children; children of one span never overlap because the
        traced code is single-threaded in this process.
        """
        count = len(self.start)
        child = [0.0] * count
        root = 0.0
        for i in range(count):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            else:
                root += dur
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(count):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        layers: Counter = Counter()
        for name, s in self_s.items():
            layers[name.split(".", 1)[0]] += s
        return dict(calls), dict(self_s), dict(layers), root

    def write(self, path) -> None:
        """One tab-separated line per span: span, parent, op, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op_of[i]}\t{names[self.name_of[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
