"""Per-layer spans and counters for an in-process replay of benchmark jobs.

The program is not edited: `Tracer.install` replaces every public function
of the traced modules, in every proxitri namespace that holds it (so
`from .geometry import orientation` bindings are covered too), with a
wrapper that counts the call and records a span. A span is opened only at
a layer boundary, that is when the caller's innermost span belongs to
another module; a call inside the same module is counted and its time
stays in the caller's span. Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("io", "delaunay", "voronoi", "regions", "render", "proximity", "geometry", "checks", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, kept in flat arrays so that the hundreds of
        # thousands of spans of a `check` pass stay small in memory.
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.current_job = -1
        self._stack: list[list] = []  # [span id, layer, child seconds, name]
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        frame = [sid, layer, 0.0, name]
        self._stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        t1 = perf_counter()
        sid, layer, child, name = frame
        self.end[sid] = t1
        self._stack.pop()
        dur = t1 - self.start[sid]
        self.self_s[name] += dur - child
        self.layer_self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str, layer: str):
        frame = self._open(name, layer)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn, name_of=None, observe=None):
        tracer = self
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            stack = tracer._stack
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = tracer._open(name_of(args) if name_of else qualname, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return wrapper

    def install(self, hooks: dict) -> None:
        """Wrap the public functions of every layer module.

        `hooks` maps "module.function" to (name_of, observe): name_of(args)
        renames the span, observe(counts, args, result) updates counters.
        """
        modules = {layer: importlib.import_module(f"proxitri.{layer}") for layer in LAYERS}
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                qualname = f"{layer}.{name}"
                name_of, observe = hooks.get(qualname, (None, None))
                originals[id(fn)] = self._wrap(layer, qualname, fn, name_of, observe)
        package = importlib.import_module("proxitri")
        for ns in [package, *modules.values()]:
            for name, value in list(vars(ns).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, name, value))
                    setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, value in reversed(self._patched):
            setattr(ns, name, value)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as a tab-separated line; times are seconds since
        the tracer was made."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            names, t0 = self.names, self.t0
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{names[self.name_id[sid]]}\t{self.start[sid] - t0:.6f}\t"
                    f"{self.end[sid] - t0:.6f}\t{self.parent[sid]}\t{self.job[sid]}\n"
                )
