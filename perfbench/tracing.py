"""Spans around calls into opturan's public functions, recorded from outside
the package.

`Tracer.install()` replaces every public function of each layer module with
a timing wrapper.  Callers bind functions by name (`extremal_search` does
`from .graph_core import cycle_histogram`), so the wrapper is written into
every opturan module that holds the original, not only the defining one.
`Mop.__post_init__` (validation) and the `Mop.graph` property get wrappers
too.  `uninstall()` puts every original back.  No file of the package is
touched.

A span is (name, parent index, start, end).  Generator functions get one
span per resumption, so time spent by the consumer between items is not
charged to the generator.  Self time is a span's duration minus the part of
it that child spans cover; see `self_times`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, NamedTuple

LAYERS = ("graph_core", "tree_engine", "exactmath", "numeral_paths",
          "extremal_search", "cli")


class Span(NamedTuple):
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the length
    of the union of its children's intervals, clipped to the span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        clipped = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                         for c in children[i])
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - covered
    return out


# A hook sees the tracer, the call's keyword arguments and its result, and
# adds counts measured at the layer boundary.
Hook = Callable[["Tracer", dict, object], None]


class Tracer:
    """Records spans and counts for one process; install, run, uninstall."""

    def __init__(self, hooks: dict[str, Hook] | None = None):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._hooks = hooks or {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen: set[int] = set()

    def first_sight(self, obj) -> bool:
        """True the first time this object is passed in (hooks use it to
        tell a freshly built cached value from a cache hit)."""
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        return True

    def _timed(self, name: str, call, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, parent, start, end)

    def wrap(self, name: str, fn):
        """Timing wrapper for fn, counted under `name.calls` (and, for
        generator functions, `name.yielded`)."""
        timed, counts, hook = self._timed, self.counts, self._hooks.get(name)
        calls_key = name + ".calls"
        if inspect.isgeneratorfunction(fn):
            yielded_key = name + ".yielded"

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                counts[calls_key] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = timed(name, next, it)
                        except StopIteration:
                            return
                        counts[yielded_key] += 1
                        yield item
                finally:
                    it.close()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(name, fn, *args, **kwargs)
            counts[calls_key] += 1
            if hook is not None:
                hook(self, kwargs, result)
            return result

        return wrapper

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"opturan.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                replacements[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "opturan" and not module_name.startswith("opturan."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        from opturan.graph_core import Mop
        post_init = vars(Mop)["__post_init__"]
        graph = vars(Mop)["graph"]
        self._patch(Mop, "__post_init__", self.wrap("graph_core.Mop.validate", post_init))
        self._patch(Mop, "graph", property(self.wrap("graph_core.Mop.graph", graph.fget)))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)
