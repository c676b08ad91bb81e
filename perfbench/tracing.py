"""Span tracer for the traced benchmark run.

The tracer replaces the public functions of each weakinfo layer with
wrappers that record a span (name, start, end, parent) or just a call
count.  Functions are wrapped through their module attributes
(`weakinfo.complete.solve`, not the `weakinfo.solve` re-export), so calls a
module makes to its own functions are caught too.  Spans stay in memory
and are written out once, when the run ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Children can overlap when a layer fans work out to
threads (the sweep's thread pool), so the covered part is the length of
the union of the child intervals, not their sum.
"""
from __future__ import annotations

import functools
import inspect
import threading
import time
from fractions import Fraction

LAYERS = ("utility", "markets", "measures", "complete", "trinomial", "cli")

# Methods are not module attributes; these are the ones the per-layer
# metrics need: (module, class, method, span name).
METHODS = (
    ("utility", "Utility", "evaluate", "utility.evaluate"),
    ("utility", "Utility", "marginal", "utility.marginal"),
    ("utility", "Utility", "inverse_marginal", "utility.inverse_marginal"),
    ("utility", "Utility", "inverse_marginal_prime", "utility.inverse_marginal_prime"),
    ("utility", "Utility", "conjugate", "utility.conjugate"),
    ("markets", "CompleteMarket", "__init__", "markets.complete_market_init"),
    ("markets", "CompleteMarket", "transition_probabilities", "markets.transition_probabilities"),
    ("markets", "CompleteMarket", "price_matrix", "markets.price_matrix"),
    ("measures", "BinomialMeasureTree", "path_probability", "measures.path_probability"),
    ("cli", "RunContext", "finish", "cli.finish"),
)

# Leaf functions called once per path or per output number: a span each
# would cost more than the work it times, so only their calls are counted.
COUNT_ONLY = frozenset({
    "measures.path_probability",
    "trinomial.path_index",
    "cli.format_number",
})


def _variant(name, args, kwargs):
    """Span-name suffix that splits a function by the route it takes."""
    if name == "complete.solve_lambda":
        return name + "." + kwargs.get("method", "closed")
    if name == "measures.minimal_measure":
        base = args[0] if args else kwargs["base"]
        exact = isinstance(base.up[0][0], (int, Fraction)) if base.up else False
        return name + (".exact" if exact else ".float")
    return name


class Tracer:
    """In-memory span and call-count recorder, safe across threads.

    A span opened on a thread with no open span of its own takes as parent
    the innermost open span of the thread that created the tracer: pool
    workers run on behalf of whatever the main thread is doing.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.counts[name] = self.counts.get(name, 0) + 1
        stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(_variant(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def install(self, package):
        """Wrap every public function of each layer module, plus METHODS."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, self.wrap("%s.%s" % (layer, attr), value))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = union_length(children.get(index, ()), start, end)
        out.append(end - start - covered)
    return out


class SpanTotals:
    """Per-name totals over one or more span trees (one per process)."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}

    def add(self, spans, counts):
        for name, n in counts.items():
            self.calls[name] = self.calls.get(name, 0) + n
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)

    def calls_of(self, name: str) -> int:
        # variant spans ("complete.solve_lambda.closed") count as calls of
        # the function they split
        return sum(n for key, n in self.calls.items() if key == name or key.startswith(name + "."))

    def metric(self, metric: str) -> float:
        """Resolve `<span>.calls`, `<span>.self_s` or `<span>.<variant>_self_s`."""
        if metric.endswith(".calls"):
            return float(self.calls_of(metric[: -len(".calls")]))
        if metric.endswith(".self_s"):
            return self.self_s.get(metric[: -len(".self_s")], 0.0)
        if metric.endswith("_self_s"):
            return self.self_s.get(metric[: -len("_self_s")], 0.0)
        raise KeyError(metric)
