"""Spans, counters and node counts for the benchmark's traced run.

The traced run swaps timing wrappers in for the public functions of each
layer, for the length of one traced unit, and puts the originals back
afterwards.  A function is replaced under every name that binds it in a
``metsymp`` module, so a call through ``metsymp.suite.fit_kappa_mu`` is
timed just like one through ``metsymp.contact.fit_kappa_mu``.  Nothing
inside the package is edited.

Spans are kept in memory with their name, start, end and parent, and are
written out when the benchmark ends.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from metsymp.expressions import Const, Coord, Expr
from metsymp.jets import Jet2

# (layer, span stem, module, attribute) for every traced call.  The metric
# names are "<layer>.<stem>_s" (time inside the calls) and
# "<layer>.<stem>_calls".  Two functions share a stem where they do one job:
# the cofactor inverse behind every symbolic metric inverse, and the two
# O'Neill tensors.
SPANNED = (
    ("fields", "values", "metsymp.fields", "TensorField.values"),
    ("fields", "jet_blocks", "metsymp.fields", "TensorField.jet_blocks"),
    ("fields", "pullback", "metsymp.fields", "pullback"),
    ("fields", "inverse_metric", "metsymp.fields", "inverse_metric"),
    ("fields", "inverse_metric", "metsymp.fields", "inverse_matrix_exprs"),
    ("fields", "lie_derivative", "metsymp.fields", "lie_derivative"),
    ("curvature", "christoffel_batch", "metsymp.curvature", "christoffel_batch"),
    ("curvature", "riemann_components", "metsymp.curvature", "riemann_components"),
    ("curvature", "covariant_derivative_values", "metsymp.curvature",
     "covariant_derivative_values"),
    ("contact", "build", "metsymp.contact", "ContactMetricStructure.build"),
    ("contact", "d_homothety", "metsymp.contact", "d_homothety"),
    ("contact", "fit_kappa_mu", "metsymp.contact", "fit_kappa_mu"),
    ("contact", "h_eigendecomposition", "metsymp.contact", "h_eigendecomposition"),
    ("contact", "verify_kmu_curvature", "metsymp.contact", "verify_kmu_curvature"),
    ("symplectization", "build", "metsymp.symplectization", "build_metric_symplectization"),
    ("symplectization", "nijenhuis", "metsymp.symplectization", "nijenhuis"),
    ("symplectization", "nijenhuis_norms", "metsymp.symplectization", "nijenhuis_norms"),
    ("symplectization", "translation_isomorphism_check", "metsymp.symplectization",
     "translation_isomorphism_check"),
    ("submersion", "oneill", "metsymp.submersion", "oneill_T"),
    ("submersion", "oneill", "metsymp.submersion", "oneill_A"),
    ("submersion", "verify_fundamental_tensors", "metsymp.submersion",
     "verify_fundamental_tensors"),
    ("submersion", "verify_currel", "metsymp.submersion", "verify_currel"),
    ("submersion", "fit_symplectization_kmu", "metsymp.submersion", "fit_symplectization_kmu"),
    ("suite", "run_suite", "metsymp.suite", "run_suite"),
)

# Jet2 arithmetic and chain-rule entry points, counted as "jets.ops".
# Division is left out: it is one reciprocal and one product, both counted.
JET_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "reciprocal",
           "power", "exp", "sin", "cos", "sqrt")

SPAN_NAMES = tuple(dict.fromkeys(f"{layer}.{stem}" for layer, stem, _, _ in SPANNED))
LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in SPANNED))


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory spans and counters for one traced unit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span, a child of the innermost open span, around a block."""
        span = Span(name, self.clock(), math.nan, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, attr = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Install a tracer's wrappers on the layers; undo them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "metsymp" or name.startswith("metsymp."))]
        try:
            for layer, stem, module_name, attribute in SPANNED:
                owner, attr = _resolve(module_name, attribute)
                raw = owner.__dict__[attr]
                if isinstance(owner, type):
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    wrapped = self.tracer.wrap(f"{layer}.{stem}", fn)
                    self._set(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                    continue
                wrapped = self.tracer.wrap(f"{layer}.{stem}", raw)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, name, wrapped)
            for op in JET_OPS:
                self._set(Jet2, op, self.tracer.count("jets.ops", Jet2.__dict__[op]))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    return [
        (span.end - span.start)
        - _covered(((spans[c].start, spans[c].end) for c in kids), span.start, span.end)
        for span, kids in zip(spans, children)
    ]


def totals_by_name(spans: list[Span]) -> dict[str, float]:
    """Time inside calls of each name, counting a call nested in a call of
    the same name once."""
    totals: dict[str, float] = collections.defaultdict(float)
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            totals[span.name] += span.end - span.start
    return dict(totals)


def self_by_layer(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = collections.defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] += own
    return dict(out)


def unit_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer times and counts of one traced unit.

    Times: "<span>_s" for every traced name and "<layer>.self_s" for every
    layer.  Counts: "<span>_calls" for every traced name and "jets.ops".
    """
    spans = tracer.spans
    totals = totals_by_name(spans)
    layer_self = self_by_layer(spans)
    calls = collections.Counter(span.name for span in spans)
    times = {f"{name}_s": totals.get(name, 0.0) for name in SPAN_NAMES}
    times.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS})
    counts = {f"{name}_calls": calls.get(name, 0) for name in SPAN_NAMES}
    counts["jets.ops"] = tracer.counts.get("jets.ops", 0)
    return times, counts


# ---------------------------------------------------------------------------
# expression DAG size
# ---------------------------------------------------------------------------


def _children(expr) -> list:
    return [c for c in (getattr(expr, "a", None), getattr(expr, "b", None))
            if isinstance(c, Expr)]


def _leaf_data(expr):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Coord):
        return expr.index
    return getattr(expr, "exponent", None)


def node_counts(roots: Iterable) -> tuple[int, int, int]:
    """(tree, shared, unique) node counts of a set of expression roots.

    tree: nodes when every root is expanded as a tree; shared: distinct
    node objects; unique: structurally distinct nodes (same type, leaf
    data and children).
    """
    roots = list(roots)
    size: dict[int, int] = {}
    key: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    stack = [(root, False) for root in roots]
    while stack:
        expr, ready = stack.pop()
        k = id(expr)
        if k in size:
            continue
        kids = _children(expr)
        if not ready:
            stack.append((expr, True))
            stack.extend((c, False) for c in kids if id(c) not in size)
            continue
        size[k] = 1 + sum(size[id(c)] for c in kids)
        signature = (type(expr).__name__, _leaf_data(expr)) + tuple(key[id(c)] for c in kids)
        key[k] = interned.setdefault(signature, len(interned))
    return sum(size[id(root)] for root in roots), len(size), len(interned)
