"""Declarative structure files.

A structure file declares a chart and the three structure tensors in a
small line-oriented format; blank lines and ``#`` comments are ignored:

    chart x [-1.5, 1.5]
    chart y [-1.5, 1.5]
    chart z [-1.5, 1.5]
    seed 7

    eta x = -y
    eta z = 1

    g x x = 1/2 + y^2
    g x z = -y
    g y y = 1/2
    g z z = 1

    phi x y = 1
    phi y x = -1
    phi z y = y

``chart`` lines fix the coordinate order; omitted components are zero; the
metric is symmetrized automatically, and giving both (a, b) and (b, a)
with different expressions is an error.  Component expressions use the
grammar of :func:`metsymp.expressions.parse_expression`: + - * / ^ with a
constant exponent, exp, sin, cos, sqrt, numbers, pi, e, and the declared
coordinate names.  All parse errors carry a line and column.
"""

from __future__ import annotations

import re

import numpy as np

from .charts import Chart
from .contact import ContactMetricStructure
from .errors import GeometryError
from .expressions import Const, ExpressionSyntaxError, parse_expression
from .fields import TensorField

__all__ = ["StructureFileError", "parse_structure_text", "load_structure_file"]


class StructureFileError(ValueError):
    """Structure file problem, with a 1-based line (and column if known)."""

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


_CHART_RE = re.compile(
    r"^chart\s+(\w+)\s*\[\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\]\s*$"
)
_SEED_RE = re.compile(r"^seed\s+(-?\d+)\s*$")
_COMP_RE = re.compile(r"^(eta|g|phi)\s+(\w+)(?:\s+(\w+))?\s*=\s*(.+)$")


def parse_structure_text(text: str, name: str = "<string>") -> ContactMetricStructure:
    coord_names: list[str] = []
    intervals: list[tuple[float, float]] = []
    seed = 0
    eta_entries: dict[int, tuple] = {}
    g_entries: dict[tuple[int, int], tuple] = {}
    phi_entries: dict[tuple[int, int], tuple] = {}

    lines = text.splitlines()
    in_components = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CHART_RE.match(line)
        if m:
            if in_components:
                raise StructureFileError("chart lines must precede components", lineno)
            cname, lo, hi = m.group(1), float(m.group(2)), float(m.group(3))
            if cname in coord_names:
                raise StructureFileError(f"duplicate coordinate {cname!r}", lineno)
            if not lo < hi:
                raise StructureFileError(f"empty interval for {cname!r}", lineno)
            coord_names.append(cname)
            intervals.append((lo, hi))
            continue
        m = _SEED_RE.match(line)
        if m:
            seed = int(m.group(1))
            continue
        m = _COMP_RE.match(line)
        if m:
            in_components = True
            kind, c1, c2, rhs = m.group(1), m.group(2), m.group(3), m.group(4)
            if not coord_names:
                raise StructureFileError("component before any chart line", lineno)

            def coord_index(cn: str) -> int:
                if cn not in coord_names:
                    raise StructureFileError(
                        f"unknown coordinate {cn!r} (chart has {coord_names})", lineno
                    )
                return coord_names.index(cn)

            column_offset = raw.index("=") + 2 if "=" in raw else 1
            try:
                expr = parse_expression(rhs, coord_names, line=lineno)
            except ExpressionSyntaxError as err:
                raise StructureFileError(str(err).split(": ", 1)[1],
                                         lineno, err.column + column_offset - 1) from None
            if kind == "eta":
                if c2 is not None:
                    raise StructureFileError("eta takes one coordinate", lineno)
                i = coord_index(c1)
                if i in eta_entries:
                    raise StructureFileError(f"duplicate eta component {c1!r}", lineno)
                eta_entries[i] = (expr, lineno)
            else:
                if c2 is None:
                    raise StructureFileError(f"{kind} takes two coordinates", lineno)
                i, j = coord_index(c1), coord_index(c2)
                if kind == "g":
                    key = (min(i, j), max(i, j))
                    if key in g_entries:
                        raise StructureFileError(
                            f"duplicate metric component {c1} {c2}", lineno)
                    g_entries[key] = (expr, lineno)
                else:
                    if (i, j) in phi_entries:
                        raise StructureFileError(
                            f"duplicate phi component {c1} {c2}", lineno)
                    phi_entries[(i, j)] = (expr, lineno)
            continue
        raise StructureFileError(f"unrecognized line {line!r}", lineno)

    if not coord_names:
        raise StructureFileError("no chart lines found", max(1, len(lines)))
    d = len(coord_names)
    if d % 2 == 0:
        raise StructureFileError(f"chart dimension {d} is even; need odd", 1)
    if not eta_entries:
        raise StructureFileError("no eta components given", max(1, len(lines)))
    if not g_entries:
        raise StructureFileError("no metric components given", max(1, len(lines)))

    chart = Chart(tuple(coord_names), tuple(intervals), sampler_seed=seed)
    eta_c = np.empty(d, dtype=object)
    eta_c[...] = Const(0.0)
    for i, (expr, _) in eta_entries.items():
        eta_c[i] = expr
    g_c = np.empty((d, d), dtype=object)
    g_c[...] = Const(0.0)
    for (i, j), (expr, _) in g_entries.items():
        g_c[i, j] = expr
        g_c[j, i] = expr
    phi_c = np.empty((d, d), dtype=object)
    phi_c[...] = Const(0.0)
    for (i, j), (expr, _) in phi_entries.items():
        phi_c[i, j] = expr

    eta = TensorField.covector(chart, eta_c)
    g = TensorField(chart, 0, 2, g_c, "symmetric")
    phi = TensorField(chart, 1, 1, phi_c)

    # reject non-Riemannian input early; downstream eigensolves assume a
    # positive definite metric.  The eigenvalue test is relative to the
    # largest eigenvalue, so it does not depend on the scale of g.
    pts = chart.samples(16)
    gv = g.values(pts)
    finite = np.isfinite(gv).all(axis=(1, 2))
    eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], gv, 0.0))   # ascending
    bad = np.flatnonzero(eigs[:, 0] <= 1e-12 * eigs[:, -1])
    if bad.size:
        k = bad[0]
        what = ("not finite" if not finite[k] else "not positive definite (smallest "
                f"eigenvalue {eigs[k, 0]:.3e} against largest {eigs[k, -1]:.3e})")
        raise StructureFileError(f"metric is {what} at sample point {pts[k].tolist()}", 1)
    try:
        return ContactMetricStructure.build(chart, eta, g, phi)
    except GeometryError as err:
        raise StructureFileError(f"structure rejected: {err}", 1) from err


def load_structure_file(path) -> ContactMetricStructure:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_structure_text(text, name=str(path))
