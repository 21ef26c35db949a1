"""Tensor fields on a chart, and the multilinear calculus.

Components are expression trees (:mod:`metsymp.expressions`), evaluated by
its one evaluator to the order each caller consumes.  A scalar field is a
rank-0 ``TensorField`` (``TensorField.from_scalar``).
``TensorField.values`` and ``SmoothMap.__call__`` evaluate at order 0
(values only); ``TensorField.jet_blocks`` evaluates jets at order 1 (value
and gradient, no Hessian) or 2 (and Hessian), as its caller needs, and
every numeric derivative is taken from those jets.  Values agree bit for
bit at every order, and gradients at orders 1 and 2.  Both are the
one-field case of :func:`evaluate_fields`, which evaluates several fields
at one point set in one walk of the union of their components, so a node
shared within a field or between fields is evaluated once; a caller that
reads several fields at the same points and order asks for them
together.  The first-order operators below (exterior derivative, Lie
derivative, pullback) build their results symbolically, from the partials
cached on each node, so derived fields remain fields and can be
differentiated again without loss.  Where only the values of a
first-order operator are read, its callers form them from order-1 jets
instead (h in :mod:`metsymp.contact`, the torsion in
:mod:`metsymp.symplectization`), with :func:`_masked_contraction`.  A
field itself caches nothing: ``inverse_metric`` builds the inverse on
each call.

Storage.  A ``symmetric`` or ``antisymmetric`` tag means one expression per
index orbit: all permutations of a sorted index hold the same node, odd
permutations of an antisymmetric index hold its negation, and antisymmetric
indices that repeat a slot hold ``ZERO``.  The operators below compute each
entry once, at the sorted index (``_fill``); the constructor keeps an array
already in that form as it is and averages any other orbit once, sharing
the result.  As IEEE addition commutes and x - y = -(y - x), a rank-2
entry is bit for bit the average over both slot orders at its own index;
from rank 3 up the two agree to roundoff.

Convention.  Forms are stored as fully antisymmetric component arrays and
evaluated by plain contraction, and both the wedge product and the exterior
derivative carry the alternating-average normalization:

    (a ^ b) = Alt(a x b),
    (d a)_{i0..ik} = (1/(k+1)) * sum_m (-1)^m  d_{i_m} a_{i0..skip m..ik}.

Under this normalization a contact metric structure satisfies
``d eta(X, Y) = g(X, phi Y)`` with the classical unit constants, which is
what every curvature identity verified by this package expects.  The
package-wide consequences of the choice (for the interior-product form of
the Cartan identity, and for which rescaling of a radial field satisfies
the expansion property of a symplectic form) are exercised explicitly in
the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charts import Chart
from .errors import ChartMismatchError, RankError
from .expressions import (ONE, ZERO, Const, Coord, Expr, Neg, as_expr, evaluate, substitute,
                          sum_of_products)

__all__ = [
    "TensorField",
    "evaluate_fields",
    "SmoothMap",
    "exterior_derivative",
    "wedge",
    "interior_product",
    "lie_derivative",
    "pullback",
    "raise_index",
    "inverse_metric",
    "sup_norm",
]


def sup_norm(*parts) -> float:
    """The residual of a check: the largest absolute entry over all parts.

    Every verifier reduces its sampled defects through this one function.
    Parts are scalars or arrays of any shape; no parts, or only empty ones,
    give 0.0.  Any NaN or infinite entry makes the result ``inf``, so a
    defect that fails to evaluate can never read as a pass.  On finite
    data the result is exact, whatever the order of the parts.
    """
    worst = 0.0
    for part in parts:
        top = float(np.max(np.abs(part), initial=0.0))
        if not top < math.inf:
            return math.inf
        worst = max(worst, top)
    return worst


def _live_partials(T: TensorField) -> tuple[np.ndarray, np.ndarray]:
    """Where T's components and their first partials are not structurally zero.

    ``live[idx]`` is False where the component is the leaf ``ZERO``, and
    ``dlive[idx + (a,)]`` is False where its tree does not read coordinate
    a, so that its partial along a is structurally zero.
    """
    comps = T.components
    live = np.array([not e.is_zero() for e in comps.flat]).reshape(comps.shape)
    support = np.array([e.support for e in comps.flat]).reshape(comps.shape)
    return live, (support[..., None] >> np.arange(T.chart.dim)) & 1 == 1


def _masked_contraction(x: np.ndarray, y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The sum over the last axis of ``x * y``, counting a term only where
    ``mask`` is True; the three broadcast together.

    Masks from :func:`_live_partials` drop the terms with a structurally
    zero factor, as the symbolic operators never build them: such a term
    is 0 even where the other factor is NaN.  No BLAS call is made, so the
    bits do not depend on its thread count.
    """
    return np.where(mask, x * y, 0.0).sum(axis=-1)


# ---------------------------------------------------------------------------
# tensor fields
# ---------------------------------------------------------------------------


def _expr_array(shape: tuple[int, ...]) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr[...] = ZERO
    return arr


def _as_expr_array(components, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    src = np.asarray(components, dtype=object)
    if src.shape != shape:
        raise RankError(f"component array has shape {src.shape}, expected {shape}")
    for idx in np.ndindex(shape):
        arr[idx] = as_expr(src[idx])
    return arr


@functools.lru_cache(maxsize=None)
def _orbits(dim: int, rank: int) -> tuple:
    """The index orbits of ``(dim,) * rank`` under permutations of the slots.

    One ``(rep, members, repeated)`` per orbit: ``rep`` is the sorted
    representative; ``members`` are the ``(index, odd)`` pairs of the
    orbit, the representative first, with ``odd`` telling whether an odd
    permutation takes ``rep`` to the index; ``repeated`` tells whether
    ``rep`` repeats an index (an antisymmetric tensor vanishes on such an
    orbit, and ``odd`` means nothing there).
    """
    table = []
    for rep in itertools.combinations_with_replacement(range(dim), rank):
        members = tuple((idx, _odd(idx)) for idx in sorted(set(itertools.permutations(rep))))
        table.append((rep, members, len(set(rep)) < rank))
    return tuple(table)


def _odd(seq: Sequence[int]) -> bool:
    """Whether sorting ``seq``, of distinct entries, is an odd permutation."""
    return sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 == 1


def _negates(x: Expr, y: Expr) -> bool:
    """Whether ``x`` is structurally ``-y``."""
    if isinstance(x, Const) and isinstance(y, Const):
        return x.value == -y.value
    return (isinstance(x, Neg) and x.a is y) or (isinstance(y, Neg) and y.a is x)


def _average(arr: np.ndarray, idx: tuple[int, ...], sign: int) -> Expr:
    """The (anti)symmetric average of ``arr`` at ``idx``, over all k! slot
    permutations in ``itertools.permutations`` order."""
    k = arr.ndim
    total = sum_of_products(
        (1, Const(-1.0) if sign < 0 and _odd(perm) else ONE, arr[tuple(idx[p] for p in perm)])
        for perm in itertools.permutations(range(k)))
    return Const(1.0 / math.factorial(k)) * total


def _store(out: np.ndarray, members, even: Expr, anti: bool) -> None:
    """Put ``even`` on the even members of an orbit and, in an antisymmetric
    array, its negation on the odd ones."""
    odd = -even if anti and not even.is_zero() else even
    for idx, is_odd in members:
        out[idx] = odd if is_odd else even


def _fill(shape: tuple[int, ...], sym: str, fn) -> np.ndarray:
    """A component array of the given symmetry with ``fn(idx)`` as entries.

    Untagged arrays call ``fn`` at every index.  Tagged ones call it once
    per orbit, at the sorted representative, and share the result over the
    orbit; antisymmetric orbits with a repeated index are ``ZERO`` and call
    nothing.
    """
    out = np.empty(shape, dtype=object)
    if sym == "none":
        for idx in np.ndindex(shape):
            out[idx] = fn(idx)
        return out
    anti = sym == "antisymmetric"
    for rep, members, repeated in _orbits(shape[0], len(shape)):
        _store(out, members, ZERO if anti and repeated else fn(rep), anti)
    return out


def _symmetrize(arr: np.ndarray, sign: int) -> np.ndarray:
    """Canonicalize a pure covariant component array in place, and return it.

    In a canonical array every member of an orbit holds the same node, odd
    members of an antisymmetric orbit hold its negation, and antisymmetric
    orbits with a repeated index hold ``ZERO``.  Orbits already in that form
    are kept as they are; any other orbit is replaced by its average over
    all slot permutations, taken once at the representative and shared.
    """
    anti = sign < 0
    for rep, members, repeated in _orbits(arr.shape[0], arr.ndim):
        head = arr[rep]
        if anti and repeated:
            _store(arr, members, ZERO, anti)
        elif not all(_negates(arr[idx], head) if anti and is_odd else arr[idx] is head
                     for idx, is_odd in members[1:]):
            _store(arr, members, _average(arr, rep, sign), anti)
    return arr


class TensorField:
    """Type (r, s) tensor field with expression components.

    Component array layout: the ``r`` contravariant slots come first, then
    the ``s`` covariant slots.  A declared ``sym`` tag ("symmetric" or
    "antisymmetric", applying to the covariant slots of a purely covariant
    tensor) is enforced structurally: components are stored one expression
    per index orbit (see the module docstring), canonicalized on
    construction.
    """

    __slots__ = ("chart", "r", "s", "components", "sym")

    def __init__(self, chart: Chart, r: int, s: int, components, sym: str = "none"):
        if r < 0 or s < 0:
            raise RankError("tensor ranks must be nonnegative")
        if sym not in ("none", "symmetric", "antisymmetric"):
            raise RankError(f"unknown symmetry tag {sym!r}")
        shape = (chart.dim,) * (r + s)
        arr = _as_expr_array(components, shape)
        if sym != "none":
            if r != 0 or s < 2:
                raise RankError("symmetry tags apply to purely covariant rank >= 2 tensors")
            arr = _symmetrize(arr, -1 if sym == "antisymmetric" else 1)
        arr.setflags(write=False)
        self.chart = chart
        self.r = r
        self.s = s
        self.components = arr
        self.sym = sym

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_scalar(chart: Chart, expr) -> "TensorField":
        return TensorField(chart, 0, 0, np.asarray(as_expr(expr), dtype=object).reshape(()))

    @staticmethod
    def vector(chart: Chart, components) -> "TensorField":
        return TensorField(chart, 1, 0, components)

    @staticmethod
    def covector(chart: Chart, components) -> "TensorField":
        return TensorField(chart, 0, 1, components)

    @staticmethod
    def coordinate_vector(chart: Chart, i: int) -> "TensorField":
        comps = _expr_array((chart.dim,))
        comps[i] = Const(1.0)
        return TensorField(chart, 1, 0, comps)

    # -- algebra -------------------------------------------------------------

    def _check_same_type(self, other: "TensorField"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError("tensor fields live on different charts")
        if (self.r, self.s) != (other.r, other.s):
            raise RankError(f"rank mismatch: ({self.r},{self.s}) vs ({other.r},{other.s})")

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_same_type(other)
        a, b = self.components, other.components
        sym = self.sym if self.sym == other.sym else "none"
        out = _fill(a.shape, sym, lambda idx: a[idx] + b[idx])
        return TensorField(self.chart, self.r, self.s, out, sym)

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self + other.scale(-1.0)

    def scale(self, factor) -> "TensorField":
        f = as_expr(factor)
        a = self.components
        out = _fill(a.shape, self.sym, lambda idx: f * a[idx])
        return TensorField(self.chart, self.r, self.s, out, self.sym)

    def outer(self, other: "TensorField") -> "TensorField":
        """Tensor product; contravariant slots of both factors come first."""
        if self.chart != other.chart:
            raise ChartMismatchError("tensor fields live on different charts")
        r, s = self.r + other.r, self.s + other.s
        d = self.chart.dim
        out = _expr_array((d,) * (r + s))
        for idx_a in np.ndindex(self.components.shape):
            ea = self.components[idx_a]
            if ea.is_zero():
                continue
            a_contra, a_cov = idx_a[: self.r], idx_a[self.r:]
            for idx_b in np.ndindex(other.components.shape):
                eb = other.components[idx_b]
                if eb.is_zero():
                    continue
                b_contra, b_cov = idx_b[: other.r], idx_b[other.r:]
                out[a_contra + b_contra + a_cov + b_cov] = ea * eb
        return TensorField(self.chart, r, s, out)

    # -- evaluation ----------------------------------------------------------

    def values(self, points: np.ndarray) -> np.ndarray:
        """Component values (order 0), shape ``batch + (dim,)*(r+s)``: the
        one-field case of :func:`evaluate_fields`."""
        return evaluate_fields([self], points)[0]

    def jet_blocks(self, points: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        """Values and partials of all components, up to ``order`` (1 or 2):
        the one-field case of :func:`evaluate_fields`.

        Shapes: ``batch + comp``, ``batch + comp + (d,)`` and, at order 2,
        ``batch + comp + (d, d)``, where ``comp = (dim,)*(r+s)``.
        """
        if order not in (1, 2):
            raise ValueError(f"jet order must be 1 or 2, not {order!r}")
        return evaluate_fields([self], points, order)[0]

    def __repr__(self):
        return f"TensorField(r={self.r}, s={self.s}, chart={self.chart.coord_names})"


def evaluate_fields(tensor_fields: Sequence[TensorField], points: np.ndarray,
                    order: int = 0) -> list:
    """Several fields at ``points``, from one walk of the union of their
    components that are not structurally zero.

    Order 0 gives one value array per field, shape ``batch + comp``;
    orders 1 and 2 give one tuple of blocks per field: the values, the
    gradients ``batch + comp + (d,)`` and, at order 2, the Hessians
    ``batch + comp + (d, d)``, where ``comp = (dim,)*(r+s)``.  A node
    shared within a field or between fields is evaluated once, and each
    field's arrays are bit for bit those of a walk of that field alone.
    The walk runs first: the output arrays are not held during it.
    """
    pts = np.asarray(points, dtype=float)
    live = [[idx for idx, e in np.ndenumerate(T.components) if not e.is_zero()]
            for T in tensor_fields]
    results = iter(evaluate([T.components[idx] for T, comps in zip(tensor_fields, live)
                             for idx in comps], pts, order))
    out = []
    for T, comps in zip(tensor_fields, live):
        shape = pts.shape[:-1] + T.components.shape
        blocks = [np.zeros(shape + (T.chart.dim,) * k) for k in range(order + 1)]
        for idx in comps:
            r = next(results)
            parts = (r,) if order == 0 else (r.value, r.grad, r.hess)
            for k, block in enumerate(blocks):
                block[(Ellipsis,) + idx + (slice(None),) * k] = parts[k]
        out.append(blocks[0] if order == 0 else tuple(blocks))
    return out


# ---------------------------------------------------------------------------
# smooth maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMap:
    """A map between charts, one coordinate expression per target slot."""

    source: Chart
    target: Chart
    exprs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.exprs) != self.target.dim:
            raise RankError(
                f"map provides {len(self.exprs)} expressions for a "
                f"{self.target.dim}-dimensional target"
            )
        object.__setattr__(self, "exprs", tuple(as_expr(e) for e in self.exprs))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        cols = evaluate(self.exprs, points)
        return np.stack(np.broadcast_arrays(*cols), axis=-1)

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """The composite self after inner (inner runs first)."""
        if inner.target != self.source:
            raise ChartMismatchError("charts do not line up for composition")
        return SmoothMap(inner.source, self.target, tuple(substitute(self.exprs, inner.exprs)))

    @staticmethod
    def identity(chart: Chart) -> "SmoothMap":
        return SmoothMap(chart, chart,
                         tuple(Coord(i, chart.coord_names[i]) for i in range(chart.dim)))


# ---------------------------------------------------------------------------
# exterior calculus
# ---------------------------------------------------------------------------


def _require_form(alpha: TensorField, what: str = "argument"):
    if alpha.r != 0:
        raise RankError(f"{what} must be purely covariant, got r={alpha.r}")
    if alpha.s >= 2 and alpha.sym != "antisymmetric":
        raise RankError(f"{what} must carry the antisymmetric tag")


def exterior_derivative(alpha: TensorField) -> TensorField:
    """Exterior derivative of a k-form, alternating-average normalization."""
    _require_form(alpha, "exterior derivative argument")
    k = alpha.s
    d = alpha.chart.dim
    if k >= d:
        raise RankError(f"cannot take d of a {k}-form on a {d}-dimensional chart")
    inv = Const(1.0 / (k + 1))

    def entry(idx):
        total = ZERO
        for m in range(k + 1):
            term = alpha.components[idx[:m] + idx[m + 1:]].diff(idx[m])
            total = total + term if m % 2 == 0 else total - term
        return inv * total

    sym = "antisymmetric" if k + 1 >= 2 else "none"
    return TensorField(alpha.chart, 0, k + 1, _fill((d,) * (k + 1), sym, entry), sym)


def wedge(alpha: TensorField, beta: TensorField) -> TensorField:
    """Wedge product Alt(alpha x beta)."""
    _require_form(alpha, "wedge factor")
    _require_form(beta, "wedge factor")
    if alpha.chart != beta.chart:
        raise ChartMismatchError("wedge factors live on different charts")
    k, l = alpha.s, beta.s
    d = alpha.chart.dim
    if k + l > d:
        raise RankError(f"wedge of a {k}-form and a {l}-form overflows dimension {d}")
    raw = alpha.outer(beta)
    if k + l < 2:
        return TensorField(alpha.chart, 0, k + l, raw.components)
    comps = _fill(raw.components.shape, "antisymmetric",
                  lambda idx: _average(raw.components, idx, -1))
    return TensorField(alpha.chart, 0, k + l, comps, "antisymmetric")


def interior_product(X: TensorField, alpha: TensorField) -> TensorField:
    """Contraction of a vector field into the first slot of a form."""
    if X.r != 1 or X.s != 0:
        raise RankError("interior product needs a vector field in the first argument")
    _require_form(alpha, "interior product form")
    if X.chart != alpha.chart:
        raise ChartMismatchError("vector and form live on different charts")
    if alpha.s == 0:
        raise RankError("cannot contract a vector into a 0-form")
    d = alpha.chart.dim
    k = alpha.s

    def entry(idx):
        return sum_of_products((1, X.components[a], alpha.components[(a,) + idx])
                               for a in range(d))

    sym = "antisymmetric" if k - 1 >= 2 else "none"
    return TensorField(alpha.chart, 0, k - 1, _fill((d,) * (k - 1), sym, entry), sym)


# ---------------------------------------------------------------------------
# Lie calculus
# ---------------------------------------------------------------------------


def lie_derivative(X: TensorField, T: TensorField) -> TensorField:
    """Lie derivative of any (r, s) tensor field along a vector field."""
    if X.r != 1 or X.s != 0:
        raise RankError("lie_derivative direction must be a vector field")
    if X.chart != T.chart:
        raise ChartMismatchError("direction and tensor live on different charts")
    d = T.chart.dim
    Xc, Tc = X.components, T.components

    def entry(idx):
        # the partials are passed unbuilt: a term whose other factor is
        # structurally zero never takes its partial
        terms = [(1, Xc[a], functools.partial(Tc[idx].diff, a)) for a in range(d)]
        # contravariant slots pick up -dX corrections
        for p in range(T.r):
            terms += [(-1, functools.partial(Xc[idx[p]].diff, a), Tc[idx[:p] + (a,) + idx[p + 1:]])
                      for a in range(d)]
        # covariant slots pick up +dX corrections
        for slot in range(T.r, T.r + T.s):
            terms += [(1, functools.partial(Xc[a].diff, idx[slot]),
                       Tc[idx[:slot] + (a,) + idx[slot + 1:]]) for a in range(d)]
        return sum_of_products(terms)

    return TensorField(T.chart, T.r, T.s, _fill(T.components.shape, T.sym, entry), T.sym)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------


def pullback(F: SmoothMap, T: TensorField) -> TensorField:
    """Pullback of a purely covariant tensor field along a smooth map."""
    if T.r != 0:
        raise RankError("only purely covariant tensors can be pulled back")
    if T.chart != F.target:
        raise ChartMismatchError("tensor does not live on the map's target chart")
    s = T.s
    d_src = F.source.dim
    d_tgt = F.target.dim
    jac = [[F.exprs[j].diff(i) for j in range(d_tgt)] for i in range(d_src)]
    live = [(jdx, comp) for jdx, comp in np.ndenumerate(T.components) if not comp.is_zero()]
    moved = substitute([comp for _, comp in live], F.exprs)

    def entry(idx):
        total = ZERO
        for (jdx, _), factor in zip(live, moved):
            dead = False
            for slot in range(s):
                partial = jac[idx[slot]][jdx[slot]]
                if partial.is_zero():
                    dead = True
                    break
                factor = factor * partial
            if not dead:
                total = total + factor
        return total

    return TensorField(F.source, 0, s, _fill((d_src,) * s, T.sym, entry), T.sym)


# ---------------------------------------------------------------------------
# contractions, index shuffling, pointwise linear algebra
# ---------------------------------------------------------------------------


def _minor_det(matrix: list[list[Expr]], rows: tuple[int, ...], cols: tuple[int, ...],
               memo: dict) -> Expr:
    """Determinant of the submatrix on ``rows`` x ``cols``, by cofactor
    expansion along its first row; ``memo`` shares each sub-determinant."""
    if not rows:
        return ONE  # the empty minor, the cofactor of a 1 x 1 matrix
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    hit = memo.get((rows, cols))
    if hit is not None:
        return hit
    total = sum_of_products(
        (-1 if k % 2 else 1, matrix[rows[0]][j],
         functools.partial(_minor_det, matrix, rows[1:], cols[:k] + cols[k + 1:], memo))
        for k, j in enumerate(cols))
    memo[(rows, cols)] = total
    return total


def inverse_matrix_exprs(matrix: list[list[Expr]]) -> list[list[Expr]]:
    """Symbolic inverse via the adjugate; fine for the dimensions used here.

    Sub-determinants are shared across the cofactors, so each minor is
    expanded once per inverse.
    """
    n = len(matrix)
    full = tuple(range(n))
    memo: dict = {}
    det = _minor_det(matrix, full, full, memo)
    inv: list[list[Expr]] = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = _minor_det(matrix, full[:j] + full[j + 1:], full[:i] + full[i + 1:], memo)
            signed = cof if (i + j) % 2 == 0 else -cof
            inv[i][j] = signed / det
    return inv


def inverse_metric(g: TensorField) -> TensorField:
    """Inverse metric as a (2, 0) tensor field, built afresh on each call."""
    if (g.r, g.s) != (0, 2):
        raise RankError("inverse_metric needs a (0,2) tensor field")
    d = g.chart.dim
    mat = [[g.components[i, j] for j in range(d)] for i in range(d)]
    return TensorField(g.chart, 2, 0, inverse_matrix_exprs(mat))


def raise_index(g: TensorField, T: TensorField, cov_slot: int) -> TensorField:
    """Convert one covariant slot to contravariant using the metric."""
    ginv = inverse_metric(g)
    if not (0 <= cov_slot < T.s):
        raise RankError(f"no covariant slot {cov_slot}")
    d = T.chart.dim
    axis = T.r + cov_slot
    out_shape = (d,) * (T.r + 1 + T.s - 1)
    out = _expr_array(out_shape)
    for idx in np.ndindex(out_shape):
        rest = idx[:T.r] + idx[T.r + 1:]         # idx without its raised slot
        out[idx] = sum_of_products(
            (1, ginv.components[idx[T.r], a], T.components[rest[:axis] + (a,) + rest[axis:]])
            for a in range(d))
    return TensorField(T.chart, T.r + 1, T.s - 1, out)
