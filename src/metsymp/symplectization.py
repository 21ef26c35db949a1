"""The symplectization of a contact metric structure and its metric form.

Given a contact metric structure (eta, g, phi) on a chart M, the product
chart M x [t_min, t_max] carries the symplectic form

    omega = d(exp(2t) eta),

whose slice pairing is omega(d_t, X) = exp(2t) eta(X).  Among all metrics
compatible with omega there is exactly one making d_t unit and orthogonal
to every slice while the almost complex structure restricts to phi on the
contact distribution of each slice; its almost complex structure is

    J X = phi X  on Ker(eta),   J xi_t = d_t,   J d_t = -xi_t,

with xi_t = exp(-2t) xi, and the metric gbar(X, Y) = omega(J X, Y) splits
as gbar = g_t + dt (x) dt with the slice metric

    g_t = exp(2t) g + exp(2t) (exp(2t) - 1) eta (x) eta.

The slice at t is therefore the D_a rescaling of the original structure
with a = exp(2t).  gbar is built from that slice law, the tree of
:func:`slice_metric_field` plus a one at (t, t), so it reads neither J nor
phi, and d_t is unit and slice-orthogonal by construction.
:func:`verify_symplectization_build` evaluates what can fail at the
points of gbar's connection data, each as one named residual: the three-case
table of J, gbar's base block against the slice law, the compatibility
gbar(X, J Y) = omega(X, Y) and the uniqueness of J.
:func:`slice_structure` builds the slice structure as the D_a rescaling
itself.  :func:`verify_symplectic` checks that a 2-form is symplectic at
given points, and like every verifier here it returns named residuals:
``closed`` and ``nondegenerate``.

A symplectization is always a product over its base structure, with the
line coordinate t last on the product chart.  At product points, the
verifiers therefore read the base structure's record of values at the base
coordinates: :func:`slice_form_values` scales its eta and xi by exp(+-2t)
and leaves the t slot zero.  The symbolic lifts (:func:`extend_to_product`,
:func:`extended_slice_form` and the slice metric family) are built only
where a field is needed: omega and gbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import Chart, product_with_line
from .contact import (
    ContactMetricStructure,
    StructureValues,
    _min_norm_solve,
    _require_finite,
    _rescaled_forms,
    _rescaled_metric,
    d_homothety,
)
from .curvature import ChristoffelData
from .errors import DomainError, GeometryError, RankError
from .expressions import ONE, Const, Coord, Expr, exp, sum_of_products
from .fields import (TensorField, _live_partials, _masked_contraction, evaluate_fields,
                     exterior_derivative, interior_product, sup_norm)

__all__ = [
    "SymplecticMetricStructure",
    "extend_to_product",
    "slice_form_values",
    "build_metric_symplectization",
    "verify_symplectic",
    "verify_liouville",
    "slice_structure",
    "nijenhuis",
    "nijenhuis_values",
    "nijenhuis_norms",
    "translation_isomorphism_check",
    "verify_symplectization_build",
]

# closedness and nondegeneracy floor of a symplectic form's sampled values
SYMPLECTIC_TOL = 1e-10
# the Cartan-formula residual of the expansion property
LIOUVILLE_TOL = 1e-9
# the leading samples of the build check on which the uniqueness witness solves
_WITNESS_SAMPLES = 15


@dataclass(frozen=True)
class SymplecticMetricStructure:
    """Bundle (omega, gbar, J) on the product of ``base.chart`` with a line.

    The product chart shares the base coordinates and puts the line
    coordinate t last (``t_index``).
    """

    chart: Chart
    omega: TensorField
    gbar: TensorField
    J: TensorField
    base: ContactMetricStructure

    @property
    def t_index(self) -> int:
        return self.chart.dim - 1


# ---------------------------------------------------------------------------
# field extension helpers (M-chart fields viewed on the product chart)
# ---------------------------------------------------------------------------


def extend_to_product(T: TensorField, chart: Chart) -> TensorField:
    """View an M-chart tensor field on the product chart, zero on t-slots.

    Valid because the product chart shares the leading coordinates, so the
    component expressions need no rewriting.
    """
    D = chart.dim
    out = np.empty((D,) * (T.r + T.s), dtype=object)
    out[...] = Const(0.0)
    for idx in np.ndindex(T.components.shape):
        out[idx] = T.components[idx]
    return TensorField(chart, T.r, T.s, out, T.sym)


def _lift(v: np.ndarray) -> np.ndarray:
    """Base values with a zero t slot on each index: those of :func:`extend_to_product`."""
    return np.pad(v, [(0, 0)] + [(0, 1)] * (v.ndim - 1))


def slice_form_values(values: StructureValues, pts: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """eta_t = exp(2t) eta and xi_t = exp(-2t) xi at product points (t last).

    The values of :func:`extended_slice_form` and of the lift of xi scaled
    by exp(-2t), read from the base record ``values`` without building either.
    """
    t = pts[:, -1:]
    return _lift(values.eta) * np.exp(2.0 * t), _lift(values.xi) * np.exp(-2.0 * t)


def _exp_t(chart: Chart, c: float) -> Expr:
    """exp(c t), with t the last coordinate of ``chart``."""
    return exp(Const(c) * Coord(chart.dim - 1, chart.coord_names[-1]))


def extended_slice_form(eta: TensorField, chart: Chart) -> TensorField:
    """exp(2t) eta, for a 1-form eta of the base, as a 1-form on the product
    chart (zero dt component)."""
    return extend_to_product(eta, chart).scale(_exp_t(chart, 2.0))


def slice_metric_field(g: TensorField, eta: TensorField, chart: Chart) -> TensorField:
    """The slice family exp(2t) g + exp(2t)(exp(2t)-1) eta (x) eta of a
    metric g and a 1-form eta of the base."""
    a = _exp_t(chart, 2.0)
    comps = _rescaled_metric(extend_to_product(g, chart).components,
                             extend_to_product(eta, chart).components, a, a * (a - Const(1.0)))
    return TensorField(chart, 0, 2, comps, "symmetric")


def _form_and_metric(eta: TensorField, g: TensorField, chart: Chart
                     ) -> tuple[TensorField, TensorField]:
    """omega = d(exp(2t) eta) and gbar = g_t + dt^2 on the product chart,
    from the eta and g of the base: the slice metric family with a one at
    (t, t), so gbar's base block holds the nodes of g_t."""
    gbar = slice_metric_field(g, eta, chart).components.copy()
    gbar[-1, -1] = ONE
    return (exterior_derivative(extended_slice_form(eta, chart)),
            TensorField(chart, 0, 2, gbar, "symmetric"))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _product_acs(S: ContactMetricStructure, chart: Chart) -> TensorField:
    """The metric J as a (1,1) field: phi on base directions, d_t component
    exp(2t) eta(X) of J X, and J d_t = -exp(-2t) xi."""
    d = S.chart.dim
    D = chart.dim
    up, down = _exp_t(chart, 2.0), _exp_t(chart, -2.0)
    J = np.empty((D, D), dtype=object)
    J[...] = Const(0.0)
    for i in range(d):
        for j in range(d):
            J[i, j] = S.phi.components[i, j]
    for j in range(d):
        J[D - 1, j] = up * S.eta.components[j]
    for i in range(d):
        J[i, D - 1] = -(down * S.xi.components[i])
    return TensorField(chart, 1, 1, J)


def _product_chart(S: ContactMetricStructure, t_range: tuple[float, float]) -> Chart:
    """The base chart times the line, whose coordinate is named ``t``, or
    ``t1``, ``t2``, ... when the base already has a coordinate ``t``."""
    names = S.chart.coord_names
    name = next(n for n in ("t", *(f"t{k}" for k in range(1, len(names) + 1)))
                if n not in names)
    return product_with_line(S.chart, name, t_range)


def build_metric_symplectization(S: ContactMetricStructure,
                                 t_range: tuple[float, float] = (-1.0, 1.0)
                                 ) -> SymplecticMetricStructure:
    """The unique compatible metric structure on the symplectization.

    omega and gbar come from :func:`_form_and_metric` and J from the
    three-case formula above.
    """
    chart = _product_chart(S, t_range)
    omega, gbar = _form_and_metric(S.eta, S.g, chart)
    return SymplecticMetricStructure(chart=chart, omega=omega, gbar=gbar,
                                     J=_product_acs(S, chart), base=S)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def _top_coefficient_abs(skew: np.ndarray) -> np.ndarray:
    """|top coefficient| of omega^n, from the values ``skew[..., i, j]`` of a
    2-form omega in dimension 2n, batched over leading axes.

    Under the Alt normalization of :mod:`metsymp.fields`, the coefficient of
    omega^n on dx^0 ^ ... ^ dx^(2n-1) is c Pf(omega), with
    c = 2^n n! / (2n)!.  Pf^2 = det, so the magnitude is c sqrt(|det|).  A
    matrix with a NaN or infinite entry gives NaN (LAPACK's determinant of
    such a matrix may read 0).
    """
    n = skew.shape[-1] // 2
    c = 2.0 ** n * math.factorial(n) / math.factorial(2 * n)
    finite = np.isfinite(skew).all(axis=(-2, -1))
    det = np.linalg.det(np.where(finite[..., None, None], skew, 0.0))
    return np.where(finite, c * np.sqrt(np.abs(det)), np.nan)


def verify_symplectic(omega: TensorField, points: np.ndarray) -> dict[str, float]:
    """Residuals of a 2-form at ``points``: ``closed`` for d omega = 0 and
    ``nondegenerate`` for how far the |top coefficient| of omega^n, taken
    from the values of omega by :func:`_top_coefficient_abs`, falls short of
    ``SYMPLECTIC_TOL`` at its smallest.  A NaN coefficient fails it.
    """
    if omega.chart.dim % 2 != 0:
        raise GeometryError("symplectic forms need an even-dimensional chart")
    if (omega.r, omega.s) != (0, 2):
        raise RankError("expected a 2-form")
    dv, ov = evaluate_fields([exterior_derivative(omega), omega], points)
    closed = sup_norm(dv)
    top = _top_coefficient_abs(ov)
    return {"closed": closed, "nondegenerate": sup_norm(np.maximum(SYMPLECTIC_TOL - top, 0.0))}


def verify_liouville(omega: TensorField, Y: TensorField, points: np.ndarray
                     ) -> dict[str, float]:
    """Residual ``cartan`` of the expansion property of a candidate field Y,
    at ``points`` through the Cartan formula

        d(i_Y omega) + i_Y(d omega) - omega,

    the form of the condition under which the coordinate field of the
    product factor expands the symplectization form with constant one.
    """
    if Y.chart != omega.chart:
        raise GeometryError("candidate field lives on the wrong chart")
    iy = interior_product(Y, omega)
    lhs = exterior_derivative(iy) + interior_product(Y, exterior_derivative(omega))
    lv, ov = evaluate_fields([lhs, omega], points)
    return {"cartan": sup_norm(lv - ov)}


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def slice_structure(B: SymplecticMetricStructure, t0: float) -> ContactMetricStructure:
    """The contact metric structure carried by the slice at t0.

    Built directly from the slice formulas, as the D_a homothety of the
    base structure with a = exp(2 t0).  The tests cross-check it against
    the structure the ambient data induce on the slice by pullback.  A t0
    outside B's t interval is a ``DomainError`` that names it.
    """
    lo, hi = B.chart.domain[B.t_index]
    if not lo <= t0 <= hi:
        raise DomainError(f"slice parameter {t0} outside [{lo}, {hi}]")
    return d_homothety(B.base, math.exp(2.0 * t0))


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------


def nijenhuis(J: TensorField) -> TensorField:
    """The torsion N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] + J^2 [X,Y], as a
    symbolic tree.

    Built on coordinate frames, where the last term drops; tensoriality
    extends the values to arbitrary arguments.  The checks read the
    torsion's values from :func:`nijenhuis_values`; this tree is their
    reference.
    """
    if (J.r, J.s) != (1, 1):
        raise RankError("nijenhuis needs a (1,1) field")
    d = J.chart.dim
    comps = J.components.tolist()
    # dJ[a][k][j] is the partial d_a J^k_j, taken once for every term that reads it
    dJ = [[[comps[k][j].diff(a) for j in range(d)] for k in range(d)] for a in range(d)]
    out = np.empty((d, d, d), dtype=object)
    out[...] = Const(0.0)
    for k in range(d):
        for i in range(d):
            for j in range(i + 1, d):
                total = sum_of_products(term for a in range(d) for term in (
                    (1, comps[a][i], dJ[a][k][j]),
                    (-1, comps[a][j], dJ[a][k][i]),
                    (1, comps[k][a], dJ[j][a][i]),
                    (-1, comps[k][a], dJ[i][a][j])))
                out[k, i, j] = total
                out[k, j, i] = -total
    return TensorField(J.chart, 1, 2, out)


def nijenhuis_values(J: TensorField, points: np.ndarray) -> np.ndarray:
    """The values ``N[n, k, i, j]`` of the torsion of J at ``points``, from
    one order-1 walk of J.

    On coordinate frames
    N^k_ij = J^a_i d_a J^k_j - J^a_j d_a J^k_i - J^k_a (d_i J^a_j - d_j J^a_i),
    the components of :func:`nijenhuis`.  Each sum over a skips the terms
    with a structurally zero factor, as :func:`nijenhuis` does, and N is
    exactly antisymmetric in (i, j), 0 at i = j even where J is NaN.
    """
    if (J.r, J.s) != (1, 1):
        raise RankError("nijenhuis_values needs a (1,1) field")
    jv, dj = J.jet_blocks(points, 1)   # dj[n, k, j, a] = d_a J^k_j
    live, dlive = _live_partials(J)
    # J^a_i d_a J^k_j and J^k_a d_i J^a_j, each as [n, k, i, j, a] summed over a
    flow = _masked_contraction(np.swapaxes(jv, 1, 2)[:, None, :, None, :], dj[:, :, None],
                               live.T[None, :, None, :] & dlive[:, None])
    twist = _masked_contraction(jv[:, :, None, None, :], dj.transpose(0, 3, 2, 1)[:, None],
                                live[:, None, None, :] & dlive.transpose(2, 1, 0)[None])
    torsion = (flow - np.swapaxes(flow, 2, 3)) - (twist - np.swapaxes(twist, 2, 3))
    diagonal = np.arange(J.chart.dim)
    torsion[:, :, diagonal, diagonal] = 0.0
    return torsion


def nijenhuis_norms(nv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """g-norm of a (1,2) tensor at each sample, from its values ``nv`` and
    the values ``gv`` of g there.

    |N|^2 = g_kc g^{ia} g^{jb} N^k_ij N^c_ab, taken as pairwise products:
    raise both lower slots of N (one batched product per upper index c),
    lower the upper slot with g, and sum against N.  Each step is n D^4.
    """
    ginv = np.linalg.inv(gv)
    n, D = gv.shape[:2]
    # raised[n, c, i, j] = g^{ia} N^c_ab g^{jb}, and lowered[n, k, (i j)] its
    # upper slot lowered, g_kc raised[n, c, i, j]
    raised = ginv[:, None] @ nv @ np.swapaxes(ginv, 1, 2)[:, None]
    lowered = gv @ raised.reshape(n, D, D * D)
    sq = np.einsum("nkx,nkx->n", nv.reshape(n, D, D * D), lowered)
    return np.sqrt(np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# structural residual checks used by the suite
# ---------------------------------------------------------------------------


def verify_symplectization_build(B: SymplecticMetricStructure, data: ChristoffelData,
                                 values: StructureValues) -> dict[str, float]:
    """The named residuals of the construction at the points of gbar's
    connection data ``data``, where J and omega are evaluated in one walk; xi_t, the
    contact distribution V and the lifted phi come from the base record ``values``:

    - ``J_xi_t``, ``J_d_t``, ``J_on_distribution``: the three-case table;
    - ``slice_block``: gbar's base block against the slice metric
      exp(2t) g + exp(2t)(exp(2t) - 1) eta (x) eta, the D_a rescale of g at
      a = exp(2t), taken from the values of g and eta, not from a tree
      gbar shares; its t row holds a one and zeros by construction;
    - ``omega_pairing``: gbar(X, J Y) = omega(X, Y) on coordinate frames,
      the compatibility of the slice-law gbar with J and omega;
    - ``unique_acs``: on the first ``_WITNESS_SAMPLES`` samples, w = J' d_t
      solved from omega(w, xi_t) = omega(w, V) = 0 and omega(w, d_t) = 1
      (d_t unit and slice-orthogonal for gbar' = omega(J' ., .)), against
      -xi_t.  The samples' systems are one stacked minimum-norm solve
      (:func:`contact._min_norm_solve`, lstsq's rank rule), made after
      omega, xi_t and V are checked finite there.
    """
    pts, gv = data.points, data.g
    D, d = B.chart.dim, B.t_index
    jv, ov = evaluate_fields([B.J, B.omega], pts)
    ev, xl = values.eta, _lift(values.xi)
    xt = slice_form_values(values, pts)[1]
    # V[:, a] = d_a - eta(d_a) xi: the base coordinate fields projected onto
    # the contact distribution, tangent to the slices
    V = -ev[:, :, None] * xl[:, None, :]
    V[:, range(d), range(d)] += 1.0
    pv = _lift(values.phi)
    e2t = np.exp(2.0 * pts[:, -1])[:, None, None]
    gt = e2t * values.g + e2t * (e2t - 1.0) * (ev[:, :, None] * ev[:, None, :])
    et = np.zeros((len(pts), D))
    et[:, D - 1] = 1.0
    res = {
        "J_xi_t": sup_norm(np.einsum("nij,nj->ni", jv, xt) - et),
        "J_d_t": sup_norm(np.einsum("nij,nj->ni", jv, et) + xt),
        "J_on_distribution": sup_norm(*(np.einsum("nij,nj->ni", jv, V[:, a])
                                        - np.einsum("nij,nj->ni", pv, V[:, a])
                                        for a in range(d))),
        "slice_block": sup_norm(gv[:, :d, :d] - gt),
        "omega_pairing": sup_norm(np.einsum("nia,naj->nij", gv, jv) - ov),
    }

    k = min(len(pts), _WITNESS_SAMPLES)
    _require_finite(pts[:k], GeometryError, "omega, xi_t or the contact distribution",
                    ov[:k], xt[:k], V[:k])
    # omega(w, b_j) = w^c omega_{cb} b_j^b, so row j of a sample's system
    # matrix is omega b_j, i.e. (basis @ omega^T)[j], with the rows
    # b_j = xi_t, V[:, 0], ..., V[:, d - 1], d_t
    basis = np.concatenate([xt[:k, None], V[:k], et[:k, None]], axis=1)
    rhs = np.zeros((k, D + 1))
    rhs[:, -1] = 1.0
    sol, _ = _min_norm_solve(basis @ np.swapaxes(ov[:k], 1, 2), rhs)
    res["unique_acs"] = sup_norm(sol + xt[:k])
    return res


# ---------------------------------------------------------------------------
# translation between symplectizations of rescaled structures
# ---------------------------------------------------------------------------


def translation_isomorphism_check(B: SymplecticMetricStructure, t_shift: float,
                                  points: np.ndarray) -> dict[str, float]:
    """Check (x, t) -> (x, t + t_shift) matches two symplectizations.

    Pulling the data of ``B``, the symplectization of S, back along the
    shift must land exactly on the symplectization data, over the same t
    range, of the D_a rescaling of S with a = exp(2 t_shift): the
    residuals are ``omega`` and ``metric``.  The shift's Jacobian is the
    identity, so the pullback of a tensor is its value at the shifted
    point.  The t column of ``points``, on B's chart, is mapped affinely
    from B's t interval onto the part whose shift stays inside it.  Of the
    rescaled symplectization only the two compared trees are built, omega
    and gbar from the rescaled eta and g (:func:`_form_and_metric`): no
    rescaled structure, with its d eta and Reeb field, and no J.
    """
    lo, hi = B.chart.domain[B.t_index]
    rescaled = _form_and_metric(*_rescaled_forms(B.base, math.exp(2.0 * t_shift)), B.chart)
    t_lo, t_hi = max(lo, lo - t_shift), min(hi, hi - t_shift)
    if t_lo >= t_hi:
        raise GeometryError("t shift leaves no overlap inside the product box")
    pts = np.array(points, dtype=float)
    pts[:, -1] = t_lo + (pts[:, -1] - lo) * ((t_hi - t_lo) / (hi - lo))
    shifted = pts.copy()
    shifted[:, -1] += t_shift

    omega, gbar = evaluate_fields([B.omega, B.gbar], shifted)
    omega2, gbar2 = evaluate_fields(rescaled, pts)
    return {"omega": sup_norm(omega - omega2), "metric": sup_norm(gbar - gbar2)}
