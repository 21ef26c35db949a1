"""The symplectization of a contact metric structure and its metric form.

Given a contact metric structure (eta, g, phi) on a chart M, the product
chart M x [t_min, t_max] carries the symplectic form

    omega = d(exp(2t) eta),

whose slice pairing is omega(d_t, X) = exp(2t) eta(X).  Among all metrics
compatible with omega there is exactly one making d_t unit and orthogonal
to every slice while the almost complex structure restricts to phi on the
contact distribution of each slice; its almost complex structure is

    J X = phi X  on Ker(eta),   J xi_t = d_t,   J d_t = -xi_t,

with xi_t = exp(-2t) xi, and the metric is gbar(X, Y) = omega(J X, Y),
which splits as gbar = g_t + dt (x) dt with the slice metric

    g_t = exp(2t) g + exp(2t) (exp(2t) - 1) eta (x) eta.

The slice at t is therefore the D_a rescaling of the original structure
with a = exp(2t).  Everything above is constructed symbolically here and
verified numerically by the check functions and the test suite.

A symplectization is always a product over its base structure, with the
line coordinate t last on the product chart.  The slice data eta_t, xi_t
at sample points are therefore read from the base fields:
:func:`slice_form_values` evaluates eta and xi at the base coordinates,
scales them by exp(+-2t) and leaves the t slot zero.  The symbolic lifts
(:func:`extend_to_product`, :func:`extended_slice_form` and the slice
metric family) are built only where a field is needed: omega and the jets
of the slice metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import Chart, product_with_line
from .contact import (ContactMetricStructure, _require_finite, _rescaled_metric, d_homothety,
                      reeb_field)
from .errors import DomainError, GeometryError, RankError
from .expressions import ONE, Const, Coord, Expr, evaluate, exp, sum_of_products
from .fields import (
    SmoothMap,
    TensorField,
    _fill,
    exterior_derivative,
    interior_product,
    inverse_matrix_exprs,
    pullback,
    sup_norm,
)

__all__ = [
    "SymplecticMetricStructure",
    "extend_to_product",
    "lifted_values",
    "slice_form_values",
    "build_metric_symplectization",
    "natural_acs",
    "verify_symplectic",
    "verify_liouville",
    "SymplecticReport",
    "slice_structure",
    "slice_embedding",
    "induced_contact_on_hypersurface",
    "nijenhuis",
    "nijenhuis_norms",
    "translation_isomorphism_check",
    "acs_table_residuals",
    "block_structure_residuals",
    "unique_acs_witness_residual",
]

# closedness and nondegeneracy floor of a symplectic form's sampled values
SYMPLECTIC_TOL = 1e-10
# the Cartan-formula residual of the expansion property
LIOUVILLE_TOL = 1e-9
# samples and tolerance of the unit and orthogonality checks on Y
_HYPERSURFACE_SAMPLES = 25
_HYPERSURFACE_TOL = 1e-8


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


def lifted_values(T: TensorField, pts: np.ndarray) -> np.ndarray:
    """The values of ``extend_to_product(T, chart)`` at product points.

    T is evaluated at the base coordinates ``pts[:, :T.chart.dim]``; every
    t slot of the result is zero.
    """
    d = T.chart.dim
    rank = T.r + T.s
    out = np.zeros((len(pts),) + (d + 1,) * rank)
    out[(slice(None),) + (slice(0, d),) * rank] = T.values(pts[:, :d])
    return out


def slice_form_values(S: ContactMetricStructure, pts: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """eta_t = exp(2t) eta and xi_t = exp(-2t) xi at product points (t last).

    The values of :func:`extended_slice_form` and of the lift of xi scaled
    by exp(-2t), read from the base fields without building either.
    """
    t = pts[:, -1:]
    return (lifted_values(S.eta, pts) * np.exp(2.0 * t),
            lifted_values(S.xi, pts) * np.exp(-2.0 * t))


def _exp_t(chart: Chart, c: float) -> Expr:
    """exp(c t), with t the last coordinate of ``chart``."""
    return exp(Const(c) * Coord(chart.dim - 1, chart.coord_names[-1]))


def extended_slice_form(S: ContactMetricStructure, chart: Chart) -> TensorField:
    """exp(2t) eta as a 1-form on the product chart (zero dt component)."""
    return extend_to_product(S.eta, chart).scale(_exp_t(chart, 2.0))


def slice_metric_field(S: ContactMetricStructure, chart: Chart) -> TensorField:
    """The slice family exp(2t) g + exp(2t)(exp(2t)-1) eta (x) eta."""
    a = _exp_t(chart, 2.0)
    comps = _rescaled_metric(extend_to_product(S.g, chart).components,
                             extend_to_product(S.eta, chart).components, a, a * (a - Const(1.0)))
    return TensorField(chart, 0, 2, comps, "symmetric")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _compatible_metric(J: TensorField, omega: TensorField) -> TensorField:
    """gbar(X, Y) = omega(J X, Y), symmetrized so the tag holds structurally."""
    D = J.chart.dim

    def entry(ab):
        a, b = ab
        return Const(0.5) * sum_of_products(term for c in range(D) for term in (
            (1, J.components[c, a], omega.components[c, b]),
            (1, J.components[c, b], omega.components[c, a])))

    return TensorField(J.chart, 0, 2, _fill((D, D), "symmetric", entry), "symmetric")


def _product_acs(S: ContactMetricStructure, chart: Chart, up: Expr, down: Expr
                 ) -> TensorField:
    """The (1,1) field with J = phi on base directions, d_t component
    up * eta(X) of J X, and J d_t = -down * xi.

    The metric J has up = exp(2t) and down = exp(-2t); the classical J has
    both equal to 1.
    """
    d = S.chart.dim
    D = chart.dim
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


def _with_compatible_metric(S: ContactMetricStructure, J: TensorField
                            ) -> SymplecticMetricStructure:
    """omega = d(exp(2t) eta) on J's chart, and the metric omega(J X, Y)."""
    omega = exterior_derivative(extended_slice_form(S, J.chart))
    return SymplecticMetricStructure(chart=J.chart, omega=omega,
                                     gbar=_compatible_metric(J, omega), J=J, base=S)


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

    omega comes from the exterior derivative of exp(2t) eta, J from the
    three-case formula above, and gbar(X, Y) = omega(J X, Y), stored with
    explicit symmetrization so the symmetry holds structurally.
    """
    chart = _product_chart(S, t_range)
    return _with_compatible_metric(S, _product_acs(S, chart, _exp_t(chart, 2.0),
                                                   _exp_t(chart, -2.0)))


def natural_acs(S: ContactMetricStructure,
                t_range: tuple[float, float] = (-1.0, 1.0)) -> TensorField:
    """The classical almost complex structure J(X, f d_t) = (phi X - f xi,
    eta(X) d_t) on the symplectization, as a (1,1) field."""
    return _product_acs(S, _product_chart(S, t_range), ONE, ONE)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticReport:
    closed_residual: float
    min_top_coefficient: float


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


def verify_symplectic(omega: TensorField, n_samples: int = 50,
                      seed: int | None = None) -> SymplecticReport:
    """Closedness residual and nondegeneracy margin of a 2-form.

    The margin is the smallest |top coefficient| of omega^n over the
    samples, taken from the values of omega by :func:`_top_coefficient_abs`.
    """
    chart = omega.chart
    if chart.dim % 2 != 0:
        raise GeometryError("symplectic forms need an even-dimensional chart")
    if (omega.r, omega.s) != (0, 2):
        raise RankError("expected a 2-form")
    pts = chart.samples(n_samples, seed=seed)
    closed = sup_norm(exterior_derivative(omega).values(pts))
    top = _top_coefficient_abs(omega.values(pts))
    return SymplecticReport(closed, float(np.min(top)))


def verify_liouville(omega: TensorField, Y: TensorField, n_samples: int = 50,
                     seed: int | None = None) -> dict[str, float]:
    """Residual ``cartan`` of the expansion property of a candidate field Y,
    sampled through the Cartan formula

        d(i_Y omega) + i_Y(d omega) - omega,

    the form of the condition under which the coordinate field of the
    product factor expands the symplectization form with constant one.
    """
    chart = omega.chart
    if Y.chart != chart:
        raise GeometryError("candidate field lives on the wrong chart")
    pts = chart.samples(n_samples, seed=seed)
    iy = interior_product(Y, omega)
    lhs = exterior_derivative(iy) + interior_product(Y, exterior_derivative(omega))
    return {"cartan": sup_norm(lhs.values(pts) - omega.values(pts))}


# ---------------------------------------------------------------------------
# slices and induced hypersurface structures
# ---------------------------------------------------------------------------


def slice_structure(B: SymplecticMetricStructure, t0: float) -> ContactMetricStructure:
    """The contact metric structure carried by the slice at t0.

    Built directly from the slice formulas, as the D_a homothety of the
    base structure with a = exp(2 t0); the independent construction
    through the ambient pullback machinery is
    ``induced_contact_on_hypersurface`` and the two are cross-checked in
    the test suite.
    """
    lo, hi = B.chart.domain[B.t_index]
    if not lo <= t0 <= hi:
        raise DomainError(f"slice parameter {t0} outside [{lo}, {hi}]")
    return d_homothety(B.base, math.exp(2.0 * t0))


def slice_embedding(B: SymplecticMetricStructure, t0: float) -> SmoothMap:
    """The embedding x -> (x, t0) of the base chart into the product."""
    src = B.base.chart
    exprs = [Coord(i, src.coord_names[i]) for i in range(src.dim)]
    exprs.append(Const(float(t0)))
    return SmoothMap(src, B.chart, tuple(exprs))


def induced_contact_on_hypersurface(
    B: SymplecticMetricStructure,
    Y: TensorField,
    embedding: SmoothMap,
) -> ContactMetricStructure:
    """Contact metric structure induced on a hypersurface orthogonal to Y.

    ``Y`` must be a unit field orthogonal to the image of the embedding at
    the checked samples; violations raise rather than warn since the
    construction is meaningless without them.  The induced data is

        eta = pullback of i_Y omega,
        g   = pullback of gbar,
        phi = the tangential part of J, vanishing on the induced Reeb
              direction,

    all assembled symbolically on the source chart.
    """
    if embedding.target != B.chart:
        raise GeometryError("embedding does not land in the structure's chart")
    if (Y.r, Y.s) != (1, 0) or Y.chart != B.chart:
        raise GeometryError("Y must be a vector field on the ambient chart")
    src = embedding.source
    d = src.dim
    D = B.chart.dim

    pts = src.samples(_HYPERSURFACE_SAMPLES)
    img = embedding(pts)
    gv = B.gbar.values(img)
    yv = Y.values(img)
    unit_res = sup_norm(np.einsum("nij,ni,nj->n", gv, yv, yv) - 1.0)
    if unit_res > _HYPERSURFACE_TOL:
        raise GeometryError(f"Y is not unit along the hypersurface (residual {unit_res:.3e})")
    jac_exprs = [[embedding.exprs[c].diff(i) for c in range(D)] for i in range(d)]
    jac_vals = np.stack(evaluate([e for row in jac_exprs for e in row], pts),
                        axis=-1).reshape(len(pts), d, D)
    orth = np.einsum("nic,ncb,nb->ni", jac_vals, gv, yv)
    orth_res = sup_norm(orth)
    if orth_res > _HYPERSURFACE_TOL:
        raise GeometryError(
            f"Y is not orthogonal to the hypersurface (residual {orth_res:.3e})"
        )

    eta_ind = pullback(embedding, interior_product(Y, B.omega))
    g_ind_raw = pullback(embedding, B.gbar)
    g_ind = TensorField(src, 0, 2, g_ind_raw.components, "symmetric")
    xi_ind = reeb_field(eta_ind)

    # phi = tangential part of J applied to the contact component.
    # Solve the tangency through the embedding's symbolic pseudo-inverse.
    gram = [[sum_of_products((1, jac_exprs[i][c], jac_exprs[j][c]) for c in range(D))
             for j in range(d)] for i in range(d)]
    gram_inv = inverse_matrix_exprs(gram)

    J_src = [[B.J.components[c, b].subs(embedding.exprs) for b in range(D)]
             for c in range(D)]
    gbar_src = [[B.gbar.components[c, b].subs(embedding.exprs) for b in range(D)]
                for c in range(D)]
    Y_src = [Y.components[c].subs(embedding.exprs) for c in range(D)]

    # the induced Reeb field, pushed forward
    xi_push = [sum_of_products((1, jac_exprs[i][c], xi_ind.components[i]) for i in range(d))
               for c in range(D)]

    phi_comps = np.empty((d, d), dtype=object)
    for j in range(d):
        # contact component of the pushed-forward frame vector
        v = [jac_exprs[j][c] for c in range(D)]
        w = [v[c] - eta_ind.components[j] * xi_push[c] for c in range(D)]
        jw = [sum_of_products((1, J_src[c][b], w[b]) for b in range(D)) for c in range(D)]
        # remove the Y component, then pull tangential part back to the source
        yc = sum_of_products((1, gbar_src[c][b] * jw[c], Y_src[b])
                             for c in range(D) for b in range(D))
        jw_tan = [jw[c] - yc * Y_src[c] for c in range(D)]
        dots = [sum_of_products((1, jac_exprs[k][c], jw_tan[c]) for c in range(D))
                for k in range(d)]
        for i in range(d):
            phi_comps[i, j] = sum_of_products((1, gram_inv[i][k], dots[k]) for k in range(d))
    phi_ind = TensorField(src, 1, 1, phi_comps)
    return ContactMetricStructure.build(src, eta_ind, g_ind, phi_ind)


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------


def nijenhuis(J: TensorField) -> TensorField:
    """The torsion N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] + J^2 [X,Y].

    Built on coordinate frames, where the last term drops; tensoriality
    extends the values to arbitrary arguments.
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


def nijenhuis_norms(N: TensorField, g: TensorField, points: np.ndarray) -> np.ndarray:
    """g-norm of a (1,2) tensor at each sample.

    |N|^2 = g_kc g^{ia} g^{jb} N^k_ij N^c_ab, taken as pairwise products:
    raise both lower slots of N (one batched product per upper index c),
    lower the upper slot with g, and sum against N.  Each step is n D^4.
    """
    nv = N.values(points)
    gv = g.values(points)
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


def _distribution_vectors(S: ContactMetricStructure, pts: np.ndarray) -> np.ndarray:
    """V[n, a] = d_a - eta(d_a) xi at product points, for each base index a:
    the coordinate fields projected onto the contact distribution, tangent
    to the slices."""
    d = S.chart.dim
    V = -lifted_values(S.eta, pts)[:, :d, None] * lifted_values(S.xi, pts)[:, None, :]
    V[:, range(d), range(d)] += 1.0
    return V


def acs_table_residuals(B: SymplecticMetricStructure, n_samples: int = 50,
                        seed: int | None = None) -> dict[str, float]:
    """Residuals of J xi_t = d_t, J d_t = -xi_t, J = phi on Ker(eta)."""
    S = B.base
    pts = B.chart.samples(n_samples, seed=seed)
    D = B.chart.dim
    d = S.chart.dim
    jv = B.J.values(pts)
    _, xt = slice_form_values(S, pts)
    et = np.zeros((len(pts), D))
    et[:, D - 1] = 1.0
    r1 = sup_norm(np.einsum("nij,nj->ni", jv, xt) - et)
    r2 = sup_norm(np.einsum("nij,nj->ni", jv, et) + xt)
    V = _distribution_vectors(S, pts)
    pv = lifted_values(S.phi, pts)
    defects = []
    for a in range(d):
        lhs = np.einsum("nij,nj->ni", jv, V[:, a])
        rhs = np.einsum("nij,nj->ni", pv, V[:, a])
        defects.append(lhs - rhs)
    return {"J_xi_t": r1, "J_d_t": r2, "J_on_distribution": sup_norm(*defects)}


def block_structure_residuals(B: SymplecticMetricStructure, n_samples: int = 50,
                              seed: int | None = None) -> dict[str, float]:
    """gbar = g_t + dt^2: unit d_t, slice-orthogonal d_t, slice blocks, and
    gbar(X, J Y) = omega(X, Y) on coordinate frames."""
    S = B.base
    pts = B.chart.samples(n_samples, seed=seed)
    D = B.chart.dim
    d = S.chart.dim
    gv = B.gbar.values(pts)
    unit = sup_norm(gv[:, D - 1, D - 1] - 1.0)
    orth = sup_norm(gv[:, D - 1, :d])
    gt = slice_metric_field(S, B.chart).values(pts)
    block = sup_norm(gv[:, :d, :d] - gt[:, :d, :d])
    compat = sup_norm(np.einsum("nia,naj->nij", gv, B.J.values(pts)) - B.omega.values(pts))
    return {"dt_unit": unit, "dt_orthogonal": orth, "slice_block": block,
            "omega_pairing": compat}


def unique_acs_witness_residual(B: SymplecticMetricStructure, n_samples: int = 25,
                                seed: int | None = None) -> float:
    """Solve the defining constraints for J' d_t pointwise; compare to -xi_t.

    The constraints are the images under gbar'(X, Y) := omega(J' X, Y) of
    the requirements that d_t be unit and orthogonal to the slice:
    omega(w, xi_t) = 0, omega(w, V) = 0 for V in the contact distribution,
    omega(w, d_t) = 1, where w = J' d_t.  Nondegeneracy of omega makes the
    solution unique; the witness checks it coincides with -xi_t.
    """
    S = B.base
    pts = B.chart.samples(n_samples, seed=seed)
    D = B.chart.dim
    ov = B.omega.values(pts)
    _, xt = slice_form_values(S, pts)
    V = _distribution_vectors(S, pts)
    _require_finite(pts, GeometryError, "omega, xi_t or the contact distribution", ov, xt, V)
    et = np.zeros(D)
    et[D - 1] = 1.0
    defects = []
    for nidx in range(len(pts)):
        basis = np.vstack([xt[nidx], V[nidx], et])
        # omega(w, b_j) = w^c omega_{cb} b_j^b, so row j of the system
        # matrix is omega b_j, i.e. (basis @ omega^T)[j].
        mat = basis @ ov[nidx].T
        rhs = np.zeros(len(basis))
        rhs[-1] = 1.0
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        defects.append(sol + xt[nidx])
    return sup_norm(*defects)


# ---------------------------------------------------------------------------
# translation between symplectizations of rescaled structures
# ---------------------------------------------------------------------------


def translation_isomorphism_check(B: SymplecticMetricStructure, t_shift: float,
                                  n_samples: int = 50, seed: int | None = None
                                  ) -> dict[str, float]:
    """Check (x, t) -> (x, t + t_shift) matches two symplectizations.

    Pulling the data of ``B``, the symplectization of S, back along the
    shift must land exactly on the symplectization data, over the same t
    range, of the D_a rescaling of S with a = exp(2 t_shift): the
    residuals are ``omega`` and ``metric``.  Samples are restricted so the
    shifted points stay inside the product box.
    """
    lo, hi = B.chart.domain[B.t_index]
    B2 = build_metric_symplectization(d_homothety(B.base, math.exp(2.0 * t_shift)), (lo, hi))
    chart = B2.chart
    coords = [Coord(i, name) for i, name in enumerate(chart.coord_names)]
    shift = SmoothMap(chart, B.chart, tuple(coords[:-1] + [coords[-1] + Const(float(t_shift))]))
    pts = chart.samples(n_samples, seed=seed)
    # keep both the point and its shift inside the t interval
    t_lo = max(lo, lo - t_shift) + 0.05 * (hi - lo)
    t_hi = min(hi, hi - t_shift) - 0.05 * (hi - lo)
    if t_lo >= t_hi:
        raise GeometryError("t shift leaves no overlap inside the product box")
    rng = np.random.default_rng(chart.sampler_seed if seed is None else seed)
    pts[:, -1] = rng.uniform(t_lo, t_hi, size=len(pts))

    return {"omega": sup_norm(pullback(shift, B.omega).values(pts) - B2.omega.values(pts)),
            "metric": sup_norm(pullback(shift, B.gbar).values(pts) - B2.gbar.values(pts))}
