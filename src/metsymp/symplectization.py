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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .charts import Chart, product_with_line
from .contact import ContactMetricStructure, reeb_field
from .errors import DomainError, GeometryError, RankError
from .expressions import Const, Coord, evaluate, exp
from .fields import (
    SmoothMap,
    TensorField,
    exterior_derivative,
    interior_product,
    inverse_matrix_exprs,
    lie_derivative,
    pullback,
    sup_norm,
    wedge,
)

__all__ = [
    "SymplecticMetricStructure",
    "extend_to_product",
    "SliceStructure",
    "build_metric_symplectization",
    "natural_acs",
    "natural_symplectic_metric_structure",
    "verify_symplectic",
    "verify_liouville",
    "SymplecticReport",
    "LiouvilleReport",
    "slice_structure",
    "slice_embedding",
    "induced_contact_on_hypersurface",
    "nijenhuis",
    "nijenhuis_norms",
    "translation_isomorphism_check",
    "TranslationReport",
    "acs_table_residuals",
    "block_structure_residuals",
    "unique_acs_witness_residual",
]


@dataclass(frozen=True)
class SymplecticMetricStructure:
    """Bundle (omega, gbar, J) on an even-dimensional chart.

    When built as a metric symplectization the chart is a product with the
    line coordinate last (``t_index``) and ``base`` holds the underlying
    contact metric structure.
    """

    chart: Chart
    omega: TensorField
    gbar: TensorField
    J: TensorField
    t_index: int | None = None
    base: ContactMetricStructure | None = None

    @property
    def n(self) -> int:
        if self.base is None:
            raise GeometryError("not a product-type structure")
        return self.base.n


@dataclass(frozen=True)
class SliceStructure:
    """The induced contact metric structure on the slice at t0."""

    t0: float
    structure: ContactMetricStructure


# ---------------------------------------------------------------------------
# field extension helpers (M-chart fields viewed on the product chart)
# ---------------------------------------------------------------------------


def extend_to_product(T: TensorField, chart: Chart) -> TensorField:
    """View an M-chart tensor field on the product chart, zero on t-slots.

    Valid because the product chart shares the leading coordinates, so the
    component expressions need no rewriting.
    """
    d = T.chart.dim
    D = chart.dim
    out = np.empty((D,) * (T.r + T.s), dtype=object)
    out[...] = Const(0.0)
    for idx in np.ndindex(T.components.shape):
        out[idx] = T.components[idx]
    return TensorField(chart, T.r, T.s, out, T.sym if T.sym != "none" else "none")


def extended_slice_form(S: ContactMetricStructure, chart: Chart) -> TensorField:
    """exp(2t) eta as a 1-form on the product chart (zero dt component)."""
    t = Coord(chart.dim - 1, chart.coord_names[-1])
    factor = exp(Const(2.0) * t)
    return extend_to_product(S.eta, chart).scale(factor)


def extended_slice_reeb(S: ContactMetricStructure, chart: Chart) -> TensorField:
    """exp(-2t) xi as a vector field on the product chart."""
    t = Coord(chart.dim - 1, chart.coord_names[-1])
    factor = exp(Const(-2.0) * t)
    return extend_to_product(S.xi, chart).scale(factor)


def slice_metric_field(S: ContactMetricStructure, chart: Chart) -> TensorField:
    """The slice family exp(2t) g + exp(2t)(exp(2t)-1) eta (x) eta."""
    t = Coord(chart.dim - 1, chart.coord_names[-1])
    a = exp(Const(2.0) * t)
    g_ext = extend_to_product(S.g, chart)
    outer = extend_to_product(S.eta.outer(S.eta), chart)
    combined = g_ext.scale(a) + outer.scale(a * (a - Const(1.0)))
    return TensorField(chart, 0, 2, combined.components, "symmetric")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _compatible_metric(J: TensorField, omega: TensorField) -> TensorField:
    """gbar(X, Y) = omega(J X, Y), symmetrized so the tag holds structurally."""
    D = J.chart.dim
    gbar = np.empty((D, D), dtype=object)
    for a in range(D):
        for b in range(a, D):
            total = Const(0.0)
            for c in range(D):
                total = total + J.components[c, a] * omega.components[c, b]
                total = total + J.components[c, b] * omega.components[c, a]
            entry = Const(0.5) * total
            gbar[a, b] = entry
            gbar[b, a] = entry
    return TensorField(J.chart, 0, 2, gbar, "symmetric")


def build_metric_symplectization(
    S: ContactMetricStructure,
    t_range: tuple[float, float] = (-1.0, 1.0),
    t_name: str = "t",
) -> SymplecticMetricStructure:
    """The unique compatible metric structure on the symplectization.

    omega comes from the exterior derivative of exp(2t) eta, J from the
    three-case formula above, and gbar(X, Y) = omega(J X, Y), stored with
    explicit symmetrization so the symmetry holds structurally.
    """
    chart = product_with_line(S.chart, t_name, t_range)
    d = S.chart.dim
    D = chart.dim
    t = Coord(D - 1, t_name)
    e2t = exp(Const(2.0) * t)
    em2t = exp(Const(-2.0) * t)

    alpha = extended_slice_form(S, chart)
    omega = exterior_derivative(alpha)

    J = np.empty((D, D), dtype=object)
    J[...] = Const(0.0)
    for i in range(d):
        for j in range(d):
            J[i, j] = S.phi.components[i, j]
    for j in range(d):
        J[D - 1, j] = e2t * S.eta.components[j]
    for i in range(d):
        J[i, D - 1] = -(em2t * S.xi.components[i])
    Jfield = TensorField(chart, 1, 1, J)

    return SymplecticMetricStructure(
        chart=chart, omega=omega, gbar=_compatible_metric(Jfield, omega),
        J=Jfield, t_index=D - 1, base=S,
    )


def natural_acs(S: ContactMetricStructure,
                t_range: tuple[float, float] = (-1.0, 1.0),
                t_name: str = "t") -> TensorField:
    """The classical almost complex structure J(X, f d_t) = (phi X - f xi,
    eta(X) d_t) on the symplectization, as a (1,1) field."""
    chart = product_with_line(S.chart, t_name, t_range)
    d = S.chart.dim
    D = chart.dim
    J = np.empty((D, D), dtype=object)
    J[...] = Const(0.0)
    for i in range(d):
        for j in range(d):
            J[i, j] = S.phi.components[i, j]
    for j in range(d):
        J[D - 1, j] = S.eta.components[j]
    for i in range(d):
        J[i, D - 1] = -S.xi.components[i]
    return TensorField(chart, 1, 1, J)


def natural_symplectic_metric_structure(
    S: ContactMetricStructure,
    t_range: tuple[float, float] = (-1.0, 1.0),
    t_name: str = "t",
) -> SymplecticMetricStructure:
    """The symplectization equipped with the classical J and its metric."""
    Jf = natural_acs(S, t_range, t_name)
    alpha = extended_slice_form(S, Jf.chart)
    omega = exterior_derivative(alpha)
    return SymplecticMetricStructure(
        chart=Jf.chart, omega=omega, gbar=_compatible_metric(Jf, omega),
        J=Jf, t_index=Jf.chart.dim - 1, base=S)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticReport:
    closed_residual: float
    min_top_coefficient: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.closed_residual < 1e-10 and self.min_top_coefficient > 1e-10


def _omega_of(B: Union[SymplecticMetricStructure, TensorField]) -> tuple[TensorField, Chart]:
    if isinstance(B, SymplecticMetricStructure):
        return B.omega, B.chart
    return B, B.chart


def verify_symplectic(B: Union[SymplecticMetricStructure, TensorField],
                      n_samples: int = 50, seed: int | None = None) -> SymplecticReport:
    """Closedness residual and nondegeneracy margin of a 2-form."""
    omega, chart = _omega_of(B)
    if chart.dim % 2 != 0:
        raise GeometryError("symplectic forms need an even-dimensional chart")
    if (omega.r, omega.s) != (0, 2):
        raise RankError("expected a 2-form")
    n = chart.dim // 2
    pts = chart.samples(n_samples, seed=seed)
    domega = exterior_derivative(omega)
    closed = sup_norm(domega.values(pts))
    top = omega
    for _ in range(n - 1):
        top = wedge(top, omega)
    idx = (Ellipsis,) + tuple(range(chart.dim))
    coeff = top.values(pts)[idx]
    return SymplecticReport(closed, float(np.min(np.abs(coeff))), n_samples)


@dataclass(frozen=True)
class LiouvilleReport:
    """Result of the expansion-property check for a candidate field Y.

    ``cartan_residual`` is the sampled residual of

        d(i_Y omega) + i_Y(d omega) - omega,

    the Cartan-formula evaluation of the expansion property; this is the
    form of the condition under which the coordinate field of the product
    factor expands the symplectization form with constant one.
    ``lie_constant`` reports the proportionality constant c that best fits
    the tensor Lie derivative, L_Y omega = c omega, as context.
    """

    cartan_residual: float
    lie_constant: float
    lie_fit_residual: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.cartan_residual < 1e-9


def verify_liouville(B: Union[SymplecticMetricStructure, TensorField],
                     Y: TensorField, n_samples: int = 50,
                     seed: int | None = None) -> LiouvilleReport:
    omega, chart = _omega_of(B)
    if Y.chart != chart:
        raise GeometryError("candidate field lives on the wrong chart")
    pts = chart.samples(n_samples, seed=seed)
    iy = interior_product(Y, omega)
    lhs = exterior_derivative(iy) + interior_product(Y, exterior_derivative(omega))
    cartan = sup_norm(lhs.values(pts) - omega.values(pts))

    lie = lie_derivative(Y, omega)
    lv = lie.values(pts).ravel()
    ov = omega.values(pts).ravel()
    denom = float(ov @ ov)
    c = float(lv @ ov) / denom if denom > 0 else 0.0
    lie_res = sup_norm(lv - c * ov)
    return LiouvilleReport(cartan, c, lie_res, n_samples)


# ---------------------------------------------------------------------------
# slices and induced hypersurface structures
# ---------------------------------------------------------------------------


def slice_structure(B: SymplecticMetricStructure, t0: float) -> SliceStructure:
    """The contact metric structure carried by the slice at t0.

    Built directly from the slice formulas; the independent construction
    through the ambient pullback machinery is
    ``induced_contact_on_hypersurface`` and the two are cross-checked in
    the test suite.
    """
    if B.base is None or B.t_index is None:
        raise GeometryError("slice_structure needs a product-type structure")
    lo, hi = B.chart.domain[B.t_index]
    if not lo <= t0 <= hi:
        raise DomainError(f"slice parameter {t0} outside [{lo}, {hi}]")
    S = B.base
    a = math.exp(2.0 * t0)
    eta_t = S.eta.scale(Const(a))
    g_t_raw = S.g.scale(Const(a)) + S.eta.outer(S.eta).scale(Const(a * (a - 1.0)))
    g_t = TensorField(S.chart, 0, 2, g_t_raw.components, "symmetric")
    return SliceStructure(t0, ContactMetricStructure.build(S.chart, eta_t, g_t, S.phi))


def slice_embedding(B: SymplecticMetricStructure, t0: float) -> SmoothMap:
    """The embedding x -> (x, t0) of the base chart into the product."""
    if B.base is None:
        raise GeometryError("slice_embedding needs a product-type structure")
    src = B.base.chart
    exprs = [Coord(i, src.coord_names[i]) for i in range(src.dim)]
    exprs.append(Const(float(t0)))
    return SmoothMap(src, B.chart, tuple(exprs))


def induced_contact_on_hypersurface(
    B: SymplecticMetricStructure,
    Y: TensorField,
    embedding: SmoothMap,
    n_check_samples: int = 25,
    tol: float = 1e-8,
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

    pts = src.samples(n_check_samples)
    img = embedding(pts)
    gv = B.gbar.values(img)
    yv = Y.values(img)
    unit_res = sup_norm(np.einsum("nij,ni,nj->n", gv, yv, yv) - 1.0)
    if unit_res > tol:
        raise GeometryError(f"Y is not unit along the hypersurface (residual {unit_res:.3e})")
    jac_exprs = [[embedding.exprs[c].diff(i) for c in range(D)] for i in range(d)]
    jac_vals = np.stack(evaluate([e for row in jac_exprs for e in row], pts),
                        axis=-1).reshape(len(pts), d, D)
    orth = np.einsum("nic,ncb,nb->ni", jac_vals, gv, yv)
    orth_res = sup_norm(orth)
    if orth_res > tol:
        raise GeometryError(
            f"Y is not orthogonal to the hypersurface (residual {orth_res:.3e})"
        )

    eta_ind = pullback(embedding, interior_product(Y, B.omega))
    g_ind_raw = pullback(embedding, B.gbar)
    g_ind = TensorField(src, 0, 2, g_ind_raw.components, "symmetric")
    xi_ind = reeb_field(eta_ind)

    # phi = tangential part of J applied to the contact component.
    # Solve the tangency through the embedding's symbolic pseudo-inverse.
    gram = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            total = Const(0.0)
            for c in range(D):
                total = total + jac_exprs[i][c] * jac_exprs[j][c]
            gram[i][j] = total
    gram_inv = inverse_matrix_exprs(gram)

    J_src = [[B.J.components[c, b].subs(embedding.exprs) for b in range(D)]
             for c in range(D)]
    gbar_src = [[B.gbar.components[c, b].subs(embedding.exprs) for b in range(D)]
                for c in range(D)]
    Y_src = [Y.components[c].subs(embedding.exprs) for c in range(D)]

    xi_push = [Const(0.0)] * D          # the induced Reeb field, pushed forward
    for i in range(d):
        for c in range(D):
            xi_push[c] = xi_push[c] + jac_exprs[i][c] * xi_ind.components[i]

    phi_comps = np.empty((d, d), dtype=object)
    phi_comps[...] = Const(0.0)
    for j in range(d):
        # contact component of the pushed-forward frame vector
        v = [jac_exprs[j][c] for c in range(D)]
        w = [v[c] - eta_ind.components[j] * xi_push[c] for c in range(D)]
        jw = [Const(0.0)] * D
        for c in range(D):
            for b in range(D):
                jw[c] = jw[c] + J_src[c][b] * w[b]
        # remove the Y component, then pull tangential part back to the source
        yc = Const(0.0)
        for c in range(D):
            for b in range(D):
                yc = yc + gbar_src[c][b] * jw[c] * Y_src[b]
        jw_tan = [jw[c] - yc * Y_src[c] for c in range(D)]
        for i in range(d):
            total = Const(0.0)
            for k in range(d):
                dot = Const(0.0)
                for c in range(D):
                    dot = dot + jac_exprs[k][c] * jw_tan[c]
                total = total + gram_inv[i][k] * dot
            phi_comps[i, j] = total
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
    comps = J.components
    out = np.empty((d, d, d), dtype=object)
    out[...] = Const(0.0)
    for k in range(d):
        for i in range(d):
            for j in range(i + 1, d):
                total = Const(0.0)
                for a in range(d):
                    total = total + comps[a, i] * comps[k, j].diff(a)
                    total = total - comps[a, j] * comps[k, i].diff(a)
                    total = total + comps[k, a] * comps[a, i].diff(j)
                    total = total - comps[k, a] * comps[a, j].diff(i)
                out[k, i, j] = total
                out[k, j, i] = -total
    return TensorField(J.chart, 1, 2, out)


def nijenhuis_norms(N: TensorField, g: TensorField, points: np.ndarray) -> np.ndarray:
    """g-norm of a (1,2) tensor at each sample."""
    nv = N.values(points)
    gv = g.values(points)
    ginv = np.linalg.inv(gv)
    sq = np.einsum("nkc,nia,njb,nkij,ncab->n", gv, ginv, ginv, nv, nv, optimize=True)
    return np.sqrt(np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# structural residual checks used by the suite
# ---------------------------------------------------------------------------


def acs_table_residuals(B: SymplecticMetricStructure, n_samples: int = 50,
                        seed: int | None = None) -> dict[str, float]:
    """Residuals of J xi_t = d_t, J d_t = -xi_t, J = phi on Ker(eta)."""
    if B.base is None:
        raise GeometryError("needs a product-type structure")
    S = B.base
    chart = B.chart
    pts = chart.samples(n_samples, seed=seed)
    D = chart.dim
    d = S.chart.dim
    jv = B.J.values(pts)
    xt = extended_slice_reeb(S, chart).values(pts)
    et = np.zeros((len(pts), D))
    et[:, D - 1] = 1.0
    r1 = sup_norm(np.einsum("nij,nj->ni", jv, xt) - et)
    r2 = sup_norm(np.einsum("nij,nj->ni", jv, et) + xt)
    # distribution vectors v_a = d_a - eta(d_a) xi, tangent to slices
    ev = extend_to_product(S.eta, chart).values(pts)
    xv = extend_to_product(S.xi, chart).values(pts)
    pv = extend_to_product(S.phi, chart).values(pts)
    defects = []
    for a in range(d):
        v = -ev[:, a:a + 1] * xv
        v[:, a] += 1.0
        lhs = np.einsum("nij,nj->ni", jv, v)
        rhs = np.einsum("nij,nj->ni", pv, v)
        defects.append(lhs - rhs)
    return {"J_xi_t": r1, "J_d_t": r2, "J_on_distribution": sup_norm(*defects)}


def block_structure_residuals(B: SymplecticMetricStructure, n_samples: int = 50,
                              seed: int | None = None) -> dict[str, float]:
    """gbar = g_t + dt^2: unit d_t, slice-orthogonal d_t, slice blocks."""
    if B.base is None:
        raise GeometryError("needs a product-type structure")
    S = B.base
    pts = B.chart.samples(n_samples, seed=seed)
    D = B.chart.dim
    d = S.chart.dim
    gv = B.gbar.values(pts)
    unit = sup_norm(gv[:, D - 1, D - 1] - 1.0)
    orth = sup_norm(gv[:, D - 1, :d])
    gt = slice_metric_field(S, B.chart).values(pts)
    block = sup_norm(gv[:, :d, :d] - gt[:, :d, :d])
    compat = _compatibility_residual(B, pts)
    return {"dt_unit": unit, "dt_orthogonal": orth, "slice_block": block,
            "omega_pairing": compat}


def _compatibility_residual(B: SymplecticMetricStructure, pts: np.ndarray) -> float:
    """Residual of gbar(X, J Y) = omega(X, Y) on coordinate frames."""
    gv = B.gbar.values(pts)
    jv = B.J.values(pts)
    ov = B.omega.values(pts)
    lhs = np.einsum("nia,naj->nij", gv, jv)
    return sup_norm(lhs - ov)


def unique_acs_witness_residual(B: SymplecticMetricStructure, n_samples: int = 25,
                                seed: int | None = None) -> float:
    """Solve the defining constraints for J' d_t pointwise; compare to -xi_t.

    The constraints are the images under gbar'(X, Y) := omega(J' X, Y) of
    the requirements that d_t be unit and orthogonal to the slice:
    omega(w, xi_t) = 0, omega(w, V) = 0 for V in the contact distribution,
    omega(w, d_t) = 1, where w = J' d_t.  Nondegeneracy of omega makes the
    solution unique; the witness checks it coincides with -xi_t.
    """
    if B.base is None:
        raise GeometryError("needs a product-type structure")
    S = B.base
    pts = B.chart.samples(n_samples, seed=seed)
    D = B.chart.dim
    d = S.chart.dim
    ov = B.omega.values(pts)
    xt = extended_slice_reeb(S, B.chart).values(pts)
    ev = extend_to_product(S.eta, B.chart).values(pts)
    xv = extend_to_product(S.xi, B.chart).values(pts)
    defects = []
    for nidx in range(len(pts)):
        rows = [xt[nidx]]
        for a in range(d):
            v = -ev[nidx, a] * xv[nidx]
            v[a] += 1.0
            rows.append(v)
        et = np.zeros(D)
        et[D - 1] = 1.0
        rows.append(et)
        basis = np.stack(rows)
        # omega(w, b_j) = w^c omega_{cb} b_j^b, so row j of the system
        # matrix is omega b_j, i.e. (basis @ omega^T)[j].
        mat = basis @ ov[nidx].T
        rhs = np.zeros(len(rows))
        rhs[-1] = 1.0
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        defects.append(sol + xt[nidx])
    return sup_norm(*defects)


# ---------------------------------------------------------------------------
# translation between symplectizations of rescaled structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslationReport:
    omega_residual: float
    metric_residual: float
    samples: int

    @property
    def max_residual(self) -> float:
        return sup_norm(self.omega_residual, self.metric_residual)


def translation_isomorphism_check(S: ContactMetricStructure, t_shift: float,
                                  n_samples: int = 50, seed: int | None = None,
                                  t_range: tuple[float, float] = (-1.0, 1.0)
                                  ) -> TranslationReport:
    """Check (x, t) -> (x, t + t_shift) matches the two symplectizations.

    Pulling the symplectization data of S back along the shift must land
    exactly on the symplectization data of the D_a rescaling of S with
    a = exp(2 t_shift).  Samples are restricted so the shifted points stay
    inside the product box.
    """
    from .contact import d_homothety

    B1 = build_metric_symplectization(S, t_range)
    S2 = d_homothety(S, math.exp(2.0 * t_shift))
    B2 = build_metric_symplectization(S2, t_range)
    chart = B2.chart
    shift = SmoothMap(
        chart, B1.chart,
        tuple(
            [Coord(i, chart.coord_names[i]) for i in range(chart.dim - 1)]
            + [Coord(chart.dim - 1, chart.coord_names[-1]) + Const(float(t_shift))]
        ),
    )
    pts = chart.samples(n_samples, seed=seed)
    lo, hi = t_range
    # keep both the point and its shift inside the t interval
    t_lo = max(lo, lo - t_shift) + 0.05 * (hi - lo)
    t_hi = min(hi, hi - t_shift) - 0.05 * (hi - lo)
    if t_lo >= t_hi:
        raise GeometryError("t shift leaves no overlap inside the product box")
    rng = np.random.default_rng(chart.sampler_seed if seed is None else seed)
    pts[:, -1] = rng.uniform(t_lo, t_hi, size=len(pts))

    om_res = sup_norm(pullback(shift, B1.omega).values(pts) - B2.omega.values(pts))
    g_res = sup_norm(pullback(shift, B1.gbar).values(pts) - B2.gbar.values(pts))
    return TranslationReport(om_res, g_res, n_samples)
