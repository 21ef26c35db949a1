"""The projection of the metric symplectization onto its line factor.

With gbar = g_t + dt^2, projecting M x R onto the line is a Riemannian
submersion whose vertical spaces are the slice tangent spaces and whose
horizontal line is spanned by d_t.  Because the base is one-dimensional
and the horizontal line field integrable, one fundamental tensor vanishes
(A = 0) and the other is determined by

    T_X Y   = -(gbar(X, Y) + eta_t(X) eta_t(Y)) d_t,
    T_X d_t = X + eta_t(X) xi_t,

for slice-tangent X, Y.  The verifiers below evaluate the fundamental
tensors from their definition (projected covariant derivatives), compare
against the closed form, and check the standard curvature relations that
the submersion implies, with the slice curvature computed intrinsically on
the base chart so the comparison stays a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import ContactMetricStructure, h_norms
from .curvature import (
    ChristoffelData,
    christoffel_batch,
    christoffel_from_blocks,
    covariant_derivative_values,
    gram_schmidt_frame,
    ricci_components,
    riemann_components,
)
from .errors import GeometryError
from .expressions import Const
from .fields import TensorField, sup_norm
from .symplectization import (
    SymplecticMetricStructure,
    extend_to_product,
    extended_slice_form,
    extended_slice_reeb,
    slice_metric_field,
)

__all__ = [
    "SubmersionFrame",
    "submersion_frame",
    "split",
    "oneill_T",
    "oneill_A",
    "fundamental_T_field",
    "verify_fundamental_tensors",
    "verify_oneill_curvature",
    "verify_currel",
    "verify_ricci_relations",
    "fit_symplectization_kmu",
    "verify_kumrig_negative",
    "FundamentalTensorReport",
    "OneillCurvatureReport",
    "CurvatureRelationsReport",
    "RicciTableReport",
    "SymplectizationKmuReport",
    "RigidityReport",
    "slice_christoffel_batch",
]


def _require_product(B: SymplecticMetricStructure) -> ContactMetricStructure:
    if B.base is None or B.t_index is None:
        raise GeometryError("this verifier needs a product-type metric structure")
    return B.base


@dataclass(frozen=True)
class SubmersionFrame:
    """gbar-orthonormal vertical and horizontal bases at one point."""

    point: np.ndarray
    vertical: np.ndarray     # (2n+1, dim) rows tangent to the slice
    horizontal: np.ndarray   # (1, dim), the d_t direction
    cross_orthogonality: float


def submersion_frame(B: SymplecticMetricStructure, point: np.ndarray) -> SubmersionFrame:
    """Orthonormal frame at a point, split into slice and line directions."""
    S = _require_product(B)
    p = np.asarray(point, dtype=float)
    gmat = B.gbar.values(p)
    xit = extended_slice_reeb(S, B.chart).values(p)
    et = np.zeros(B.chart.dim)
    et[B.t_index] = 1.0
    frame = gram_schmidt_frame(gmat, seeds=np.stack([xit, et]))
    horizontal = frame[1:2]
    vertical = np.concatenate([frame[0:1], frame[2:]], axis=0)
    cross = sup_norm(vertical @ gmat @ horizontal.T)
    return SubmersionFrame(p, vertical, horizontal, cross)


def split(B: SymplecticMetricStructure, V: np.ndarray, point: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """gbar-orthogonal (horizontal, vertical) parts of a vector at a point."""
    _require_product(B)
    p = np.asarray(point, dtype=float)
    v = np.asarray(V, dtype=float)
    gmat = B.gbar.values(p)
    et = np.zeros(B.chart.dim)
    et[B.t_index] = 1.0
    coeff = float(v @ gmat @ et) / float(et @ gmat @ et)
    horizontal = coeff * et
    return horizontal, v - horizontal


# ---------------------------------------------------------------------------
# fundamental tensors from the definition
# ---------------------------------------------------------------------------


def _split_field(B: SymplecticMetricStructure, E: TensorField
                 ) -> tuple[TensorField, TensorField]:
    """(vertical, horizontal) parts of a vector field: E minus its
    gbar-projection s d_t on the line, and s d_t itself."""
    D = B.chart.dim
    ti = B.t_index
    s = Const(0.0)
    for c in range(D):
        s = s + B.gbar.components[c, ti] * E.components[c]
    s = s / B.gbar.components[ti, ti]
    vertical = E.components.copy()
    vertical[ti] = E.components[ti] - s
    horizontal = np.full(D, Const(0.0), dtype=object)
    horizontal[ti] = s
    return TensorField(B.chart, 1, 0, vertical), TensorField(B.chart, 1, 0, horizontal)


def _project_values(B: SymplecticMetricStructure, vecs: np.ndarray,
                    gv: np.ndarray, horizontal: bool) -> np.ndarray:
    """Pointwise gbar-projection of value vectors on/off the d_t line."""
    ti = B.t_index
    coeff = np.einsum("nc,nc->n", gv[:, :, ti], vecs) / gv[:, ti, ti]
    horiz = np.zeros_like(vecs)
    horiz[:, ti] = coeff
    return horiz if horizontal else vecs - horiz


def _oneill(B: SymplecticMetricStructure, E1: TensorField, E2: TensorField,
            points: np.ndarray, data: ChristoffelData | None,
            horizontal_e1: bool) -> np.ndarray:
    """H nabla_{P E1} V E2 + V nabla_{P E1} H E2, with P = H or V."""
    _require_product(B)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if data is None:
        data = christoffel_batch(B.gbar, pts)
    gv = data.g
    pe1 = _project_values(B, E1.values(pts), gv, horizontal=horizontal_e1)
    ve2_field, he2_field = _split_field(B, E2)
    nabla_v = covariant_derivative_values(B.gbar, ve2_field, pts, data)
    nabla_h = covariant_derivative_values(B.gbar, he2_field, pts, data)
    d_v = np.einsum("nkm,nm->nk", nabla_v, pe1)
    d_h = np.einsum("nkm,nm->nk", nabla_h, pe1)
    return (_project_values(B, d_v, gv, horizontal=True)
            + _project_values(B, d_h, gv, horizontal=False))


def oneill_T(B: SymplecticMetricStructure, E1: TensorField, E2: TensorField,
             points: np.ndarray, data: ChristoffelData | None = None) -> np.ndarray:
    """T_{E1} E2 from the definition, at a batch of points.

    T_{E1}E2 = H nabla_{V E1} V E2 + V nabla_{V E1} H E2 with H and V the
    horizontal and vertical projections.
    """
    return _oneill(B, E1, E2, points, data, horizontal_e1=False)


def oneill_A(B: SymplecticMetricStructure, E1: TensorField, E2: TensorField,
             points: np.ndarray, data: ChristoffelData | None = None) -> np.ndarray:
    """A_{E1} E2 from the definition, at a batch of points.

    A_{E1}E2 = H nabla_{H E1} V E2 + V nabla_{H E1} H E2.
    """
    return _oneill(B, E1, E2, points, data, horizontal_e1=True)


def fundamental_T_field(B: SymplecticMetricStructure) -> TensorField:
    """The closed form of T as a (1,2) field on the product chart.

    Components: T(d_a, d_b) = -(gbar_ab + etat_a etat_b) d_t for slice
    indices a, b, and T(d_a, d_t) = d_a + etat_a xi_t; horizontal first
    slot gives zero.
    """
    S = _require_product(B)
    chart = B.chart
    D = chart.dim
    ti = B.t_index
    etat = extended_slice_form(S, chart)
    xit = extended_slice_reeb(S, chart)
    comps = np.empty((D, D, D), dtype=object)
    comps[...] = Const(0.0)
    for a in range(D - 1):
        for b in range(D - 1):
            comps[ti, a, b] = -(B.gbar.components[a, b]
                                + etat.components[a] * etat.components[b])
        for k in range(D):
            term = etat.components[a] * xit.components[k]
            if k == a:
                term = term + Const(1.0)
            comps[k, a, ti] = term
    return TensorField(chart, 1, 2, comps)


# ---------------------------------------------------------------------------
# slice curvature, computed intrinsically on the base coordinates
# ---------------------------------------------------------------------------


def slice_christoffel_batch(B: SymplecticMetricStructure, points: np.ndarray
                            ) -> ChristoffelData:
    """Connection data of the slice metric g_t, restricted to base slots.

    The slice family is evaluated on the ambient points but only the base
    partial derivatives enter, so this is the intrinsic curvature of the
    slice through each point, independent of the ambient pipeline.
    """
    S = _require_product(B)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    d = S.chart.dim
    gt = slice_metric_field(S, B.chart)
    vals, grads, hesses = gt.jet_blocks(pts)
    return christoffel_from_blocks(
        pts, vals[:, :d, :d], grads[:, :d, :d, :d], hesses[:, :d, :d, :d, :d]
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalTensorReport:
    vertical_pair_residual: float     # T(X, Y) closed form
    mixed_pair_residual: float        # T(X, d_t) closed form
    horizontal_rows_residual: float   # T vanishes on horizontal first slot
    a_tensor_residual: float          # A = 0
    samples: int

    @property
    def max_residual(self) -> float:
        return sup_norm(self.vertical_pair_residual, self.mixed_pair_residual,
                        self.horizontal_rows_residual, self.a_tensor_residual)


def verify_fundamental_tensors(B: SymplecticMetricStructure, n_samples: int = 50,
                   seed: int | None = None) -> FundamentalTensorReport:
    """Fundamental tensors from the definition versus the closed form."""
    S = _require_product(B)
    pts = B.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(B.gbar, pts)
    D = B.chart.dim
    d = S.chart.dim
    ti = B.t_index
    gv = data.g
    etat = extended_slice_form(S, B.chart).values(pts)
    xit = extended_slice_reeb(S, B.chart).values(pts)
    coord_fields = [TensorField.coordinate_vector(B.chart, i) for i in range(D)]

    vv, vt = [], []
    for a in range(d):
        Ta_t = oneill_T(B, coord_fields[a], coord_fields[ti], pts, data)
        expected = np.zeros_like(Ta_t)
        expected[:, a] = 1.0
        expected += etat[:, a:a + 1] * xit
        vt.append(Ta_t - expected)
        for b in range(d):
            Tab = oneill_T(B, coord_fields[a], coord_fields[b], pts, data)
            expected = np.zeros_like(Tab)
            expected[:, ti] = -(gv[:, a, b] + etat[:, a] * etat[:, b])
            vv.append(Tab - expected)
    r_h = sup_norm(*(oneill_T(B, coord_fields[ti], coord_fields[b], pts, data)
                     for b in range(D)))
    r_a = sup_norm(*(oneill_A(B, coord_fields[a], coord_fields[b], pts, data)
                     for a in range(D) for b in range(D)))
    return FundamentalTensorReport(sup_norm(*vv), sup_norm(*vt), r_h, r_a, n_samples)


@dataclass(frozen=True)
class OneillCurvatureReport:
    vertical_identity: float      # four vertical slots
    three_vertical_identity: float
    mixed_identity: float         # horizontal-vertical-horizontal-vertical
    two_pair_identity: float      # vertical pair against horizontal pair
    samples: int

    @property
    def max_residual(self) -> float:
        return sup_norm(self.vertical_identity, self.three_vertical_identity,
                        self.mixed_identity, self.two_pair_identity)


def verify_oneill_curvature(B: SymplecticMetricStructure, n_samples: int = 50,
                            seed: int | None = None) -> OneillCurvatureReport:
    """The four curvature relations of a submersion with a line base.

    Writing (V1,V2,V3,V4) for gbar(R(V1,V2)V3, V4), the relations compare
    the ambient curvature against the intrinsic slice curvature plus
    quadratic and differentiated terms in T.  The slice curvature comes
    from ``slice_christoffel_batch`` and T from its closed form, so both
    sides are computed along independent paths.
    """
    S = _require_product(B)
    pts = B.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(B.gbar, pts)
    D = B.chart.dim
    d = S.chart.dim
    ti = B.t_index
    gv = data.g
    riem = riemann_components(data)
    rlow = np.einsum("nel,nlkij->nekij", gv, riem)  # gbar(R(d_i,d_j)d_k, d_e)

    sl = slice_christoffel_batch(B, pts)
    riem_t = riemann_components(sl)
    rlow_t = np.einsum("nel,nlkij->nekij", sl.g, riem_t)

    Tf = fundamental_T_field(B)
    tv = Tf.values(pts)                    # tv[n, k, a, b]
    dT = covariant_derivative_values(B.gbar, Tf, pts, data)  # [n,k,a,b,m]

    def pair(k1, a1, k2, a2):
        """gbar(T(d_k1, d_a1), T(d_k2, d_a2)) batched."""
        return np.einsum("nc,ncd,nd->n", tv[:, :, k1, a1], gv, tv[:, :, k2, a2])

    d1, d2, d3, d4 = [], [], [], []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    lhs = rlow[:, e, c, a, b]
                    rhs = rlow_t[:, e, c, a, b] + pair(a, c, b, e) - pair(b, c, a, e)
                    d1.append(lhs - rhs)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                lhs = rlow[:, ti, c, a, b]
                dterm = dT[:, :, b, c, a] - dT[:, :, a, c, b]
                rhs = np.einsum("nc,ncd,nd->n", dterm, gv, _unit(B, pts))
                d2.append(lhs - rhs)
    for a in range(d):
        for b in range(d):
            lhs = rlow[:, b, ti, ti, a]
            qterm = np.einsum("nc,ncd,nd->n", tv[:, :, a, ti], gv, tv[:, :, b, ti])
            dterm = np.einsum("nc,ncd,nd->n", dT[:, :, a, b, ti], gv, _unit(B, pts))
            rhs = qterm - dterm
            d3.append(lhs - rhs)
    for a in range(d):
        for b in range(d):
            lhs = rlow[:, ti, ti, a, b]
            rhs = (np.einsum("nc,ncd,nd->n", tv[:, :, a, ti], gv, tv[:, :, b, ti])
                   - np.einsum("nc,ncd,nd->n", tv[:, :, b, ti], gv, tv[:, :, a, ti]))
            d4.append(lhs - rhs)
    return OneillCurvatureReport(sup_norm(*d1), sup_norm(*d2), sup_norm(*d3), sup_norm(*d4),
                                 n_samples)


def _unit(B: SymplecticMetricStructure, pts: np.ndarray) -> np.ndarray:
    et = np.zeros((len(pts), B.chart.dim))
    et[:, B.t_index] = 1.0
    return et


@dataclass(frozen=True)
class CurvatureRelationsReport:
    """Residuals of the four relations, plus a sign-flip diagnostic.

    ``sign_flip_detected`` is set when the radial relation fails as stated
    but holds after negating the ambient curvature; that separates a
    curvature-sign-convention dispute from a genuine defect instead of
    letting the two fail identically.
    """

    vertical_part: float        # relation for V(R(X,Y)Z)
    horizontal_part: float      # relation for the d_t component of R(X,Y)Z
    radial_relation: float      # gbar(R(d_t,X)d_t, Y) = g_t(X,Y) + 3 etat etat
    degenerate_relation: float  # gbar(R(X,Y)d_t, d_t) = 0
    sign_flip_detected: bool
    samples: int

    @property
    def max_residual(self) -> float:
        return sup_norm(self.vertical_part, self.horizontal_part,
                        self.radial_relation, self.degenerate_relation)


def verify_currel(B: SymplecticMetricStructure, n_samples: int = 50,
                  seed: int | None = None) -> CurvatureRelationsReport:
    """Curvature of the product against slice data, four relations.

    For slice-tangent coordinate fields X, Y, Z (with eta_t, xi_t, g_t, h_t
    the slice quantities at each point):

      1. V(R(X,Y)Z) = R_slice(X,Y)Z + g_t(X + eta_t(X) xi_t, Z) Y
                      - g_t(Y + eta_t(Y) xi_t, Z) X
                      + g_t(eta_t(Y) X - eta_t(X) Y, Z) xi_t
      2. gbar(R(X,Y)Z, d_t) = -g_t(phi Z, eta_t(Y) X - eta_t(X) Y
                      + eta_t(Y) h_t X - eta_t(X) h_t Y)
                      + 2 eta_t(Z) g_t(Y, phi X)
      3. gbar(R(d_t, X) d_t, Y) = g_t(X, Y) + 3 eta_t(X) eta_t(Y)
      4. gbar(R(X, Y) d_t, d_t) = 0
    """
    S = _require_product(B)
    pts = B.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(B.gbar, pts)
    D = B.chart.dim
    d = S.chart.dim
    ti = B.t_index
    gv = data.g
    riem = riemann_components(data)
    rlow = np.einsum("nel,nlkij->nekij", gv, riem)

    sl = slice_christoffel_batch(B, pts)
    riem_t = riemann_components(sl)                 # base-sized arrays
    gt = sl.g
    etat = extended_slice_form(S, B.chart).values(pts)[:, :d]
    xit = extended_slice_reeb(S, B.chart).values(pts)[:, :d]
    phiv = extend_to_product(S.phi, B.chart).values(pts)[:, :d, :d]
    e2t = np.exp(2.0 * pts[:, ti])
    hv = extend_to_product(S.h, B.chart).values(pts)[:, :d, :d] / e2t[:, None, None]

    P = gt + np.einsum("na,nb->nab", etat, etat)

    d1, d2, d3, d3_flipped = [], [], [], []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                lhs = riem[:, :d, c, a, b]
                rhs = riem_t[:, :, c, a, b].copy()
                rhs[:, b] += P[:, a, c]
                rhs[:, a] -= P[:, b, c]
                coeff = etat[:, b] * gt[:, a, c] - etat[:, a] * gt[:, b, c]
                rhs += coeff[:, None] * xit
                d1.append(lhs - rhs)
                # the horizontal remainder of R(X,Y)Z is relation 2
    for a in range(d):
        for b in range(d):
            for c in range(d):
                lhs = rlow[:, ti, c, a, b]
                w = np.zeros_like(xit)
                w[:, a] += etat[:, b]
                w[:, b] -= etat[:, a]
                w += etat[:, b, None] * hv[:, :, a] - etat[:, a, None] * hv[:, :, b]
                phz = phiv[:, :, c]
                rhs = -np.einsum("ni,nij,nj->n", phz, gt, w)
                rhs += 2.0 * etat[:, c] * np.einsum("nj,nj->n", gt[:, b, :], phiv[:, :, a])
                d2.append(lhs - rhs)
    for a in range(d):
        for b in range(d):
            lhs = rlow[:, b, ti, ti, a]
            rhs = gt[:, a, b] + 3.0 * etat[:, a] * etat[:, b]
            d3.append(lhs - rhs)
            d3_flipped.append(lhs + rhs)
    r3 = sup_norm(*d3)
    sign_flip = r3 > 1e-6 and sup_norm(*d3_flipped) < 1e-6
    return CurvatureRelationsReport(sup_norm(*d1), sup_norm(*d2), r3,
                                    sup_norm(rlow[:, ti, ti, :d, :d]), sign_flip, n_samples)


@dataclass(frozen=True)
class RicciTableReport:
    """Residuals of the Ricci rows of the submersion, frame by frame.

    The distribution-block row uses the constant 2n + 2, which is what the
    radial relation (relation 3 above) together with the vertical relation
    forces; the verification derivation is spelled out in the test suite.
    """

    distribution_block: float   # Ric(e_i, e_j) = Ric_t(e_i, e_j) - (2n+2) delta_ij
    distribution_reeb: float    # Ric(e_i, xi_t) = Ric_t(e_i, xi_t)
    distribution_line: float    # Ric(e_i, d_t) = 0
    reeb_line: float            # Ric(xi_t, d_t) = 0
    reeb_reeb: float            # Ric(xi_t, xi_t) = Ric_t(xi_t, xi_t) - 4n - 4
    line_line: float            # Ric(d_t, d_t) = -2n - 4
    sign_flip_detected: bool    # line row holds only with negated curvature
    samples: int

    @property
    def max_residual(self) -> float:
        return sup_norm(self.distribution_block, self.distribution_reeb,
                        self.distribution_line, self.reeb_line, self.reeb_reeb,
                        self.line_line)


def verify_ricci_relations(B: SymplecticMetricStructure, n_samples: int = 50,
                           seed: int | None = None) -> RicciTableReport:
    S = _require_product(B)
    pts = B.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(B.gbar, pts)
    D = B.chart.dim
    d = S.chart.dim
    nn = S.n
    ti = B.t_index
    ric_bar = ricci_components(data)
    sl = slice_christoffel_batch(B, pts)
    ric_t = ricci_components(sl)
    etat_full = extended_slice_form(S, B.chart).values(pts)
    xit_full = extended_slice_reeb(S, B.chart).values(pts)

    block, dreeb, dline, rline, rr, ll, ll_flipped = ([] for _ in range(7))
    for k in range(len(pts)):
        gmat = data.g[k]
        seeds = [xit_full[k], _unit(B, pts)[k]]
        frame = gram_schmidt_frame(gmat, seeds=np.stack(seeds))
        xi_hat, e_t = frame[0], frame[1]
        es = frame[2:]
        rb = ric_bar[k]
        rt = ric_t[k]

        def ric_slice(u, v):
            return float(u[:d] @ rt @ v[:d])

        for i, ei in enumerate(es):
            for j, ej in enumerate(es):
                block.append(float(ei @ rb @ ej) - ric_slice(ei, ej)
                             + (2.0 * nn + 2.0) * (1.0 if i == j else 0.0))
            dreeb.append(float(ei @ rb @ xi_hat) - ric_slice(ei, xi_hat))
            dline.append(float(ei @ rb @ e_t))
        rline.append(float(xi_hat @ rb @ e_t))
        rr.append(float(xi_hat @ rb @ xi_hat) - ric_slice(xi_hat, xi_hat) + 4.0 * nn + 4.0)
        ll.append(float(e_t @ rb @ e_t) + 2.0 * nn + 4.0)
        ll_flipped.append(float(e_t @ rb @ e_t) - 2.0 * nn - 4.0)
    r_ll = sup_norm(ll)
    sign_flip = r_ll > 1e-6 and sup_norm(ll_flipped) < 1e-6
    return RicciTableReport(sup_norm(block), sup_norm(dreeb), sup_norm(dline),
                            sup_norm(rline), sup_norm(rr), r_ll, sign_flip, n_samples)


@dataclass(frozen=True)
class SymplectizationKmuReport:
    kappa_tilde: float
    mu_tilde: float | None
    residual: float
    t: float
    samples: int


def fit_symplectization_kmu(B: SymplecticMetricStructure, t: float,
                            n_samples: int = 50, seed: int | None = None
                            ) -> SymplectizationKmuReport:
    """Fit V(R(X, Y) xi_t) = (k I + m h_t)(eta_t(Y) X - eta_t(X) Y).

    Arguments X, Y run over the slice coordinate directions at points of
    the slice at ``t``.  For a structure whose slice satisfies the nullity
    condition with constants (kappa_t, mu_t), the fitted values are
    (kappa_t - 2, mu_t); mu is undefined when h vanishes.
    """
    S = _require_product(B)
    d = S.chart.dim
    base_pts = S.chart.samples(n_samples, seed=seed)
    pts = np.concatenate([base_pts, np.full((len(base_pts), 1), float(t))], axis=1)
    data = christoffel_batch(B.gbar, pts)
    riem = riemann_components(data)
    xit = extended_slice_reeb(S, B.chart).values(pts)
    etat = extended_slice_form(S, B.chart).values(pts)[:, :d]
    e2t = math.exp(2.0 * t)
    hv = S.h.values(base_pts) / e2t

    # V(R(d_a, d_b) xi_t), base components
    lhs = np.einsum("nlkab,nk->nlab", riem[:, :d, :, :d, :d], xit)
    eye = np.eye(d)
    colA = np.einsum("nb,la->nlab", etat, eye) - np.einsum("na,lb->nlab", etat, eye)
    colB = np.einsum("nb,nla->nlab", etat, hv) - np.einsum("na,nlb->nlab", etat, hv)

    h_max = sup_norm(h_norms(S, base_pts))
    bvec = lhs.ravel()
    if h_max < 1e-8:
        amat = colA.ravel()[:, None]
        sol, *_ = np.linalg.lstsq(amat, bvec, rcond=None)
        kt = float(sol[0])
        res = sup_norm(lhs - kt * colA)
        return SymplectizationKmuReport(kt, None, res, float(t), n_samples)
    amat = np.stack([colA.ravel(), colB.ravel()], axis=1)
    sol, *_ = np.linalg.lstsq(amat, bvec, rcond=None)
    kt, mt = float(sol[0]), float(sol[1])
    res = sup_norm(lhs - kt * colA - mt * colB)
    return SymplectizationKmuReport(kt, mt, res, float(t), n_samples)


@dataclass(frozen=True)
class RigidityReport:
    """Diagnostics for the constant-Ricci-form rigidity criterion.

    ``hypothesis_residual`` is the largest frame component of
    Ric + (2n+4) dt (x) dt; the hypothesis of the rigidity statement holds
    only when this vanishes.  ``forward_arithmetic_residual`` checks that
    the implemented Ricci rows, under the hypothesis, force the slice to be
    eta-Einstein with both coefficients 2n + 2.  ``slice_eta_einstein``
    maps slice parameters to their fitted (alpha, beta, residual).
    """

    hypothesis_residual: float
    hypothesis_holds: bool
    witness_labels: tuple[str, str]
    forward_arithmetic_residual: float
    slice_eta_einstein: dict
    samples: int


def verify_kumrig_negative(B: SymplecticMetricStructure, n_samples: int = 30,
                           seed: int | None = None,
                           slice_ts: tuple[float, ...] = (0.0, 0.4)
                           ) -> RigidityReport:
    from .contact import eta_einstein_fit
    from .symplectization import slice_structure

    S = _require_product(B)
    pts = B.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(B.gbar, pts)
    nn = S.n
    ric_bar = ricci_components(data)
    xit_full = extended_slice_reeb(S, B.chart).values(pts)

    D = B.chart.dim
    names = ["xi_t", "d_t"] + [f"e{i+1}" for i in range(D - 2)]
    dt_cov = np.zeros(D)
    dt_cov[B.t_index] = 1.0
    table = np.empty((len(pts), D, D))      # frame components of Ric + (2n+4) dt^2
    for k in range(len(pts)):
        gmat = data.g[k]
        frame = gram_schmidt_frame(gmat, seeds=np.stack([xit_full[k], _unit(B, pts)[k]]))
        for i in range(D):
            for j in range(D):
                val = float(frame[i] @ ric_bar[k] @ frame[j])
                val += (2.0 * nn + 4.0) * float(frame[i] @ dt_cov) * float(frame[j] @ dt_cov)
                table[k, i, j] = val
    worst = sup_norm(table)
    _, i, j = np.unravel_index(np.argmax(np.abs(table)), table.shape)
    labels = (names[i], names[j])
    hypothesis_holds = worst < 1e-6

    # forward arithmetic: under the hypothesis the implemented rows give
    # Ric_t(e_i, e_j) = (2n+2) delta, Ric_t(e_i, xi) = 0,
    # Ric_t(xi, xi) = 4n + 4, i.e. Ric_t = (2n+2) g_t + (2n+2) etat (x) etat.
    dim_v = 2 * nn + 1
    hyp_rows = np.zeros((dim_v, dim_v))
    hyp_rows[:dim_v - 1, :dim_v - 1] = (2.0 * nn + 2.0) * np.eye(dim_v - 1)
    hyp_rows[dim_v - 1, dim_v - 1] = 4.0 * nn + 4.0
    alpha = beta = 2.0 * nn + 2.0
    model = alpha * np.eye(dim_v)
    model[dim_v - 1, dim_v - 1] += beta
    forward_res = sup_norm(hyp_rows - model)

    slice_fits = {}
    for t0 in slice_ts:
        sl = slice_structure(B, t0)
        rep = eta_einstein_fit(sl.structure, n_samples=max(20, n_samples // 2), seed=seed)
        slice_fits[t0] = (rep.alpha, rep.beta, rep.residual)

    return RigidityReport(worst, hypothesis_holds, labels, forward_res,
                          slice_fits, n_samples)
