"""The projection of the metric symplectization onto its line factor.

With gbar = g_t + dt^2, projecting M x R onto the line is a Riemannian
submersion whose vertical spaces are the slice tangent spaces and whose
horizontal line is spanned by d_t.  Because the base is one-dimensional
and the horizontal line field integrable, one fundamental tensor vanishes
(A = 0) and the other is determined by

    T_X Y   = -(gbar(X, Y) + eta_t(X) eta_t(Y)) d_t,
    T_X d_t = X + eta_t(X) xi_t,

for slice-tangent X, Y.  The verifiers below read the fundamental tensors
as tables T[n, k, a, b], A[n, k, a, b] on coordinate fields: d_t is
gbar-orthogonal to the slices, so the projected covariant derivatives of
their definition are four blocks of gbar's Christoffel symbols.  T and A
are tensorial in both slots, so the tables determine them on any pair of
vector fields.  The verifiers compare T against the closed form above,
evaluated from the slice values of eta_t and xi_t, and check the standard
curvature relations that the submersion implies, with the slice curvature
computed intrinsically from the base block of gbar's jets, which hold g_t,
so the comparison stays a genuine cross-check.  The Ricci rows are traces
of the same two Riemann tensors, read in gbar-orthonormal frames
(xi_t, d_t, e_i), built for the whole sample batch by one call of
:func:`curvature.gram_schmidt_frame`.  The nullity fit reads gbar's
curvature along xi_t on whatever slices the samples lie, and undoes the
D-homothety law of the slices to fit the base's (kappa, mu) in one
least-squares solve.  All three take gbar's connection data and the base
record at its base coordinates, so one walk of gbar and one R serve them.
Each verifier returns its residuals as a dict from the name of the
identity to its sup norm over the samples, in a fixed order.
"""

from __future__ import annotations

import numpy as np

from .contact import KmuReport, StructureValues, _nullity_basis, nullity_fit
from .curvature import (
    ChristoffelData,
    christoffel_from_blocks,
    gram_schmidt_frame,
    ricci_components,
)
from .errors import DomainError, GeometryError
from .fields import TensorField, sup_norm
from .symplectization import SymplecticMetricStructure, slice_form_values

__all__ = [
    "oneill_T",
    "oneill_A",
    "verify_fundamental_tensors",
    "verify_currel",
    "fit_symplectization_kmu",
    "slice_christoffel_batch",
]


# ---------------------------------------------------------------------------
# fundamental tensors from the definition
# ---------------------------------------------------------------------------


def _oneill_tables(B: SymplecticMetricStructure, data: ChristoffelData
                   ) -> tuple[np.ndarray, np.ndarray]:
    """T[n, k, a, b] and A[n, k, a, b]: the d_k component at sample n of
    T_{d_a} d_b and A_{d_a} d_b, from the connection data alone.

    When d_t is gbar-orthogonal to the slices, the horizontal part of d_c
    is delta_ct d_t, so the projected covariant derivatives are blocks of
    Gamma.  For slice indices a, b, k the non-zero entries are
    T[t, a, b] = Gamma^t_ab and T[k, a, t] = Gamma^k_at, and
    A[t, t, b] = Gamma^t_tb and A[k, t, t] = Gamma^k_tt.  Raises
    ``GeometryError`` when an off-diagonal entry of gbar's t row is not
    structurally zero.
    """
    ti = B.t_index
    off = [c for c in range(ti) if not B.gbar.components[ti, c].is_zero()]
    if off:
        raise GeometryError(f"gbar[{ti}, {off[0]}] is not structurally zero: d_t is not "
                            "orthogonal to the slices, and T and A are read from Gamma only then")
    v = slice(0, ti)
    gamma = data.gamma
    T, A = np.zeros_like(gamma), np.zeros_like(gamma)
    T[:, ti, v, v] = gamma[:, ti, v, v]
    T[:, v, v, ti] = gamma[:, v, v, ti]
    A[:, ti, ti, v] = gamma[:, ti, ti, v]
    A[:, v, ti, ti] = gamma[:, v, ti, ti]
    return T, A


def oneill_T(B: SymplecticMetricStructure, E1: TensorField, E2: TensorField,
             points: np.ndarray, data: ChristoffelData) -> np.ndarray:
    """T_{E1} E2 from the definition, at a batch of points with connection
    data ``data`` of gbar.

    T_{E1}E2 = H nabla_{V E1} V E2 + V nabla_{V E1} H E2 with H and V the
    horizontal and vertical projections.  T is tensorial in both slots, so
    this contracts the coordinate table of T with the values of E1 and E2;
    the result equals the definition for any vector fields.
    """
    T, _ = _oneill_tables(B, data)
    return np.einsum("nkab,na,nb->nk", T, E1.values(points), E2.values(points))


def oneill_A(B: SymplecticMetricStructure, E1: TensorField, E2: TensorField,
             points: np.ndarray, data: ChristoffelData) -> np.ndarray:
    """A_{E1} E2 from the definition, at a batch of points.

    A_{E1}E2 = H nabla_{H E1} V E2 + V nabla_{H E1} H E2.  Like T, A is
    tensorial in both slots and is contracted from its coordinate table.
    """
    _, A = _oneill_tables(B, data)
    return np.einsum("nkab,na,nb->nk", A, E1.values(points), E2.values(points))


# ---------------------------------------------------------------------------
# slice curvature, computed intrinsically on the base coordinates
# ---------------------------------------------------------------------------


def slice_christoffel_batch(data: ChristoffelData) -> ChristoffelData:
    """Connection data of the slice metric g_t, from the connection data
    ``data`` of gbar restricted to the base slots (all but the last).

    gbar = g_t + dt^2 holds the nodes of g_t in its base block, so the
    restricted jets are bit for bit those of g_t.  Only the base partial
    derivatives enter, so this is the intrinsic curvature of the slice
    through each point, independent of the ambient pipeline.
    """
    b = slice(0, -1)
    return christoffel_from_blocks(data.points, data.g[:, b, b], data.dg[:, b, b, b],
                                   data.hess[:, b, b, b, b])


# ---------------------------------------------------------------------------
# residuals of the submersion identities
# ---------------------------------------------------------------------------


def verify_fundamental_tensors(B: SymplecticMetricStructure, data: ChristoffelData,
                               values: StructureValues) -> dict[str, float]:
    """Fundamental tensors from the definition versus the closed form, at the
    samples of gbar's connection data ``data``.

    The residuals are ``vertical_pair`` and ``mixed_pair`` for the closed
    forms of T(X, Y) and T(X, d_t).  T on a horizontal first slot and A
    are blocks of Gamma that gbar's t row, a one and zeros, sets to zero,
    so no residual of gbar = g_t + dt^2 reads them.
    """
    D = B.chart.dim
    d = ti = B.t_index
    gv = data.g
    etat, xit = slice_form_values(values, data.points)
    T, _ = _oneill_tables(B, data)

    # T(d_a, d_b) = -(gbar_ab + etat_a etat_b) d_t for slice indices a, b
    vv = T[:, :, :d, :d].copy()
    vv[:, ti] += gv[:, :d, :d] + etat[:, :d, None] * etat[:, None, :d]
    # T(d_a, d_t) = d_a + etat_a xi_t, as [n, k, a]
    vt = T[:, :, :d, ti] - (np.eye(D)[:, :d] + xit[:, :, None] * etat[:, None, :d])
    return {"vertical_pair": sup_norm(vv), "mixed_pair": sup_norm(vt)}


def verify_currel(B: SymplecticMetricStructure, data: ChristoffelData,
                  values: StructureValues) -> dict[str, float]:
    """Curvature of the product against slice data, at the samples of gbar's
    connection data ``data``: three relations, then the six Ricci rows.

    For slice-tangent coordinate fields X, Y, Z (with eta_t, xi_t, g_t, h_t
    the slice quantities at each point):

      1. V(R(X,Y)Z) = R_slice(X,Y)Z + g_t(X + eta_t(X) xi_t, Z) Y
                      - g_t(Y + eta_t(Y) xi_t, Z) X
                      + g_t(eta_t(Y) X - eta_t(X) Y, Z) xi_t
      2. gbar(R(X,Y)Z, d_t) = -g_t(phi Z, eta_t(Y) X - eta_t(X) Y
                      + eta_t(Y) h_t X - eta_t(X) h_t Y)
                      + 2 eta_t(Z) g_t(Y, phi X)
      3. gbar(R(d_t, X) d_t, Y) = g_t(X, Y) + 3 eta_t(X) eta_t(Y)

    Their residuals are ``vertical_part``, ``horizontal_part`` and
    ``radial_relation``.  gbar(R(X, Y) d_t, d_t) = 0 needs no residual:
    ``data.riem`` (:func:`curvature.riemann_components`) builds in the
    antisymmetry of R(X, Y) that gives it.

    The Ricci rows, traced from the same two Riemann tensors, are read in a
    gbar-orthonormal frame (xi_t, d_t, e_i) with e_i spanning the contact
    distribution:

      distribution_block  Ric(e_i, e_j) = Ric_t(e_i, e_j) - (2n+2) delta_ij
      distribution_reeb   Ric(e_i, xi_t) = Ric_t(e_i, xi_t)
      distribution_line   Ric(e_i, d_t) = 0
      reeb_line           Ric(xi_t, d_t) = 0
      reeb_reeb           Ric(xi_t, xi_t) = Ric_t(xi_t, xi_t) - 4n - 4
      line_line           Ric(d_t, d_t) = -2n - 4

    The distribution-block constant 2n + 2 is what the radial relation
    together with the vertical relation forces; the derivation is spelled
    out in the test suite.
    """
    pts = data.points
    D = B.chart.dim
    d = ti = B.t_index
    nn = B.base.n
    gv = data.g
    rt = np.einsum("nl,nlkij->nkij", gv[:, ti], data.riem)  # gbar(R(d_i, d_j) d_k, d_t)

    sl = slice_christoffel_batch(data)  # base-sized arrays
    gt = sl.g
    etat_full, xit_full = slice_form_values(values, pts)
    etat, xit = etat_full[:, :d], xit_full[:, :d]
    phiv = values.phi
    e2t = np.exp(2.0 * pts[:, ti])
    hv = values.h / e2t[:, None, None]

    P = gt + np.einsum("na,nb->nab", etat, etat)
    eye = np.eye(d)

    # relation 1 over [n, l, c, a, b], X = d_a, Y = d_b, Z = d_c; the
    # horizontal remainder of R(X,Y)Z is relation 2
    Pt, gtt = np.swapaxes(P, 1, 2), np.swapaxes(gt, 1, 2)             # [n, c, a]
    rhs1 = (sl.riem + eye[:, None, None, :] * Pt[:, None, :, :, None]
            - eye[:, None, :, None] * Pt[:, None, :, None, :])
    coeff = (etat[:, None, None, :] * gtt[:, :, :, None]
             - etat[:, None, :, None] * gtt[:, :, None, :])             # [n, c, a, b]
    rhs1 += coeff[:, None] * xit[:, :, None, None, None]
    d1 = data.riem[:, :d, :d, :d, :d] - rhs1

    # relation 2 over [n, c, a, b]: with K = phi^T g_t (I + h_t), the first
    # term is -(K[c, a] eta_t(Y) - K[c, b] eta_t(X))
    K = np.swapaxes(phiv, 1, 2) @ gt @ (eye + hv)
    rhs2 = -(K[:, :, :, None] * etat[:, None, None, :] - K[:, :, None, :] * etat[:, None, :, None])
    rhs2 += 2.0 * etat[:, :, None, None] * np.swapaxes(gt @ phiv, 1, 2)[:, None]
    d2 = rt[:, :d, :d, :d] - rhs2

    # relation 3 over [n, b, a]
    lhs3 = np.einsum("nbl,nla->nba", gv[:, :d], data.riem[:, :, ti, ti, :d])
    rhs3 = gtt + 3.0 * etat[:, None, :] * etat[:, :, None]

    # the Ricci rows in gbar-orthonormal frames seeded by xi_t and d_t, with
    # rows xi_hat, e_t, then the distribution e_i: rb[n, i, j] = Ric(f_i, f_j)
    et = np.broadcast_to(np.eye(D)[ti], xit_full.shape)
    fb = gram_schmidt_frame(gv, np.stack([xit_full, et], axis=1), pts)
    fs = fb[:, :, :d]
    rb = fb @ ricci_components(data.riem) @ np.swapaxes(fb, 1, 2)
    rs = fs @ ricci_components(sl.riem) @ np.swapaxes(fs, 1, 2)
    block = rb[:, 2:, 2:] - rs[:, 2:, 2:] + (2.0 * nn + 2.0) * np.eye(D - 2)
    return {"vertical_part": sup_norm(d1), "horizontal_part": sup_norm(d2),
            "radial_relation": sup_norm(lhs3 - rhs3),
            "distribution_block": sup_norm(block),
            "distribution_reeb": sup_norm(rb[:, 2:, 0] - rs[:, 2:, 0]),
            "distribution_line": sup_norm(rb[:, 2:, 1]), "reeb_line": sup_norm(rb[:, 0, 1]),
            "reeb_reeb": sup_norm(rb[:, 0, 0] - rs[:, 0, 0] + 4.0 * nn + 4.0),
            "line_line": sup_norm(rb[:, 1, 1] + 2.0 * nn + 4.0)}


def fit_symplectization_kmu(B: SymplecticMetricStructure, data: ChristoffelData,
                            values: StructureValues) -> KmuReport:
    """The base's (kappa, mu), fitted from gbar's curvature along xi_t at
    the samples of gbar's connection ``data``, whatever their slices.

    With a = exp(2t), A_t = eta_t(Y) X - eta_t(X) Y and h_t = h/a, a slice
    obeys V(R(X, Y) xi_t) = ((kappa_t - 2) I + mu_t h_t) A_t, and the
    D-homothety law at a turns this into

      V(R(X, Y) xi_t) + (I - 2 h_t) A_t + (I + 2 h) A_t / a^2 = (kappa I + mu h) A_t / a^2

    with A_t / a^2 the nullity basis of eta / a: one
    :func:`contact.nullity_fit` over all samples, its residual in gbar's
    units.  The base record ``values`` at the samples' base coordinates
    supplies eta, xi, g and h.  A sample whose t lies outside B's t
    interval is a ``DomainError`` that names it, as for :func:`slice_structure`.
    """
    d = B.t_index
    pts = data.points
    lo, hi = B.chart.domain[d]
    outside = pts[~((lo <= pts[:, d]) & (pts[:, d] <= hi)), d]
    if outside.size:
        raise DomainError(f"slice parameter {outside[0]} outside [{lo}, {hi}]")
    a = np.exp(2.0 * pts[:, d])
    etat, xit = slice_form_values(values, pts)
    # V(R(d_i, d_j) xi_t), base components
    lhs = np.einsum("nlkij,nk->nlij", data.riem[:, :d, :, :d, :d], xit)
    At = _nullity_basis(etat[:, :d])
    hAt = np.einsum("nlk,nkij->nlij", values.h, At)   # a h_t A_t
    a4 = a[:, None, None, None]                       # a over [n, l, i, j]
    lhs = lhs + At - 2.0 * hAt / a4 + (At + 2.0 * hAt) / a4 ** 2
    return nullity_fit(pts, lhs, values.eta / a[:, None], values.g, values.h)
