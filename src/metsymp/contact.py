"""Contact metric structures and their pointwise verification toolkit.

A contact metric structure is a tuple (eta, g, phi) on an odd-dimensional
chart satisfying

    g(X, xi) = eta(X),
    phi^2    = -I + eta (x) xi,
    d eta(X, Y) = g(X, phi Y),

where xi is the Reeb field of eta.  The structure object derives xi
symbolically from eta alone (so the first axiom is a genuine test of g),
through d eta, which it builds once and keeps.  The tensor
h = (1/2) L_xi phi needs only first partials of xi and phi, so its values
come from their order-1 blocks (:func:`_h_from_jets`), and no symbolic Lie
derivative is built for it; ``S.h``, the symbolic tree, stays as the
reference the tests compare those values with.

A record of values (:class:`StructureValues`) holds eta, d eta, g, phi, xi
and h on a batch.  :func:`structure_records` builds the records of several
structures on one chart, such as a structure and its D-homotheties, from
one order-1 walk of all their xi and phi and one order-0 walk of all their
eta, d eta and g; each record is bit for bit that of its structure alone,
and :func:`structure_values` is the one-structure case.

The fitting routines estimate the constants of the nullity condition

    R(X, Y) xi = (kappa I + mu h)(eta(Y) X - eta(X) Y)

by least squares over samples and coordinate-frame pairs, with mu reported
as undefined whenever h vanishes identically (the condition then puts no
constraint on mu).  The eigenstructure of h is one report of arrays over a
sample batch, whose +lam and -lam masks pick the eigenvectors that the
eigenspace curvature identities run over.  The verifiers read a record of
the fields' values on a batch or its arrays; only :func:`fit_kappa_mu`,
the standalone fit, draws its own points and evaluates its own fields,
with the same h helper.  A suite run fits its structure by
:func:`kmu_fit` on the structure's record instead, which is the same fit
bit for bit at the run's samples and seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .charts import Chart
from .curvature import ChristoffelData, christoffel_batch
from .errors import (
    ChartMismatchError,
    DegenerateMetricError,
    DomainError,
    GeometryError,
    NotContactError,
    SasakianDegeneracyError,
    at_sample,
)
from .expressions import ONE, Const, Expr, sum_of_products
from .fields import (
    SmoothMap,
    TensorField,
    _fill,
    _live_partials,
    _masked_contraction,
    evaluate_fields,
    exterior_derivative,
    lie_derivative,
    pullback,
    sup_norm,
)

__all__ = [
    "ContactMetricStructure",
    "KmuReport",
    "HEigenReport",
    "StructureValues",
    "structure_values",
    "structure_records",
    "reeb_field",
    "verify_compatibility",
    "is_K_contact",
    "fit_kappa_mu",
    "kmu_fit",
    "nullity_fit",
    "d_homothety",
    "kappa_mu_after_rescale",
    "boeckx_index",
    "h_eigendecomposition",
    "h_eigendecomposition_batch",
    "verify_kmu_curvature",
    "verify_structure_isomorphism",
    "COMPAT_TOL",
    "H_VANISH_TOL",
    "FIT_TOL",
]

COMPAT_TOL = 1e-8
H_VANISH_TOL = 1e-8
FIT_TOL = 1e-6
REEB_TOL = 1e-9


def _pfaffian(A: np.ndarray, idx: tuple[int, ...], memo: dict) -> Expr:
    """Pfaffian of the skew matrix ``A`` on the sorted, even-sized index set
    ``idx``, by expansion along its first index.

    Only the canonical entries ``A[i, j]`` with i < j are read.  ``memo``
    shares each sub-Pfaffian by its index set.
    """
    if not idx:
        return ONE
    hit = memo.get(idx)
    if hit is not None:
        return hit
    first, rest = idx[0], idx[1:]
    total = sum_of_products(
        (-1 if k % 2 else 1, A[first, j],
         functools.partial(_pfaffian, A, rest[:k] + rest[k + 1:], memo))
        for k, j in enumerate(rest))
    memo[idx] = total
    return total


def reeb_field(eta: TensorField, deta: TensorField | None = None) -> TensorField:
    """The Reeb vector field of a contact form, as a closed-form field.

    ``deta`` is d eta where the caller holds it already, as
    :meth:`ContactMetricStructure.build` does; else it is built here.  With
    A = d eta, skew of odd size D = 2n + 1, set

        v_i = (-1)^i Pf(A with row and column i removed).

    Then A v = 0: (A v)_j is the Pfaffian of A bordered by its own row j,
    a matrix with two equal rows.  Expanding along its first index,

        eta(v) = Pf([[0, eta], [-eta^T, A]]),

    a fixed non-zero multiple of the top coefficient of eta ^ (d eta)^n.
    So eta(v) != 0 exactly where eta is contact, and there xi = v / eta(v)
    satisfies eta(xi) = 1 and d eta(xi, .) = 0.

    Raises ``NotContactError`` when eta(v) is structurally zero, that is
    when eta ^ (d eta)^n vanishes identically.
    """
    if (eta.r, eta.s) != (0, 1):
        raise GeometryError("reeb_field needs a 1-form")
    d = eta.chart.dim
    deta = (exterior_derivative(eta) if deta is None else deta).components
    full = tuple(range(d))
    memo: dict = {}
    v = []
    for i in full:
        pf = _pfaffian(deta, full[:i] + full[i + 1:], memo)
        v.append(-pf if i % 2 else pf)
    eta_v = sum_of_products((1, eta.components[i], v[i]) for i in full)
    if eta_v.is_zero():
        raise NotContactError(
            "eta ^ (d eta)^n vanishes identically: the form is contact nowhere")
    return TensorField.vector(eta.chart, [vi / eta_v for vi in v])


@dataclass(frozen=True)
class ContactMetricStructure:
    """Bundle (eta, g, phi) with derived Reeb field xi and the 2-form d eta.

    ``build`` forms d eta once; the Reeb construction and every record of
    values (:func:`structure_records`) read that one tree.
    """

    chart: Chart
    eta: TensorField
    g: TensorField
    phi: TensorField
    xi: TensorField
    deta: TensorField

    @staticmethod
    def build(chart: Chart, eta: TensorField, g: TensorField, phi: TensorField
              ) -> "ContactMetricStructure":
        if chart.dim % 2 == 0:
            raise GeometryError("contact structures live on odd-dimensional charts")
        if (eta.r, eta.s) != (0, 1) or (g.r, g.s) != (0, 2) or (phi.r, phi.s) != (1, 1):
            raise GeometryError("expected eta (0,1), g (0,2), phi (1,1)")
        deta = exterior_derivative(eta)
        return ContactMetricStructure(chart, eta, g, phi, reeb_field(eta, deta), deta)

    @property
    def n(self) -> int:
        """The n of dimension 2n + 1."""
        return (self.chart.dim - 1) // 2

    @property
    def h(self) -> TensorField:
        """h = (1/2) L_xi phi as a symbolic tree, built afresh on each read.

        The verifiers read h's values from a record of values, which takes
        them from first partials of xi and phi; this tree is their reference.
        """
        return lie_derivative(self.xi, self.phi).scale(0.5)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KmuReport:
    kappa: float
    mu: float | None
    residual: float
    sasakian_flag: bool
    lam: float | None


@dataclass(frozen=True)
class HEigenReport:
    """The eigenstructure of h on a batch of n samples, sample axis first."""

    eigenvalues: np.ndarray              # [n, d], in eigh's ascending order
    vectors: np.ndarray                  # [n, d, d], rows g-orthonormal, matched to eigenvalues
    plus: np.ndarray                     # [n, d], True on the rows of eigenvalue +lam
    minus: np.ndarray                    # [n, d], True on the rows of eigenvalue -lam
    orthonormality_residual: np.ndarray  # [n]
    xi_alignment_residual: np.ndarray    # [n], distance of the 0 rows from +-xi / |xi|


# ---------------------------------------------------------------------------
# basic verifications
# ---------------------------------------------------------------------------


def _require_batch(chart: Chart, points: np.ndarray) -> np.ndarray:
    """The points as an (n, dim) array, each inside the chart (NaN is not)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != chart.dim:
        raise DomainError(f"expected points of shape (n, {chart.dim}), got {pts.shape}")
    lo, hi = np.array(chart.domain).T
    bad = np.flatnonzero(~((lo <= pts) & (pts <= hi)).all(axis=1))
    if bad.size:
        raise DomainError(f"point outside the chart domain at {at_sample(pts, bad[0])}")
    return pts


def _require_finite(pts: np.ndarray, error: type[GeometryError], what: str, *arrays) -> None:
    """Raise ``error`` naming the first sample at which one of ``arrays``
    (sample axis first) is not finite.

    Solvers call this before LAPACK sees the data: a least-squares solve
    of a non-finite system fails without naming the sample, and LAPACK
    prints its complaint to the process's standard output.
    """
    finite = np.ones(len(pts), dtype=bool)
    for arr in arrays:
        finite &= np.isfinite(arr).reshape(len(pts), -1).all(axis=1)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise error(f"{what} is not finite at {at_sample(pts, bad[0])}")


def _reeb_from_values(dv: np.ndarray, ev: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Reeb vectors from d eta and eta evaluated on the batch ``pts``.

    ``dv[n, i, j] = d eta(d_i, d_j)`` and ``ev[n, i] = eta_i``.  At each
    point the rows are d eta(. , d_j) for every j plus the row eta(.) = 1;
    the least-squares solution of this (dim+1) x dim stack is the Reeb
    vector whenever eta is contact at the point, and the defining equations
    are re-checked to 1e-9.  A rejection names the first failing sample; a
    sample where eta or d eta is not finite is rejected before any solve.
    """
    _require_finite(pts, NotContactError, "eta or d eta", dv, ev)
    dim = pts.shape[1]
    rhs = np.zeros(dim + 1)
    rhs[-1] = 1.0
    out = np.empty(pts.shape)
    for k in range(pts.shape[0]):
        rows = np.vstack([dv[k].T, ev[k][None, :]])   # d eta(xi, d_j) = xi^i dv[i, j]
        sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
        if rank < dim:
            raise NotContactError(
                f"the form is not contact at {at_sample(pts, k)} (singular Reeb system)")
        residual = sup_norm(rows @ sol - rhs)
        if residual > REEB_TOL:
            raise NotContactError(
                f"Reeb defining equations unsatisfied at {at_sample(pts, k)} "
                f"(residual {residual:.3e}); the form is likely not contact here"
            )
        out[k] = sol
    return out


@dataclass(frozen=True)
class StructureValues:
    """The values of a structure's fields at a batch of points, sample axis
    first; ``deta[n, i, j]`` is d eta(d_i, d_j)."""

    points: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    g: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    h: np.ndarray

    def prefix(self, n: int) -> "StructureValues":
        """The record of the first n points: the first n rows of each array."""
        return StructureValues(*(getattr(self, f.name)[:n] for f in fields(self)))


def _h_from_jets(S: ContactMetricStructure, xi_blocks: tuple, phi_blocks: tuple) -> np.ndarray:
    """The values of h = (1/2) L_xi phi from the order-1 blocks of xi and phi.

    In coordinates (L_xi phi)^i_j = xi^a d_a phi^i_j - (d_a xi^i) phi^a_j
    + phi^i_a d_j xi^a, so h = (1/2)(xi^a d_a phi - (D xi) phi + phi (D xi))
    with (D xi)^i_a = d_a xi^i.  Each sum over a skips the terms with a
    structurally zero factor of ``S.xi`` or ``S.phi``, as the symbolic Lie
    derivative does, so a NaN in phi or xi reaches h only through terms
    that read it.
    """
    xi, dxi = xi_blocks      # dxi[n, i, a] = d_a xi^i
    phi, dphi = phi_blocks   # dphi[n, i, j, a] = d_a phi^i_j
    xlive, dxlive = _live_partials(S.xi)
    plive, dplive = _live_partials(S.phi)
    phi_t, dxi_t = np.swapaxes(phi, 1, 2), np.swapaxes(dxi, 1, 2)
    # each term as [n, i, j, a], summed over a
    flow = _masked_contraction(xi[:, None, None, :], dphi, xlive & dplive)
    left = _masked_contraction(dxi[:, :, None, :], phi_t[:, None, :, :],
                               dxlive[:, None, :] & plive.T[None, :, :])
    right = _masked_contraction(phi[:, :, None, :], dxi_t[:, None, :, :],
                                plive[:, None, :] & dxlive.T[None, :, :])
    return 0.5 * (flow - left + right)


def structure_records(structures: Sequence[ContactMetricStructure], points: np.ndarray
                      ) -> list[StructureValues]:
    """The records of several structures on one chart at ``points``, one per
    structure, from two walks: xi and phi of all of them at order 1, and
    eta, d eta and g at order 0.

    A field that structures share, as ``d_homothety(S, a)`` shares S's phi,
    is evaluated once, and each record is bit for bit the record of its
    structure alone; h comes from the blocks of xi and phi
    (:func:`_h_from_jets`), and the values of xi and phi are their order-0
    values.  A point outside the chart is a ``DomainError`` that names its
    sample.
    """
    chart = structures[0].chart
    if any(S.chart != chart for S in structures):
        raise ChartMismatchError("the structures of one record walk share one chart")
    pts = _require_batch(chart, points)
    walked = {}
    for order, names in ((1, ("xi", "phi")), (0, ("eta", "deta", "g"))):
        unique = {id(f): f for S in structures for f in (getattr(S, n) for n in names)}
        walked.update(zip(unique, evaluate_fields(list(unique.values()), pts, order)))
    records = []
    for S in structures:
        xi, phi = walked[id(S.xi)], walked[id(S.phi)]
        records.append(StructureValues(pts, walked[id(S.eta)], walked[id(S.deta)],
                                       walked[id(S.g)], phi[0], xi[0], _h_from_jets(S, xi, phi)))
    return records


def structure_values(S: ContactMetricStructure, points: np.ndarray) -> StructureValues:
    """The record of S's fields at ``points``: :func:`structure_records` of S alone."""
    return structure_records([S], points)[0]


def verify_compatibility(values: StructureValues) -> dict[str, float]:
    """Residuals of the three structure axioms on a record and on frames:
    ``reeb_pairing`` for g(X, xi) = eta(X), ``phi_square`` for
    phi^2 = -I + eta (x) xi and ``deta_pairing`` for d eta(X, Y) = g(X, phi Y).
    """
    gv, ev, xv, pv = values.g, values.eta, values.xi, values.phi

    r1 = sup_norm(np.einsum("nij,nj->ni", gv, xv) - ev)
    phi2 = np.einsum("nia,naj->nij", pv, pv)
    target = -np.eye(ev.shape[1])[None, :, :] + np.einsum("ni,nj->nij", xv, ev)
    r2 = sup_norm(phi2 - target)
    pairing = np.einsum("nik,nkj->nij", gv, pv)   # g(d_i, phi d_j)
    r3 = sup_norm(values.deta - pairing)
    return {"reeb_pairing": r1, "phi_square": r2, "deta_pairing": r3}


def _h_norms(gv: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Frobenius norm of h with respect to g, from their values on a batch.

    |h|^2 = g_ik h^i_j g^{jl} h^k_l, the sum of g * (h g^{-1} h^T): two
    batched products and one elementwise sum.  A sample where h is not
    finite gives NaN there and only there.
    """
    sq = np.einsum("nik,nik->n", gv, hv @ np.linalg.inv(gv) @ np.swapaxes(hv, 1, 2))
    return np.sqrt(np.maximum(sq, 0.0))


def is_K_contact(g: np.ndarray, h: np.ndarray) -> bool:
    """Whether the g-norm of h, from their values on a batch, is below ``H_VANISH_TOL``."""
    return sup_norm(_h_norms(g, h)) < H_VANISH_TOL


# ---------------------------------------------------------------------------
# nullity-condition fitting
# ---------------------------------------------------------------------------


def _nullity_basis(eta: np.ndarray) -> np.ndarray:
    """A[n, l, i, j], the d_l component of eta(d_j) d_i - eta(d_i) d_j at
    sample n, from the values ``eta[n, i]``."""
    eye = np.eye(eta.shape[1])
    return np.einsum("nj,li->nlij", eta, eye) - np.einsum("ni,lj->nlij", eta, eye)


def nullity_fit(points: np.ndarray, lhs: np.ndarray, eta: np.ndarray, g: np.ndarray,
                h: np.ndarray) -> KmuReport:
    """Least-squares (kappa, mu) of the nullity condition, over all samples
    and coordinate pairs.

    ``lhs[n, l, i, j]`` is the d_l component of R(d_i, d_j) xi at sample n
    of ``points``; ``eta``, ``g`` and ``h`` hold the values of eta, g and h
    there.  The fit is lhs = kappa A + mu B with
    A = eta(d_j) d_i - eta(d_i) d_j and B = h A; where g and h make the
    structure K-contact it fits kappa alone and mu is None.  The residual
    is the sup norm of lhs - (kappa A + mu B).  A non-finite lhs, eta or h
    is a ``GeometryError`` naming its sample, raised before the solve.
    """
    _require_finite(points, GeometryError, "R(X, Y) xi, eta or h", lhs, eta, h)
    sasakian = is_K_contact(g, h)
    colA = _nullity_basis(eta)
    b = lhs.ravel()
    if sasakian:
        sol, *_ = np.linalg.lstsq(colA.ravel()[:, None], b, rcond=None)
        kappa, mu = float(sol[0]), None
        residual = sup_norm(lhs - kappa * colA)
    else:
        colB = np.einsum("nj,nli->nlij", eta, h) - np.einsum("ni,nlj->nlij", eta, h)
        sol, *_ = np.linalg.lstsq(np.stack([colA.ravel(), colB.ravel()], axis=1), b, rcond=None)
        kappa, mu = float(sol[0]), float(sol[1])
        residual = sup_norm(lhs - (kappa * colA + mu * colB))
    lam = None if sasakian else math.sqrt(max(1.0 - kappa, 0.0))
    return KmuReport(kappa=kappa, mu=mu, residual=residual, sasakian_flag=sasakian, lam=lam)


def kmu_fit(data: ChristoffelData, eta: np.ndarray, xi: np.ndarray, h: np.ndarray) -> KmuReport:
    """:func:`nullity_fit` of R(X, Y) xi, from g's connection ``data`` and
    the values of eta, xi and h at its points."""
    lhs = np.einsum("nlkij,nk->nlij", data.riem, xi)
    return nullity_fit(data.points, lhs, eta, data.g, h)


def fit_kappa_mu(S: ContactMetricStructure, n_samples: int = 50,
                 seed: int | None = None) -> KmuReport:
    """:func:`kmu_fit` at ``S.chart.samples(n_samples, seed)``, the one verifier
    that draws its own samples and evaluates its own fields there."""
    pts = S.chart.samples(n_samples, seed=seed)
    xi, phi = evaluate_fields([S.xi, S.phi], pts, 1)
    h = _h_from_jets(S, xi, phi)
    return kmu_fit(christoffel_batch(S.g, pts), S.eta.values(pts), xi[0], h)


def _require_factor(a: float, nonpositive: str) -> None:
    """A D_a rescale needs a finite, positive factor (NaN is neither): a
    ``GeometryError`` naming the factor, with the message ``nonpositive``
    for a finite one at or below zero."""
    if not math.isfinite(a):
        raise GeometryError(f"rescale factor must be finite and positive, got {a!r}")
    if a <= 0:
        raise GeometryError(nonpositive)


def kappa_mu_after_rescale(kappa: float, mu: float | None, a: float
                           ) -> tuple[float, float | None]:
    """The transformation law of the nullity constants under a D_a rescale."""
    _require_factor(a, f"rescale factor must be finite and positive, got {a!r}")
    kp = (kappa + a * a - 1.0) / (a * a)
    mp = None if mu is None else (mu + 2.0 * a - 2.0) / a
    return kp, mp


def d_homothety(S: ContactMetricStructure, a: float) -> ContactMetricStructure:
    """The rescaled structure (a eta, a g + a(a-1) eta (x) eta, phi)."""
    _require_factor(a, "d_homothety needs a positive factor")
    A = Const(float(a))
    g2 = _rescaled_metric(S.g.components, S.eta.components, A, Const(float(a * (a - 1.0))))
    return ContactMetricStructure.build(
        S.chart, S.eta.scale(A), TensorField(S.chart, 0, 2, g2, "symmetric"), S.phi)


def _rescaled_metric(g: np.ndarray, eta: np.ndarray, a: Expr, b: Expr) -> np.ndarray:
    """The components of a g + b eta (x) eta, one expression per index pair."""
    return _fill(g.shape, "symmetric", lambda ij: a * g[ij] + b * (eta[ij[0]] * eta[ij[1]]))


def boeckx_index(kappa: float, mu: float) -> float:
    """(1 - mu/2) / sqrt(1 - kappa); undefined at kappa >= 1."""
    if kappa >= 1.0:
        raise SasakianDegeneracyError(
            "the index is undefined for kappa >= 1 (h vanishes there)"
        )
    return (1.0 - mu / 2.0) / math.sqrt(1.0 - kappa)


# ---------------------------------------------------------------------------
# eigenstructure of h
# ---------------------------------------------------------------------------


def h_eigendecomposition_batch(values: StructureValues) -> HEigenReport:
    """g-orthonormal eigenbasis of h on a record of values, grouped by eigenvalue.

    The Cholesky reduction of h to a symmetric matrix, its eigensolve, the
    grouping and the residuals each run once over shape (n, d, d).  With
    lam the largest |eigenvalue| of a sample, each eigenvalue joins the
    nearest of +lam, -lam and 0; a tie goes to 0, then to +lam.  Raises,
    naming the first failing sample, where g is not finite or not positive
    definite, where h is not finite, or where the g-norm of h is below
    ``H_VANISH_TOL`` (the grouping is meaningless there).
    """
    pts, gv, hv, xv = values.points, values.g, values.h, values.xi
    _require_finite(pts, DegenerateMetricError, "metric", gv)
    try:
        L = np.linalg.cholesky(gv)
    except np.linalg.LinAlgError:
        for k in range(pts.shape[0]):
            try:
                np.linalg.cholesky(gv[k])
            except np.linalg.LinAlgError:
                raise DegenerateMetricError(
                    f"metric is not positive definite at {at_sample(pts, k)}") from None
        raise
    hnorm = _h_norms(gv, hv)                # NaN where h is not finite
    bad_h = np.flatnonzero(~(hnorm >= H_VANISH_TOL))
    if bad_h.size:
        k = bad_h[0]
        if not np.isfinite(hv[k]).all():
            raise GeometryError(f"h is not finite at {at_sample(pts, k)}")
        raise SasakianDegeneracyError(
            f"h vanishes at {at_sample(pts, k)} (g-norm {hnorm[k]:.3e} < {H_VANISH_TOL:.1e}); "
            "no eigenstructure to extract")

    sym = gv @ hv                         # g-self-adjointness makes this symmetric
    Linv = np.linalg.inv(L)
    LinvT = np.swapaxes(Linv, -1, -2)
    reduced = Linv @ sym @ LinvT
    w, u = np.linalg.eigh(0.5 * (reduced + np.swapaxes(reduced, -1, -2)))
    vectors = np.swapaxes(LinvT @ u, -1, -2)   # rows, g-orthonormal

    lam = np.max(np.abs(w), axis=-1, keepdims=True)
    dplus, dminus, dzero = np.abs(w - lam), np.abs(w + lam), np.abs(w)
    zero = dzero <= np.minimum(dplus, dminus)
    plus = ~zero & (dplus <= dminus)

    gram = vectors @ gv @ np.swapaxes(vectors, 1, 2)
    xin = xv / np.sqrt((xv[:, None, :] @ gv @ xv[:, :, None])[:, 0])
    aligned = np.minimum(_sample_sup(vectors - xin[:, None, :], -1),
                         _sample_sup(vectors + xin[:, None, :], -1))
    return HEigenReport(
        eigenvalues=w, vectors=vectors, plus=plus, minus=~zero & ~plus,
        orthonormality_residual=_sample_sup(gram - np.eye(gv.shape[-1]), (1, 2)),
        xi_alignment_residual=np.min(aligned, axis=-1, initial=1.0, where=zero))


def _sample_sup(x: np.ndarray, axis) -> np.ndarray:
    """:func:`sup_norm` per sample: the largest absolute entry over ``axis``,
    inf where one of those entries is NaN."""
    top = np.max(np.abs(x), axis=axis)
    return np.where(np.isnan(top), np.inf, top)


def h_eigendecomposition(S: ContactMetricStructure, point: np.ndarray) -> HEigenReport:
    """Eigenstructure of h at one point: :func:`h_eigendecomposition_batch` of one."""
    return h_eigendecomposition_batch(structure_values(S, np.asarray(point, dtype=float)[None]))


# ---------------------------------------------------------------------------
# the six curvature identities of a non-Sasakian nullity structure
# ---------------------------------------------------------------------------


def verify_kmu_curvature(values: StructureValues, data: ChristoffelData, kappa: float,
                         mu: float) -> dict[str, float]:
    """Residuals of the six eigenspace curvature identities on a record of
    values, with ``data`` the connection of g at the same points.

    Arguments run over the +lam and -lam eigenbases of h at each point.
    Writing P for a +lam eigenvector and M for a -lam one, the identities
    compared are

      1. R(P1,P2)M    = (k-m)[g(phi P2, M) phi P1 - g(phi P1, M) phi P2]
      2. R(M1,M2)P    = (k-m)[g(phi M2, P) phi M1 - g(phi M1, P) phi M2]
      3. R(P,M1)M2    = k g(phi P, M2) phi M1 + m g(phi P, M1) phi M2
      4. R(P1,M)P2    = -k g(phi M, P2) phi P1 - m g(phi M, P1) phi P2
      5. R(P1,P2)P3   = [2(1+lam)-m][g(P2,P3) P1 - g(P1,P3) P2]
      6. R(M1,M2)M3   = [2(1-lam)-m][g(M2,M3) M1 - g(M1,M3) M2]

    with k = kappa and m = mu.  The residuals are keyed in that order by
    the eigenspaces of the three arguments: ``ppm``, ``mmp``, ``pmm``,
    ``pmp``, ``ppp`` and ``mmm``.
    """
    lam = math.sqrt(max(1.0 - kappa, 0.0))
    eig = h_eigendecomposition_batch(values)
    gmat = data.g
    phimat = values.phi

    # the eigenbases stacked as [n, s, d], the rows under ``mask`` in order; a
    # sample with fewer vectors is padded with zero vectors, whose defects are
    # exactly zero because every identity is linear in each argument
    def stacked(mask):
        order = np.argsort(~mask, axis=-1, kind="stable")[:, :mask.sum(axis=-1).max()]
        rows = np.take_along_axis(eig.vectors, order[:, :, None], axis=1)
        return np.where(np.take_along_axis(mask, order, axis=-1)[:, :, None], rows, 0.0)

    Ps, Ms = stacked(eig.plus), stacked(eig.minus)

    def R(X, Y, Z):
        """R(X_a, Y_b) Z_c as [n, a, b, c, l]."""
        t = np.einsum("nlkij,nck->nclij", data.riem, Z)
        t = np.einsum("nclij,nai->ncalj", t, X)
        return np.einsum("ncalj,nbj->nabcl", t, Y)

    def gp(X, Y):
        """g(X_a, Y_b) as [n, a, b]."""
        return X @ gmat @ np.swapaxes(Y, 1, 2)

    def ph(X):
        return X @ np.swapaxes(phimat, 1, 2)

    def pair(gXW, X):
        """gXW[b, c] X_a - gXW[a, c] X_b as [n, a, b, c, l]."""
        return (gXW[:, None, :, :, None] * X[:, :, None, None, :]
                - gXW[:, :, None, :, None] * X[:, None, :, None, :])

    phP, phM = ph(Ps), ph(Ms)
    gPM, gMP = gp(phP, Ms), gp(phM, Ps)     # g(phi P, M) and g(phi M, P)
    c5 = 2.0 * (1.0 + lam) - mu
    c6 = 2.0 * (1.0 - lam) - mu
    defects = {
        "ppm": R(Ps, Ps, Ms) - (kappa - mu) * pair(gPM, phP),
        "mmp": R(Ms, Ms, Ps) - (kappa - mu) * pair(gMP, phM),
        "pmm": R(Ps, Ms, Ms) - (kappa * gPM[:, :, None, :, None] * phM[:, None, :, None, :]
                                + mu * gPM[:, :, :, None, None] * phM[:, None, None, :, :]),
        "pmp": R(Ps, Ms, Ps) - (-kappa * gMP[:, None, :, :, None] * phP[:, :, None, None, :]
                                - mu * np.swapaxes(gMP, 1, 2)[:, :, :, None, None]
                                * phP[:, None, None, :, :]),
        "ppp": R(Ps, Ps, Ps) - c5 * pair(gp(Ps, Ps), Ps),
        "mmm": R(Ms, Ms, Ms) - c6 * pair(gp(Ms, Ms), Ms),
    }
    return {key: sup_norm(part) for key, part in defects.items()}


# ---------------------------------------------------------------------------
# structure isomorphism
# ---------------------------------------------------------------------------


def verify_structure_isomorphism(F: SmoothMap, S1: ContactMetricStructure,
                                 S2: ContactMetricStructure, points: np.ndarray
                                 ) -> dict[str, float]:
    """Residuals ``eta`` of F* eta2 = eta1 and ``metric`` of F* g2 = g1
    at ``points`` of the source chart."""
    if F.source != S1.chart or F.target != S2.chart:
        raise ChartMismatchError("map does not connect the two structure charts")
    eta_pull = pullback(F, S2.eta)
    g_pull = pullback(F, S2.g)
    r_eta = sup_norm(eta_pull.values(points) - S1.eta.values(points))
    r_g = sup_norm(g_pull.values(points) - S1.g.values(points))
    return {"eta": r_eta, "metric": r_g}
