"""Levi-Civita connection and curvature of a metric tensor field.

All quantities are assembled pointwise from second-order jets of the metric
components.  Sign conventions, fixed once for the whole package:

    R(X, Y)Z   = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y)  = trace of V -> R(V, X)Y
    sec(X, Y)  = g(R(X, Y)Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)

With these choices the round unit 2-sphere has sec = +1 and Ric = g.
Component storage: ``riem[l, k, i, j]`` is the coefficient along ``d_l`` of
``R(d_i, d_j) d_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, GeometryError, RankError
from .fields import TensorField, sup_norm

__all__ = [
    "ChristoffelData",
    "christoffel",
    "christoffel_batch",
    "christoffel_from_blocks",
    "covariant_derivative",
    "covariant_derivative_values",
    "riemann",
    "riemann_components",
    "ricci",
    "ricci_components",
    "ricci_frame_trace",
    "sectional",
    "first_bianchi_check",
    "BianchiReport",
    "gram_schmidt_frame",
]


@dataclass(frozen=True)
class ChristoffelData:
    """Connection coefficients and their first partials at a point batch.

    ``gamma[..., k, i, j]`` is Gamma^k_ij (symmetric in i, j) and
    ``dgamma[..., k, i, j, m]`` is its partial along coordinate m.  The
    metric values, inverse and first partials ride along because most
    consumers need them next.
    """

    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray


def christoffel_batch(g: TensorField, points: np.ndarray) -> ChristoffelData:
    """Connection data for a batch of points of shape (n, dim)."""
    if (g.r, g.s) != (0, 2):
        raise RankError("christoffel needs a (0,2) metric field")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    vals, grads, hesses = g.jet_blocks(pts)
    return christoffel_from_blocks(pts, vals, grads, hesses)


METRIC_COND_LIMIT = 1e12


def christoffel_from_blocks(pts: np.ndarray, vals: np.ndarray, grads: np.ndarray,
                            hesses: np.ndarray) -> ChristoffelData:
    """Connection data from precomputed metric jet blocks.

    Exists so that an ambient evaluation can be restricted (for example to
    the leading coordinates of a product chart) and still drive the same
    curvature pipeline.  ``vals[n,i,j] = g_ij``, ``grads[n,i,j,m] = d_m
    g_ij``, ``hesses[n,i,j,m,l] = d_m d_l g_ij``.  Raises
    ``DegenerateMetricError`` where g is not finite or its 2-norm condition
    number exceeds ``METRIC_COND_LIMIT``; the test is relative, so a
    uniformly rescaled metric passes or fails as the original does.
    """
    finite = np.isfinite(vals).all(axis=(-2, -1))
    cond = np.linalg.cond(np.where(finite[:, None, None], vals, 0.0))  # inf where not finite
    bad = np.flatnonzero(~(cond <= METRIC_COND_LIMIT))
    if bad.size:
        k = bad[0]
        what = ("is not finite" if not finite[k] else
                f"is nearly singular (condition number {cond[k]:.3e} > {METRIC_COND_LIMIT:.0e})")
        raise DegenerateMetricError(f"metric at evaluation point {k} {pts[k].tolist()} {what}")
    ginv = np.linalg.inv(vals)

    # combo[n,i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    combo = (
        np.einsum("njli->nijl", grads)
        + np.einsum("nilj->nijl", grads)
        - np.einsum("nijl->nijl", grads)
    )
    gamma = 0.5 * np.einsum("nkl,nijl->nkij", ginv, combo)

    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("nka,nabm,nbl->nklm", ginv, grads, ginv)
    # dcombo[n,i,j,l,m] = d_m combo[n,i,j,l]
    dcombo = (
        np.einsum("njlmi->nijlm", hesses)
        + np.einsum("nilmj->nijlm", hesses)
        - np.einsum("nijml->nijlm", hesses)
    )
    dgamma = 0.5 * (
        np.einsum("nklm,nijl->nkijm", dginv, combo)
        + np.einsum("nkl,nijlm->nkijm", ginv, dcombo)
    )
    return ChristoffelData(points=pts, g=vals, ginv=ginv, dg=grads, gamma=gamma, dgamma=dgamma)


def christoffel(g: TensorField, point: np.ndarray) -> ChristoffelData:
    """Connection data at one point (batch axis squeezed away)."""
    p = np.asarray(point, dtype=float)
    data = christoffel_batch(g, p[None, :])
    return ChristoffelData(
        points=p,
        g=data.g[0],
        ginv=data.ginv[0],
        dg=data.dg[0],
        gamma=data.gamma[0],
        dgamma=data.dgamma[0],
    )


def riemann_components(data: ChristoffelData) -> np.ndarray:
    """riem[..., l, k, i, j]: coefficient of R(d_i, d_j)d_k along d_l."""
    gamma = data.gamma
    dgamma = data.dgamma
    t1 = np.einsum("...ljki->...lkij", dgamma)  # d_i Gamma^l_jk
    t2 = np.einsum("...likj->...lkij", dgamma)  # d_j Gamma^l_ik
    q1 = np.einsum("...lia,...ajk->...lkij", gamma, gamma)
    q2 = np.einsum("...lja,...aik->...lkij", gamma, gamma)
    return t1 - t2 + q1 - q2


def riemann(g: TensorField, X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
            point: np.ndarray, data: ChristoffelData | None = None) -> np.ndarray:
    """The vector R(X, Y)Z at a point, for concrete argument vectors."""
    if data is None:
        data = christoffel(g, point)
    riem = riemann_components(data)
    return np.einsum("lkij,k,i,j->l", riem, np.asarray(Z, float),
                     np.asarray(X, float), np.asarray(Y, float))


def ricci_components(data: ChristoffelData) -> np.ndarray:
    """Ric[..., p, q] = Ric(d_p, d_q) by direct contraction."""
    riem = riemann_components(data)
    return np.einsum("...aqap->...pq", riem)


def ricci(g: TensorField, X: np.ndarray, Y: np.ndarray, point: np.ndarray,
          data: ChristoffelData | None = None) -> float:
    if data is None:
        data = christoffel(g, point)
    ric = ricci_components(data)
    return float(np.einsum("pq,p,q->", ric, np.asarray(X, float), np.asarray(Y, float)))


def ricci_frame_trace(data: ChristoffelData) -> np.ndarray:
    """Ricci at one point by an explicit orthonormal-frame trace.

    Slower than the direct contraction; exists as an independent check of
    the trace convention.
    """
    gmat = data.g
    if gmat.ndim != 2:
        raise GeometryError("ricci_frame_trace expects single-point data")
    frame = gram_schmidt_frame(gmat)
    riem = riemann_components(data)
    d = gmat.shape[0]
    ric = np.zeros((d, d))
    for p in range(d):
        for q in range(d):
            total = 0.0
            for a in range(d):
                Ea = frame[a]
                # R(E_a, d_p) d_q
                vec = np.einsum("lkij,i->lkj", riem, Ea)[:, q, p]
                total += float(Ea @ gmat @ vec)
            ric[p, q] = total
    return ric


def sectional(g: TensorField, X: np.ndarray, Y: np.ndarray, point: np.ndarray,
              data: ChristoffelData | None = None) -> float:
    if data is None:
        data = christoffel(g, point)
    gmat = data.g
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    num = float(X @ gmat @ riemann(g, X, Y, Y, point, data))
    gram = float(X @ gmat @ X) * float(Y @ gmat @ Y) - float(X @ gmat @ Y) ** 2
    if abs(gram) < 1e-12:
        raise GeometryError("sectional curvature needs linearly independent arguments")
    return num / gram


def covariant_derivative_values(
    g: TensorField, T: TensorField, points: np.ndarray,
    data: ChristoffelData | None = None,
) -> np.ndarray:
    """Components of nabla T at a point batch.

    Output shape is ``(n,) + comp + (dim,)`` with the derivative slot last:
    ``out[n, ..., m]`` is the coefficient array of ``nabla_{d_m} T`` at
    sample n.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if data is None:
        data = christoffel_batch(g, pts)
    vals, grads, _ = T.jet_blocks(pts)
    out = grads.copy()
    gamma = data.gamma  # [n, k, i, j]
    r, s = T.r, T.s
    for p in range(r):
        axis = 1 + p
        t_moved = np.moveaxis(vals, axis, -1)  # [n, rest..., a]
        corr = np.einsum("n...a,nkma->n...km", t_moved, gamma)
        out += np.moveaxis(corr, -2, axis)
    for q in range(s):
        axis = 1 + r + q
        t_moved = np.moveaxis(vals, axis, -1)
        corr = np.einsum("n...a,namb->n...bm", t_moved, gamma)
        out -= np.moveaxis(corr, -2, axis)
    return out


def covariant_derivative(
    g: TensorField, T: TensorField, X: np.ndarray, point: np.ndarray,
    data: ChristoffelData | None = None,
) -> np.ndarray:
    """The value of nabla_X T at one point, X a concrete vector."""
    p = np.asarray(point, dtype=float)
    batch = None
    if data is not None:
        batch = ChristoffelData(
            points=p[None, :], g=data.g[None], ginv=data.ginv[None],
            dg=data.dg[None], gamma=data.gamma[None], dgamma=data.dgamma[None],
        )
    full = covariant_derivative_values(g, T, p[None, :], data=batch)
    return np.einsum("...m,m->...", full[0], np.asarray(X, dtype=float))


@dataclass(frozen=True)
class BianchiReport:
    max_residual: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_residual < 1e-8


def first_bianchi_check(g: TensorField, points: np.ndarray) -> BianchiReport:
    """Max residual of R(X,Y)Z + R(Y,Z)X + R(Z,X)Y over coordinate triples."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    data = christoffel_batch(g, pts)
    riem = riemann_components(data)
    r2 = np.einsum("nlijk->nlkij", riem)  # R(d_j, d_k) d_i along d_l
    r3 = np.einsum("nljki->nlkij", riem)  # R(d_k, d_i) d_j along d_l
    total = riem + r2 + r3
    return BianchiReport(sup_norm(total), pts.shape[0])


def gram_schmidt_frame(gmat: np.ndarray, seeds: np.ndarray | None = None,
                       tol: float = 1e-10) -> np.ndarray:
    """A g-orthonormal frame from seed vectors plus the coordinate basis.

    Near-null candidates are skipped (pivoting) so dependent seeds cannot
    poison the frame.  Returns rows of shape (dim, dim).
    """
    d = gmat.shape[-1]
    candidates: list[np.ndarray] = []
    if seeds is not None:
        candidates.extend(np.asarray(v, dtype=float) for v in seeds)
    candidates.extend(np.eye(d))
    frame: list[np.ndarray] = []
    for v in candidates:
        w = v.copy()
        for u in frame:
            w = w - (u @ gmat @ w) * u
        norm2 = float(w @ gmat @ w)
        if norm2 < tol:
            continue
        frame.append(w / np.sqrt(norm2))
        if len(frame) == d:
            break
    if len(frame) < d:
        raise DegenerateMetricError("could not complete an orthonormal frame")
    return np.stack(frame)
