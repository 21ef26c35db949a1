"""Levi-Civita connection and curvature of a metric tensor field.

All quantities are assembled pointwise from second-order jets of the metric
components.  Sign conventions, fixed once for the whole package:

    R(X, Y)Z   = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y)  = trace of V -> R(V, X)Y
    sec(X, Y)  = g(R(X, Y)Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)

With these choices the round unit 2-sphere has sec = +1 and Ric = g.
Component storage: ``riem[l, k, i, j]`` is the coefficient along ``d_l`` of
``R(d_i, d_j) d_k``.

The connection derivative comes from differentiating
g_ka Gamma^a_ij = (d_i g_ja + d_j g_ia - d_a g_ij) / 2 along d_m:

    d_m Gamma^k_ij = g^{ka} (d_m (d_i g_ja + d_j g_ia - d_a g_ij) / 2
                             - d_m g_ab Gamma^b_ij),

so the derivative of the inverse metric is never formed.  That product and
the quadratic term Gamma^l_ia Gamma^a_jk of the curvature are batched
matrix products over the sample axis, O(n D^5) work for n points in
dimension D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, GeometryError, RankError
from .fields import TensorField

__all__ = [
    "ChristoffelData",
    "christoffel",
    "christoffel_batch",
    "christoffel_from_blocks",
    "covariant_derivative_values",
    "riemann",
    "riemann_components",
    "ricci_components",
    "ricci_frame_trace",
    "sectional",
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

    # d_m Gamma^k_ij = g^{ka} (d_m combo_ija / 2 - d_m g_ab Gamma^b_ij) (module
    # docstring) as two batched products: (a m, b) @ (b, i j), then (k, a) @ (a, i j m)
    n, D = vals.shape[0], vals.shape[-1]
    dg_gamma = (np.swapaxes(grads, 2, 3).reshape(n, D * D, D)
                @ gamma.reshape(n, D, D * D)).reshape(n, D, D, D, D)   # [n, a, m, i, j]
    # inner[n,a,i,j,m] = d_m combo[n,i,j,a] / 2 - d_m g_ab Gamma^b_ij
    inner = 0.5 * (
        np.einsum("njami->naijm", hesses)
        + np.einsum("niamj->naijm", hesses)
        - np.einsum("nijma->naijm", hesses)
    ) - np.einsum("namij->naijm", dg_gamma)
    dgamma = (ginv @ inner.reshape(n, D, D ** 3)).reshape(n, D, D, D, D)
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
    batch, D = gamma.shape[:-3], gamma.shape[-1]
    t1 = np.einsum("...ljki->...lkij", dgamma)  # d_i Gamma^l_jk
    t2 = np.einsum("...likj->...lkij", dgamma)  # d_j Gamma^l_ik
    # quad[..., l, i, j, k] = Gamma^l_ia Gamma^a_jk, one product (l i, a) @ (a, j k)
    quad = (gamma.reshape(batch + (D * D, D))
            @ gamma.reshape(batch + (D, D * D))).reshape(batch + (D,) * 4)
    q1 = np.einsum("...lijk->...lkij", quad)
    q2 = np.swapaxes(q1, -1, -2)                # Gamma^l_ja Gamma^a_ik
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
    xx, yy = float(X @ gmat @ X), float(Y @ gmat @ Y)
    gram = xx * yy - float(X @ gmat @ Y) ** 2
    # relative to |X|^2 |Y|^2, so the test ignores the scale of X and Y; NaN fails it
    if not gram > 1e-12 * xx * yy:
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


_FRAME_TOL = 1e-10


def gram_schmidt_frame(gmat: np.ndarray, seeds: np.ndarray | None = None) -> np.ndarray:
    """A g-orthonormal frame from seed vectors plus the coordinate basis.

    A candidate whose remainder after projection has g-norm^2 at most
    ``_FRAME_TOL`` times its own is skipped (pivoting), so zero, dependent or NaN
    seeds cannot poison the frame; the test is relative, so a uniformly
    rescaled metric s g gives the frame of g divided by sqrt(s).  Returns
    rows of shape (dim, dim).
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
        if not norm2 > _FRAME_TOL * float(v @ gmat @ v):
            continue
        frame.append(w / np.sqrt(norm2))
        if len(frame) == d:
            break
    if len(frame) < d:
        raise DegenerateMetricError("could not complete an orthonormal frame")
    return np.stack(frame)
