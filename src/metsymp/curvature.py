"""Levi-Civita connection and curvature of a metric tensor field.

All quantities are assembled pointwise from second-order jets of the metric
components.  Sign conventions, fixed once for the whole package:

    R(X, Y)Z   = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y)  = trace of V -> R(V, X)Y
    sec(X, Y)  = g(R(X, Y)Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)

With these choices the round unit 2-sphere has sec = +1 and Ric = g.
Component storage: ``riem[l, k, i, j]`` is the coefficient along ``d_l`` of
``R(d_i, d_j) d_k``.

The connection comes from the Christoffel symbols of the first kind,
Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2, raised once:
Gamma^k_ij = g^{kl} Gamma_{l,ij}.  The curvature is never assembled from
the partials of Gamma.  Differentiating Gamma_{a,jk} and using
d_i g_ab = Gamma_{a,ib} + Gamma_{b,ia}, the lowered tensor
R_akij = g_al riem[l, k, i, j] reads

    R_akij = (d_i d_k g_aj + d_j d_a g_ik - d_i d_a g_jk - d_j d_k g_ai) / 2
             - Gamma_{b,ia} Gamma^b_jk + Gamma_{b,ja} Gamma^b_ik,

so only the metric's second partials, the two kinds of Christoffel symbols
and one product with g^{-1} enter.  The quadratic term and the raising are
batched matrix products over the sample axis, O(n D^5) work for n points in
dimension D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, GeometryError, RankError
from .fields import TensorField

__all__ = [
    "ChristoffelData",
    "christoffel_batch",
    "christoffel_from_blocks",
    "covariant_derivative_values",
    "riemann_components",
    "ricci_components",
    "sectional",
    "gram_schmidt_frame",
]


@dataclass(frozen=True)
class ChristoffelData:
    """Connection coefficients at a point batch, with the metric jets they
    came from.

    ``gamma[n, k, i, j]`` is Gamma^k_ij and ``gamma_low[n, l, i, j]`` is
    Gamma_{l,ij} = g_lk Gamma^k_ij, both symmetric in i, j.  The metric
    values, inverse and first partials ride along because most consumers
    need them next; ``hess[n, i, j, m, l] = d_m d_l g_ij`` is the block the
    data was built from, not a copy, and only the curvature reads it.
    """

    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    hess: np.ndarray
    gamma_low: np.ndarray
    gamma: np.ndarray


def christoffel_batch(g: TensorField, points: np.ndarray) -> ChristoffelData:
    """Connection data for a batch of points of shape (n, dim)."""
    if (g.r, g.s) != (0, 2):
        raise RankError("christoffel needs a (0,2) metric field")
    pts = np.asarray(points, dtype=float)
    vals, grads, hesses = g.jet_blocks(pts)
    return christoffel_from_blocks(pts, vals, grads, hesses)


METRIC_COND_LIMIT = 1e12


def _symmetric_cond(vals: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a batch of symmetric matrices.

    For a symmetric matrix this is max|lambda| / min|lambda|, so
    ``eigvalsh`` gives it without a singular value decomposition.  It is
    inf where a sample is singular or not finite (masked to zero first).
    """
    finite = np.isfinite(vals).all(axis=(-2, -1))
    lam = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], vals, 0.0)))
    lo, hi = lam.min(axis=-1), lam.max(axis=-1)
    return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0)


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
    cond = _symmetric_cond(vals)
    bad = np.flatnonzero(~(cond <= METRIC_COND_LIMIT))
    if bad.size:
        k = bad[0]
        what = ("is not finite" if not np.isfinite(vals[k]).all() else
                f"is nearly singular (condition number {cond[k]:.3e} > {METRIC_COND_LIMIT:.0e})")
        raise DegenerateMetricError(f"metric at evaluation point {k} {pts[k].tolist()} {what}")
    ginv = np.linalg.inv(vals)

    # gamma_low[n,l,i,j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, read from
    # grads[n,l,j,i], grads[n,l,i,j] and grads[n,i,j,l]
    gamma_low = grads + np.swapaxes(grads, -1, -2)
    gamma_low -= np.moveaxis(grads, -1, 1)
    gamma_low *= 0.5
    n, D = vals.shape[0], vals.shape[-1]
    gamma = (ginv @ gamma_low.reshape(n, D, D * D)).reshape(n, D, D, D)
    return ChristoffelData(points=pts, g=vals, ginv=ginv, dg=grads, hess=hesses,
                           gamma_low=gamma_low, gamma=gamma)


def riemann_components(data: ChristoffelData) -> np.ndarray:
    """riem[n, l, k, i, j]: coefficient of R(d_i, d_j)d_k along d_l.

    Every term of the lowered tensor of the module docstring is a
    rearrangement of

        s[n, p, q, r, t] = d_r d_t g_pq + d_p d_q g_rt + 2 Gamma_{b,pq} Gamma^b_rt,

    the hess block viewed as (n, D^2, D^2), plus its transpose, plus one
    batched product: 2 R_akij = s[n, k, i, a, j] - s[n, a, i, k, j].  Both
    reads keep j innermost, and one product with g^{-1} / 2 raises a.
    """
    n, D = data.gamma.shape[:2]
    hess = data.hess.reshape(n, D * D, D * D)
    # the factors 2 and 1/2 are powers of two, so they round exactly
    s = (np.swapaxes((2.0 * data.gamma_low).reshape(n, D, D * D), 1, 2)
         @ data.gamma.reshape(n, D, D * D))
    s += hess
    s += np.swapaxes(hess, 1, 2)
    s4 = s.reshape(n, D, D, D, D)
    r2 = s4.transpose(0, 3, 1, 2, 4) - s4.transpose(0, 1, 3, 2, 4)  # 2 R_akij at [n, a, k, i, j]
    riem = s.reshape(n, D, D ** 3)                                   # s is spent: reuse its memory
    np.matmul(0.5 * data.ginv, r2.reshape(n, D, D ** 3), out=riem)
    return riem.reshape(n, D, D, D, D)


def ricci_components(data: ChristoffelData) -> np.ndarray:
    """Ric[..., p, q] = Ric(d_p, d_q) by direct contraction."""
    riem = riemann_components(data)
    return np.einsum("...aqap->...pq", riem)


def sectional(g: TensorField, X: np.ndarray, Y: np.ndarray, point: np.ndarray) -> float:
    """sec(X, Y) at one point, from the connection data of a batch of one."""
    data = christoffel_batch(g, np.asarray(point, dtype=float)[None, :])
    gmat = data.g[0]
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    num = float(X @ gmat @ np.einsum("lkij,k,i,j->l", riemann_components(data)[0], Y, X, Y))
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
