"""Levi-Civita connection and curvature of a metric tensor field.

All quantities are assembled pointwise from second-order jets of the metric
components.  Sign conventions, fixed once for the whole package:

    R(X, Y)Z   = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y)  = trace of V -> R(V, X)Y
    sec(X, Y)  = g(R(X, Y)Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)

With these choices the round unit 2-sphere has sec = +1 and Ric = g.
Component storage: ``riem[l, k, i, j]`` is the coefficient along ``d_l`` of
``R(d_i, d_j) d_k``; a :class:`ChristoffelData` forms it as ``riem`` on first
read.

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
dimension D.  A reader that needs R(., .)Z for c vector fields Z only, as
the (kappa, mu) nullity condition reads R(., .)xi, contracts Z into the
same terms before they are formed (:func:`riemann_along`): O(n c D^4) work
and no (n, D^4) array.

Orthonormal frames are built the same way: :func:`gram_schmidt_frame` runs
modified Gram-Schmidt on a whole batch, one batched product per projection,
with a pivot test per sample.  Every rejection names the first failing
sample and its coordinates, as the other batch checks of the package do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMetricError, RankError, at_sample
from .fields import TensorField

__all__ = [
    "ChristoffelData",
    "christoffel_batch",
    "christoffel_from_blocks",
    "covariant_derivative_values",
    "riemann_components",
    "riemann_along",
    "ricci_components",
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
    data was built from, not a copy; the curvature and the restriction to a
    slice (:func:`metsymp.submersion.slice_christoffel_batch`) read it.
    ``riem`` is :func:`riemann_components` of the record, formed on first
    read and kept, so a record whose readers contract R with a few vectors
    (:func:`riemann_along`) never forms it.
    """

    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    hess: np.ndarray
    gamma_low: np.ndarray
    gamma: np.ndarray

    @cached_property
    def riem(self) -> np.ndarray:
        return riemann_components(self)


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
    ``DegenerateMetricError``, naming the first failing sample, where g is
    not finite or its 2-norm condition number exceeds ``METRIC_COND_LIMIT``;
    the test is relative, so a uniformly rescaled metric passes or fails as
    the original does.
    """
    cond = _symmetric_cond(vals)
    bad = np.flatnonzero(~(cond <= METRIC_COND_LIMIT))
    if bad.size:
        k = bad[0]
        what = ("is not finite" if not np.isfinite(vals[k]).all() else
                f"is nearly singular (condition number {cond[k]:.3e} > {METRIC_COND_LIMIT:.0e})")
        raise DegenerateMetricError(f"metric {what} at {at_sample(pts, k)}")
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


def riemann_along(data: ChristoffelData, Z: np.ndarray) -> np.ndarray:
    """out[n, c, l, i, j]: coefficient of R(d_i, d_j)Z_c along d_l, for the
    vectors ``Z[n, c]`` at the points of the record.

    Equal to ``einsum("nlkij,nck->nclij", riemann_components(data), Z)`` up
    to roundoff, with Z^k contracted before the s of
    :func:`riemann_components` is formed.  Writing (Z.H) for hess contracted
    on its first slot and (H.Z) on its last (hess is symmetric in its last
    pair) and Q[a, i, j] = Gamma_{b,ai} Gamma^b_kj Z^k, which is also
    Z^k Gamma_{b,kj} Gamma^b_ai,

        2 Z^k R_akij = W[a, j, i] - W[a, i, j],
        W[a, i, j]   = (Z.H)[j, a, i] + (H.Z)[a, i, j] + 2 Q[a, i, j],

    so the result is antisymmetric in i, j bit for bit.  Each term is one
    batched product per sample, O(n c D^4) work in all.
    """
    n, D = data.gamma.shape[:2]
    c = Z.shape[1]
    hess = data.hess
    zh = (Z @ hess.reshape(n, D, D ** 3)).reshape(n, c, D, D, D)       # (Z.H)[c, j, a, i]
    hz = hess.reshape(n, D ** 3, D) @ np.swapaxes(Z, 1, 2)             # (H.Z)[(a, i, j), c]
    zg = Z[:, None] @ data.gamma                                       # Gamma^b_kj Z^k at [n, b, c, j]
    q = (np.swapaxes((2.0 * data.gamma_low).reshape(n, D, D * D), 1, 2)
         @ zg.reshape(n, D, c * D))                                    # 2 Q at [n, (a, i), (c, j)]
    w = q.reshape(n, D, D, c, D).transpose(0, 3, 1, 2, 4)              # 2 Q[c, a, i, j]
    w += zh.transpose(0, 1, 3, 4, 2)
    w += np.moveaxis(hz.reshape(n, D, D, D, c), -1, 1)
    r2 = np.swapaxes(w, -1, -2) - w                                    # 2 Z^k R_akij at [n, c, a, i, j]
    out = (0.5 * data.ginv)[:, None] @ r2.reshape(n, c, D, D * D)
    return out.reshape(n, c, D, D, D)


def ricci_components(riem: np.ndarray) -> np.ndarray:
    """Ric[..., p, q] = Ric(d_p, d_q), contracted from :func:`riemann_components`."""
    return np.einsum("...aqap->...pq", riem)


def covariant_derivative_values(T: TensorField, data: ChristoffelData) -> np.ndarray:
    """Components of nabla T at the points of a connection record.

    Output shape is ``(n,) + comp + (dim,)`` with the derivative slot last:
    ``out[n, ..., m]`` is the coefficient array of ``nabla_{d_m} T`` at
    ``data.points[n]``.
    """
    vals, out = T.jet_blocks(data.points, 1)
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


def gram_schmidt_frame(gmat: np.ndarray, seeds: np.ndarray, points: np.ndarray) -> np.ndarray:
    """g-orthonormal frames at a batch of points, from seed vectors plus the
    coordinate basis.

    ``gmat`` is (n, D, D), ``seeds`` is (n, s, D) and ``points`` holds the n
    sample points, which only an error message reads.  At each sample the
    candidates are the s seeds, then d_0, ..., d_{D-1}; modified
    Gram-Schmidt projects each against the frame vectors accepted so far.
    A candidate whose remainder has g-norm^2 at most ``_FRAME_TOL`` times
    its own is skipped at that sample (pivoting), so zero, dependent or NaN
    seeds cannot poison the frame, and different samples may skip
    different candidates.  The test is relative, so a uniformly rescaled
    metric s g gives the frames of g divided by sqrt(s).  Every step is
    one batched product over the samples.  Returns rows, shape (n, D, D);
    raises ``DegenerateMetricError`` naming the first sample whose frame
    stays incomplete.
    """
    n, D = gmat.shape[0], gmat.shape[-1]
    candidates = np.concatenate([seeds, np.broadcast_to(np.eye(D), (n, D, D))], axis=1)
    # a non-finite candidate is replaced by zero, which the pivot test skips
    candidates = np.where(np.isfinite(candidates).all(axis=-1, keepdims=True), candidates, 0.0)
    frames = np.zeros((n, D, D))
    lowered = np.zeros((n, D, 1, D))   # lowered[n, i] = frames[n, i] @ g, the covector of row i
    filled = np.zeros(n, dtype=np.intp)
    for j in range(candidates.shape[1]):
        if filled.min() == D:
            break
        v = candidates[:, j, :, None]
        w = v
        for i in range(filled.max()):
            # a sample with at most i rows projects onto a zero row: a no-op
            w = w - (lowered[:, i] @ w) * frames[:, i, :, None]
        wg = np.swapaxes(w, 1, 2) @ gmat
        norm2 = (wg @ w)[:, 0, 0]
        own = (np.swapaxes(v, 1, 2) @ gmat @ v)[:, 0, 0]
        take = np.flatnonzero((filled < D) & (norm2 > _FRAME_TOL * own))
        u = w[take, :, 0] / np.sqrt(norm2[take, None])
        frames[take, filled[take]] = u
        lowered[take, filled[take]] = u[:, None, :] @ gmat[take]
        filled[take] += 1
    short = np.flatnonzero(filled < D)
    if short.size:
        raise DegenerateMetricError(
            f"could not complete an orthonormal frame at {at_sample(points, short[0])}")
    return frames
