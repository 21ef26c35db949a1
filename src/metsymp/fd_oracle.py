"""Central finite differences, kept as an independent cross-check.

Jet arithmetic is the production differentiation path.  These routines
re-derive the same quantities from plain value evaluations so the two can
be compared; they evaluate at order 0 only and never run jet arithmetic.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField, TensorField

__all__ = ["fd_gradient", "fd_hessian", "fd_christoffel", "fd_riemann"]


def _value(f: ScalarField, p: np.ndarray) -> float:
    return float(f.values(p[None, :])[0])


def fd_gradient(f: ScalarField, point: np.ndarray, step: float = 1e-4) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    d = p.shape[0]
    out = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        out[i] = (_value(f, p + e) - _value(f, p - e)) / (2.0 * step)
    return out


def fd_hessian(f: ScalarField, point: np.ndarray, step: float = 1e-4) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    d = p.shape[0]
    out = np.zeros((d, d))
    f0 = _value(f, p)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        out[i, i] = (_value(f, p + ei) - 2.0 * f0 + _value(f, p - ei)) / step**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = step
            mixed = (
                _value(f, p + ei + ej)
                - _value(f, p + ei - ej)
                - _value(f, p - ei + ej)
                + _value(f, p - ei - ej)
            ) / (4.0 * step**2)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def _metric_at(g: TensorField, p: np.ndarray) -> np.ndarray:
    return g.values(p)


def _five_point(f, p: np.ndarray, m: int, step: float) -> np.ndarray:
    """Fourth-order central difference of a matrix-valued map along slot m."""
    e = np.zeros_like(p)
    e[m] = step
    return (
        -f(p + 2 * e) + 8.0 * f(p + e) - 8.0 * f(p - e) + f(p - 2 * e)
    ) / (12.0 * step)


def fd_christoffel(g: TensorField, point: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Levi-Civita coefficients from differenced metric values only.

    Uses fourth-order stencils so the oracle stays well below the 1e-5
    comparison tolerance even where the metric carries exponential
    weights.
    """
    p = np.asarray(point, dtype=float)
    d = p.shape[0]
    dg = np.zeros((d, d, d))  # dg[m, i, j] = d_m g_ij
    for m in range(d):
        dg[m] = _five_point(lambda q: _metric_at(g, q), p, m, step)
    ginv = np.linalg.inv(_metric_at(g, p))
    combo = np.zeros((d, d, d))  # combo[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    for i in range(d):
        for j in range(d):
            for l in range(d):
                combo[i, j, l] = dg[i, j, l] + dg[j, i, l] - dg[l, i, j]
    return 0.5 * np.einsum("kl,ijl->kij", ginv, combo)


def fd_riemann(g: TensorField, point: np.ndarray,
               inner_step: float = 1e-3, outer_step: float = 2e-3) -> np.ndarray:
    """R^l_{kij} by differencing the differenced connection.

    Both levels use fourth-order stencils; the outer step exceeds the
    inner one so the residual bias of the inner difference differentiates
    away instead of being amplified.
    """
    p = np.asarray(point, dtype=float)
    d = p.shape[0]
    dgamma = np.zeros((d, d, d, d))  # dgamma[m, k, i, j] = d_m Gamma^k_ij
    for m in range(d):
        dgamma[m] = _five_point(lambda q: fd_christoffel(g, q, inner_step),
                                p, m, outer_step)
    gamma = fd_christoffel(g, p, inner_step)
    riem = np.zeros((d, d, d, d))  # riem[l, k, i, j]
    for l in range(d):
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    val = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                    val += np.dot(gamma[l, i, :], gamma[:, j, k]) - np.dot(
                        gamma[l, j, :], gamma[:, i, k]
                    )
                    riem[l, k, i, j] = val
    return riem
