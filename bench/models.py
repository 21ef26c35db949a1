"""Structures the benchmark builds itself, through the public API only.

* ``standard_sasakian(n)``: the standard Sasakian structure on R^{2n+1},
  form (dz - sum y_i dx_i)/2 and metric (sum dx_i^2 + dy_i^2)/4 +
  eta (x) eta.  The same construction as the n = 2 test fixture; h = 0,
  kappa = 1 and mu is undefined for every n.
* ``curved_index_two()``: the invariant-frame structure on an Euler-angle
  chart from the test suite, with (kappa, mu) = (0, -2) and classification
  index 2.

``checked`` fits the nullity constants of a freshly built structure and
raises ``ModelCheckError`` when they differ from the known ones, so a wrong
model aborts the run before anything is timed.
"""

from __future__ import annotations

import math

import numpy as np

import metsymp
from metsymp.expressions import Const, Coord, cos, sin

# Tolerance of the self-check; the fits reproduce the constants to ~1e-12.
SELF_CHECK_TOL = 1e-8


class ModelCheckError(RuntimeError):
    """A bench-side model does not have its known nullity constants."""


def standard_sasakian(n: int) -> metsymp.ContactMetricStructure:
    d = 2 * n + 1
    names = tuple([f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)] + ["z"])
    chart = metsymp.Chart(names, ((-1.2, 1.2),) * d, sampler_seed=19)
    ys = [Coord(n + i, names[n + i]) for i in range(n)]
    zero = Const(0.0)
    eta_c = [Const(-0.5) * y for y in ys] + [zero] * n + [Const(0.5)]
    eta = metsymp.TensorField.covector(chart, eta_c)

    g_c = np.empty((d, d), dtype=object)
    g_c[...] = zero
    for i in range(2 * n):
        g_c[i, i] = Const(0.25)
    for i in range(d):
        for j in range(d):
            g_c[i, j] = g_c[i, j] + eta_c[i] * eta_c[j]
    g = metsymp.TensorField(chart, 0, 2, g_c, "symmetric")

    # per block: phi(d_y) = d_x + y d_z, phi(d_x) = -d_y, phi(d_z) = 0
    phi_c = np.empty((d, d), dtype=object)
    phi_c[...] = zero
    for i in range(n):
        phi_c[i, n + i] = Const(1.0)
        phi_c[d - 1, n + i] = ys[i]
        phi_c[n + i, i] = Const(-1.0)
    phi = metsymp.TensorField(chart, 1, 1, phi_c)
    return metsymp.ContactMetricStructure.build(chart, eta, g, phi)


def curved_index_two() -> metsymp.ContactMetricStructure:
    chart = metsymp.Chart(("u", "v", "w"),
                          ((-2.8, 2.8), (0.5, 2.6), (-2.8, 2.8)), sampler_seed=37)
    v, w = Coord(1, "v"), Coord(2, "w")
    zero = Const(0.0)
    sv, cv, sw, cw = sin(v), cos(v), sin(w), cos(w)
    TF = metsymp.TensorField

    sigma1 = TF.covector(chart, [sw * sv, cw, zero])
    sigma2 = TF.covector(chart, [cw * sv, -sw, zero])
    sigma3 = TF.covector(chart, [cv, zero, Const(1.0)])
    X1 = TF.vector(chart, [sw / sv, cw, -(sw * cv) / sv])
    X2 = TF.vector(chart, [cw / sv, -sw, -(cw * cv) / sv])

    r3 = math.sqrt(3.0)
    eta = sigma3.scale(Const(1.0 / r3))
    g_raw = (sigma1.outer(sigma1).scale(Const(0.5))
             + sigma2.outer(sigma2).scale(Const(1.0 / 6.0))
             + sigma3.outer(sigma3).scale(Const(1.0 / 3.0)))
    g = TF(chart, 0, 2, g_raw.components, "symmetric")
    phi = X2.outer(sigma1).scale(Const(r3)) - X1.outer(sigma2).scale(Const(1.0 / r3))
    return metsymp.ContactMetricStructure.build(chart, eta, g, phi)


def checked(S: metsymp.ContactMetricStructure, kappa: float, mu: float | None,
            index: float | None, seed: int, samples: int = 10
            ) -> metsymp.ContactMetricStructure:
    """Return ``S`` after checking its fitted (kappa, mu) and index."""
    rep = metsymp.fit_kappa_mu(S, samples, seed=seed)
    problems = []
    if not abs(rep.kappa - kappa) <= SELF_CHECK_TOL:
        problems.append(f"kappa {rep.kappa!r} != {kappa!r}")
    if (rep.mu is None) != (mu is None):
        problems.append(f"mu {rep.mu!r} != {mu!r}")
    elif mu is not None and not abs(rep.mu - mu) <= SELF_CHECK_TOL:
        problems.append(f"mu {rep.mu!r} != {mu!r}")
    if index is not None:
        if rep.mu is None or rep.kappa >= 1.0:
            problems.append(f"index undefined, expected {index!r}")
        elif not abs(metsymp.boeckx_index(rep.kappa, rep.mu) - index) <= SELF_CHECK_TOL:
            problems.append(f"index {metsymp.boeckx_index(rep.kappa, rep.mu)!r} != {index!r}")
    if not rep.residual <= SELF_CHECK_TOL:
        problems.append(f"fit residual {rep.residual!r}")
    if problems:
        raise ModelCheckError("; ".join(problems))
    return S
