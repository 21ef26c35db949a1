"""An invariant-frame structure with classification index 2.

Both built-in entries have index 1, so this module builds a genuinely
different nullity structure to exercise the verifiers off that orbit.  On
an Euler-angle chart (u, v, w), the standard rotation-invariant frame

    X1 = (sin w / sin v) d_u + cos w d_v - sin w cot v d_w
    X2 = (cos w / sin v) d_u - sin w d_v - cos w cot v d_w
    X3 = d_w

with dual forms sigma_i satisfies [X1,X2] = X3 cyclically.  Rescaling to
E1 = sqrt(2) X1, E2 = sqrt(6) X2, E3 = sqrt(3) X3 turns the brackets into
[E1,E2] = 2 E3, [E2,E3] = 3 E1, [E3,E1] = E2, and the orthonormal-frame
metric with eta = E3-dual and phi E1 = E2 is a contact metric structure.
A frame computation of the curvature gives R(E1,xi)xi = 2 E1 and
R(E2,xi)xi = -2 E2 with h = diag(-1, +1, 0) on (E1, E2, xi), so the
nullity constants are (kappa, mu) = (0, -2), lambda = 1, and the index is
(1 - mu/2)/sqrt(1 - kappa) = 2.  With mu different from 2 - 2n = 0 the
structure is not eta-Einstein.  The structure is the ``curved`` fixture
of ``conftest.py``.
"""

import numpy as np
from numpy.testing import assert_allclose

from metsymp.contact import (
    boeckx_index,
    d_homothety,
    fit_kappa_mu,
    h_eigendecomposition,
    kappa_mu_after_rescale,
    structure_values,
    verify_compatibility,
    verify_kmu_curvature,
)
from metsymp.curvature import ricci_components, riemann_components
from metsymp.fields import sup_norm
from metsymp.submersion import fit_symplectization_kmu, verify_currel
from metsymp.symplectization import build_metric_symplectization, nijenhuis, nijenhuis_norms

from inputs import kmu_inputs, product_inputs, slice_inputs
from loop_references import eta_einstein_fit_reference


def test_compatibility(curved):
    values = structure_values(curved, curved.chart.samples(60))
    assert sup_norm(*verify_compatibility(values).values()) < 1e-10


def test_nullity_constants_and_index(curved):
    rep = fit_kappa_mu(curved, 40)
    assert_allclose([rep.kappa, rep.mu], [0.0, -2.0], atol=1e-9)
    assert rep.residual < 1e-9
    assert_allclose(rep.lam, 1.0, atol=1e-10)
    assert_allclose(boeckx_index(rep.kappa, rep.mu), 2.0, atol=1e-9)


def test_h_spectrum(curved):
    for p in curved.chart.samples(8):
        eig = h_eigendecomposition(curved, p)
        assert_allclose(eig.eigenvalues, [[-1.0, 0.0, 1.0]], atol=1e-9)


def test_eigenspace_curvature_block(curved):
    rep6 = verify_kmu_curvature(*kmu_inputs(curved, curved.chart.samples(20)), 0.0, -2.0)
    assert sup_norm(*rep6.values()) < 1e-6


def test_rescale_law_and_index_invariance(curved):
    for a in (0.5, 2.0):
        rep = fit_kappa_mu(d_homothety(curved, a), 25)
        kp, mp = kappa_mu_after_rescale(0.0, -2.0, a)
        assert abs(rep.kappa - kp) < 1e-8
        assert abs(rep.mu - mp) < 1e-8
        assert_allclose(boeckx_index(rep.kappa, rep.mu), 2.0, atol=1e-8)


def test_not_eta_einstein(curved):
    # eta-Einstein needs mu = 2 - 2n = 0 here; this structure has mu = -2
    *_, residual = eta_einstein_fit_reference(curved, 25)
    assert residual > 1e-3


def test_symplectization_constants(curved):
    B = build_metric_symplectization(curved)
    pts = B.chart.samples(10)
    data, values = product_inputs(B, pts)
    ric = ricci_components(riemann_components(data))
    assert np.max(np.abs(ric[:, 3, 3] + 6.0)) < 1e-8
    assert sup_norm(*verify_currel(B, data, values).values()) < 1e-6
    # the slice t = 0 reads (kappa_t - 2, mu_t) = (-2, -2), the base's (0, -2)
    fit = fit_symplectization_kmu(B, *slice_inputs(B, (0.0,), B.base.chart.samples(15)))
    assert_allclose([fit.kappa, fit.mu], [0.0, -2.0], atol=1e-8)
    norms = nijenhuis_norms(nijenhuis(B.J), data.g, pts)
    assert np.min(norms) > 1e-2
