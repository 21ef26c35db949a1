"""A five-dimensional structure (n = 2): the constants must track n.

The standard structure on R^5 with form (dz - y1 dx1 - y2 dx2)/2 and
metric (sum of dx_i^2 + dy_i^2)/4 + eta (x) eta has h = 0 and kappa = 1,
exactly as its three-dimensional sibling; what changes with n are the
submersion constants, so this module pins the n = 2 values: the line-line
Ricci entry -2n - 4 = -8, the Reeb row offset 4n + 4 = 12, and the
distribution-block offset 2n + 2 = 6.
"""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metsymp.charts import Chart
from metsymp.contact import (
    ContactMetricStructure,
    fit_kappa_mu,
    is_K_contact,
    structure_values,
    verify_compatibility,
)
from metsymp.curvature import christoffel_batch, ricci_components, riemann_components
from metsymp.expressions import Const, Coord
from metsymp.fields import TensorField, lie_derivative, sup_norm
from metsymp.structfile import load_structure_file
from metsymp.submersion import (
    fit_symplectization_kmu,
    verify_currel,
    verify_fundamental_tensors,
)
from metsymp.symplectization import build_metric_symplectization, verify_liouville

from inputs import product_inputs, slice_inputs
from loop_references import eta_einstein_fit_reference


@pytest.fixture(scope="module")
def five_dim():
    chart = Chart(("x1", "x2", "y1", "y2", "z"), ((-1.2, 1.2),) * 5, sampler_seed=19)
    x1, x2, y1, y2, z = (Coord(i, n) for i, n in enumerate(chart.coord_names))
    zero = Const(0.0)
    half = Const(0.5)
    quarter = Const(0.25)

    eta = TensorField.covector(
        chart, [Const(-0.5) * y1, Const(-0.5) * y2, zero, zero, half])

    comps = np.empty((5, 5), dtype=object)
    comps[...] = zero
    # (1/4)(dx1^2 + dx2^2 + dy1^2 + dy2^2) + eta (x) eta
    for i in range(4):
        comps[i, i] = quarter
    eta_c = [Const(-0.5) * y1, Const(-0.5) * y2, zero, zero, half]
    for i in range(5):
        for j in range(5):
            comps[i, j] = comps[i, j] + eta_c[i] * eta_c[j]
    g = TensorField(chart, 0, 2, comps, "symmetric")

    phi_c = np.empty((5, 5), dtype=object)
    phi_c[...] = zero
    # per block: phi(d_y) = d_x + y d_z, phi(d_x) = -d_y, phi(d_z) = 0
    phi_c[0, 2] = Const(1.0)
    phi_c[4, 2] = y1
    phi_c[1, 3] = Const(1.0)
    phi_c[4, 3] = y2
    phi_c[2, 0] = Const(-1.0)
    phi_c[3, 1] = Const(-1.0)
    phi = TensorField(chart, 1, 1, phi_c)
    return ContactMetricStructure.build(chart, eta, g, phi)


@pytest.fixture(scope="module")
def five_dim_symp(five_dim):
    return build_metric_symplectization(five_dim)


def test_the_committed_structure_file_is_this_structure(five_dim):
    S = load_structure_file(Path(__file__).parent / "data" / "sasakian_r5.txt")
    assert S.chart == five_dim.chart
    pts = five_dim.chart.samples(20)
    for name in ("eta", "g", "phi", "xi"):
        assert_allclose(getattr(S, name).values(pts), getattr(five_dim, name).values(pts),
                        rtol=0, atol=1e-15)


def test_compatibility_and_reeb(five_dim):
    values = structure_values(five_dim, five_dim.chart.samples(40))
    assert sup_norm(*verify_compatibility(values).values()) < 1e-10
    pts = five_dim.chart.samples(10)
    expected = np.zeros((10, 5))
    expected[:, 4] = 2.0
    assert_allclose(five_dim.xi.values(pts), expected, atol=1e-11)


def test_h_vanishes_and_kappa_is_one(five_dim):
    values = structure_values(five_dim, five_dim.chart.samples(30))
    assert is_K_contact(values.g, values.h)
    rep = fit_kappa_mu(five_dim, 20)
    assert abs(rep.kappa - 1.0) < 1e-8
    assert rep.mu is None


def test_eta_einstein_with_n_two_coefficients(five_dim):
    """Ric = alpha g + beta eta (x) eta with alpha + beta = 2n = 4."""
    alpha, beta, residual = eta_einstein_fit_reference(five_dim, 15)
    assert residual < 1e-8
    assert_allclose(alpha + beta, 4.0, atol=1e-8)


def test_line_ricci_is_minus_eight(five_dim_symp):
    pts = five_dim_symp.chart.samples(8)
    data = christoffel_batch(five_dim_symp.gbar, pts)
    ric = ricci_components(riemann_components(data))
    assert np.max(np.abs(ric[:, 5, 5] + 8.0)) < 1e-8


def test_ricci_rows_track_n(five_dim_symp):
    B = five_dim_symp
    rep = verify_currel(B, *product_inputs(B, B.chart.samples(8)))
    assert sup_norm(*list(rep.values())[3:]) < 1e-6


def test_fundamental_tensors_and_relations(five_dim_symp):
    inputs = product_inputs(five_dim_symp, five_dim_symp.chart.samples(8))
    assert sup_norm(*verify_fundamental_tensors(five_dim_symp, *inputs).values()) < 1e-7
    assert sup_norm(*list(verify_currel(five_dim_symp, *inputs).values())[:3]) < 1e-6


def test_expansion_property(five_dim_symp):
    omega = five_dim_symp.omega
    dt = TensorField.coordinate_vector(five_dim_symp.chart, 5)
    assert verify_liouville(omega, dt, omega.chart.samples(10))["cartan"] < 1e-10
    # the plain tensor Lie derivative carries the weight of exp(2t)
    pts = five_dim_symp.chart.samples(10)
    assert_allclose(lie_derivative(dt, omega).values(pts), 2.0 * omega.values(pts),
                    rtol=0, atol=1e-10)


def test_slice_fit_with_n_two(five_dim_symp):
    base = five_dim_symp.base
    # the slice t = 0 reads kappa_t - 2 = -1, the base's kappa = 1
    rep = fit_symplectization_kmu(five_dim_symp,
                                  *slice_inputs(five_dim_symp, (0.0,), base.chart.samples(10)))
    assert abs(rep.kappa - 1.0) < 1e-8
    assert rep.mu is None
