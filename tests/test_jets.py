"""Jet arithmetic: worked examples, algebra, and the difference oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metsymp.charts import Chart
from metsymp.errors import DomainError
from metsymp.expressions import Const, Coord, cos, exp, sin, sqrt
from metsymp.fd_oracle import fd_gradient, fd_hessian
from metsymp.fields import ScalarField
from metsymp.jets import Jet2


@pytest.fixture()
def chart_xy():
    return Chart(("x", "y"), ((-3.0, 3.0), (-3.0, 3.0)))


def test_polynomial_jet(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = ScalarField(chart_xy, x * x * y)
    j = f.jet(np.array([1.0, 2.0]))
    assert j.value == 2.0
    assert_allclose(j.grad, [4.0, 1.0])
    assert_allclose(j.hess, [[4.0, 2.0], [2.0, 0.0]])


def test_exponential_jet():
    chart = Chart(("t",), ((-2.0, 2.0),))
    f = ScalarField(chart, exp(Const(2.0) * Coord(0, "t")))
    j = f.jet(np.array([0.0]))
    assert_allclose([j.value, j.grad[0], j.hess[0, 0]], [1.0, 2.0, 4.0])


def test_constant_jet(chart_xy):
    f = ScalarField(chart_xy, Const(7.25))
    j = f.jet(np.array([0.4, -0.9]))
    assert j.value == 7.25
    assert np.all(j.grad == 0.0)
    assert np.all(j.hess == 0.0)


def test_out_of_domain_point_rejected(chart_xy):
    f = ScalarField(chart_xy, Coord(0, "x"))
    with pytest.raises(DomainError):
        f.jet(np.array([10.0, 0.0]))


def test_quotient_and_composition(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = ScalarField(chart_xy, sin(x * y) / (Const(2.0) + cos(x)) + sqrt(Const(4.0) + x * x))
    p = np.array([0.7, -1.2])
    j = f.jet(p)
    assert_allclose(j.grad, fd_gradient(f, p), atol=1e-8)
    assert_allclose(j.hess, fd_hessian(f, p), atol=1e-5)


def test_hessian_exactly_symmetric(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = ScalarField(chart_xy, exp(x * y) * sin(x + Const(2.0) * y) / (Const(3.0) + y * y))
    pts = chart_xy.samples(40, seed=5)
    j = f.jets(pts)
    assert np.array_equal(j.hess, np.swapaxes(j.hess, -1, -2))


def test_power_rules(chart_xy):
    x = Coord(0, "x")
    f = ScalarField(chart_xy, (Const(1.0) + x * x) ** 3)
    p = np.array([0.5, 0.0])
    j = f.jet(p)
    u = 1.25
    assert_allclose(j.value, u ** 3)
    assert_allclose(j.grad[0], 3 * u ** 2 * 1.0)  # du/dx = 2x = 1 at x = 0.5
    assert_allclose(j.hess[0, 0], 6 * u * 1.0 + 3 * u ** 2 * 2.0)


def test_batched_matches_single(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = ScalarField(chart_xy, exp(x) * y + sin(y))
    pts = chart_xy.samples(10, seed=3)
    batched = f.jets(pts)
    for i, p in enumerate(pts):
        single = f.jet(p)
        assert batched.value[i] == single.value
        assert np.array_equal(batched.grad[i], single.grad)
        assert np.array_equal(batched.hess[i], single.hess)


def test_repeated_evaluation_bit_identical(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = ScalarField(chart_xy, sin(x * y) * exp(x) / (Const(2.0) + y * y))
    p = np.array([0.3, 0.8])
    j1, j2 = f.jet(p), f.jet(p)
    assert j1.value == j2.value
    assert np.array_equal(j1.grad, j2.grad)
    assert np.array_equal(j1.hess, j2.hess)


def test_difference_oracle_on_catalog_components(any_entry):
    """Jet gradients and Hessians against central differences, all fields."""
    S = any_entry.structure
    pts = S.chart.samples(5, seed=21)
    fields = []
    for T in (S.eta, S.g, S.phi, S.xi, S.h):
        for idx in np.ndindex(T.components.shape):
            expr = T.components[idx]
            if not expr.is_zero():
                fields.append(ScalarField(S.chart, expr))
    assert fields
    for f in fields:
        for p in pts:
            j = f.jet(p)
            assert_allclose(j.grad, fd_gradient(f, p), atol=1e-6)
            assert_allclose(j.hess, fd_hessian(f, p), atol=1e-3)


def test_difference_oracle_runs_no_jet_arithmetic(chart_xy, monkeypatch):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = ScalarField(chart_xy, x * x * y + sin(x))

    def refuse(self, other):
        raise AssertionError("the difference oracle multiplied jets")

    monkeypatch.setattr(Jet2, "__mul__", refuse)
    p = np.array([0.3, -0.7])
    assert_allclose(fd_gradient(f, p), [2 * 0.3 * -0.7 + np.cos(0.3), 0.3 ** 2], atol=1e-7)
    with pytest.raises(AssertionError):
        f.jets(p[None, :])
