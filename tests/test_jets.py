"""Jet arithmetic: worked examples, algebra, and the difference oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import metsymp.jets
from metsymp.charts import Chart
from metsymp.contact import structure_values
from metsymp.expressions import Const, Coord, cos, evaluate, exp, sin, sqrt
from metsymp.jets import Jet2
from metsymp.symplectization import nijenhuis_values

from fd_oracle import fd_gradient, fd_hessian


def jet(expr, points):
    """The second-order jet of ``expr`` at one point or a batch."""
    return evaluate([expr], points, order=2)[0]


@pytest.fixture()
def chart_xy():
    return Chart(("x", "y"), ((-3.0, 3.0), (-3.0, 3.0)))


def test_polynomial_jet(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    j = jet(x * x * y, np.array([1.0, 2.0]))
    assert j.value == 2.0
    assert_allclose(j.grad, [4.0, 1.0])
    assert_allclose(j.hess, [[4.0, 2.0], [2.0, 0.0]])


def test_exponential_jet():
    j = jet(exp(Const(2.0) * Coord(0, "t")), np.array([0.0]))
    assert_allclose([j.value, j.grad[0], j.hess[0, 0]], [1.0, 2.0, 4.0])


def test_constant_jet():
    j = jet(Const(7.25), np.array([0.4, -0.9]))
    assert j.value == 7.25
    assert np.all(j.grad == 0.0)
    assert np.all(j.hess == 0.0)


def test_quotient_and_composition():
    x, y = Coord(0, "x"), Coord(1, "y")
    f = sin(x * y) / (Const(2.0) + cos(x)) + sqrt(Const(4.0) + x * x)
    p = np.array([0.7, -1.2])
    j = jet(f, p)
    assert_allclose(j.grad, fd_gradient(f, p), atol=1e-8)
    assert_allclose(j.hess, fd_hessian(f, p), atol=1e-5)


def test_hessian_exactly_symmetric(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = exp(x * y) * sin(x + Const(2.0) * y) / (Const(3.0) + y * y)
    pts = chart_xy.samples(40, seed=5)
    j = jet(f, pts)
    assert np.array_equal(j.hess, np.swapaxes(j.hess, -1, -2))


def test_power_rules():
    x = Coord(0, "x")
    j = jet((Const(1.0) + x * x) ** 3, np.array([0.5, 0.0]))
    u = 1.25
    assert_allclose(j.value, u ** 3)
    assert_allclose(j.grad[0], 3 * u ** 2 * 1.0)  # du/dx = 2x = 1 at x = 0.5
    assert_allclose(j.hess[0, 0], 6 * u * 1.0 + 3 * u ** 2 * 2.0)


def test_batched_matches_single(chart_xy):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = exp(x) * y + sin(y)
    pts = chart_xy.samples(10, seed=3)
    batched = jet(f, pts)
    for i, p in enumerate(pts):
        single = jet(f, p)
        assert batched.value[i] == single.value
        assert np.array_equal(batched.grad[i], single.grad)
        assert np.array_equal(batched.hess[i], single.hess)


def test_repeated_evaluation_bit_identical():
    x, y = Coord(0, "x"), Coord(1, "y")
    f = sin(x * y) * exp(x) / (Const(2.0) + y * y)
    p = np.array([0.3, 0.8])
    j1, j2 = jet(f, p), jet(f, p)
    assert j1.value == j2.value
    assert np.array_equal(j1.grad, j2.grad)
    assert np.array_equal(j1.hess, j2.hess)


def test_difference_oracle_on_catalog_components(any_entry):
    """Jet gradients and Hessians against central differences, all fields."""
    S = any_entry.structure
    pts = S.chart.samples(5, seed=21)
    exprs = [e for T in (S.eta, S.g, S.phi, S.xi, S.h)
             for e in T.components.flat if not e.is_zero()]
    assert exprs
    for f in exprs:
        for p in pts:
            j = jet(f, p)
            assert_allclose(j.grad, fd_gradient(f, p), atol=1e-6)
            assert_allclose(j.hess, fd_hessian(f, p), atol=1e-3)


def test_difference_oracle_runs_no_jet_arithmetic(monkeypatch):
    x, y = Coord(0, "x"), Coord(1, "y")
    f = x * x * y + sin(x)

    def refuse(self, other):
        raise AssertionError("the difference oracle multiplied jets")

    monkeypatch.setattr(Jet2, "__mul__", refuse)
    p = np.array([0.3, -0.7])
    assert_allclose(fd_gradient(f, p), [2 * 0.3 * -0.7 + np.cos(0.3), 0.3 ** 2], atol=1e-7)
    with pytest.raises(AssertionError):
        jet(f, p[None, :])


def test_order_one_does_no_hessian_work(any_entry, monkeypatch):
    """Order-1 walks of xi and phi, the torsion of phi and the record's h
    (from order-1 jets of xi and phi) form no outer product, the Hessian's
    only source; an order-2 product of coordinates does."""
    S = any_entry.structure
    pts = S.chart.samples(8, seed=3)

    def refuse(a, b):
        raise AssertionError("an outer product at order 1")

    monkeypatch.setattr(metsymp.jets, "_outer", refuse)
    monkeypatch.setattr(metsymp.jets, "_sym_outer", refuse)
    for T in (S.xi, S.phi):
        assert len(T.jet_blocks(pts, 1)) == 2
    assert np.isfinite(nijenhuis_values(S.phi, pts)).all()
    assert np.isfinite(structure_values(S, pts).h).all()
    with pytest.raises(AssertionError, match="outer product"):
        evaluate([Coord(0) * Coord(1)], pts, order=2)
