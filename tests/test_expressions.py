"""Expression trees: symbolic differentiation and the component grammar."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metsymp.expressions import (
    Const,
    Coord,
    ExpressionSyntaxError,
    cos,
    evaluate,
    exp,
    parse_expression,
    sin,
)
from metsymp.jets import coordinate_jets


def _value(expr, point):
    return float(expr.evaluate(coordinate_jets(np.asarray(point, dtype=float))).value)


def test_symbolic_diff_matches_jet_gradient():
    x, y = Coord(0, "x"), Coord(1, "y")
    expr = sin(x * y) * exp(x) + (Const(1.0) + y * y) ** 2 / (Const(3.0) + x)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    jets = coordinate_jets(pts)
    j = expr.evaluate(jets, {})
    for i in range(2):
        di = expr.diff(i).evaluate(jets, {})
        assert_allclose(di.value, j.grad[:, i], atol=1e-13)


def test_simplification_prunes_zeros():
    x = Coord(0, "x")
    assert (x * Const(0.0)).is_zero()
    assert (Const(0.0) + x) is x
    assert (x * Const(1.0)) is x
    assert isinstance(Const(2.0) * Const(3.0), Const)


def test_parse_value_and_precedence():
    e = parse_expression("1 + 2 * 3 ^ 2", ("x",))
    assert _value(e, [0.0]) == 19.0
    e = parse_expression("(1 + 2) * 3 ^ 2", ("x",))
    assert _value(e, [0.0]) == 27.0
    e = parse_expression("2 ^ 3 ^ 2", ("x",))  # right associative
    assert _value(e, [0.0]) == 512.0
    e = parse_expression("-x^2", ("x",))
    assert _value(e, [3.0]) == -9.0


def test_parse_functions_and_constants():
    e = parse_expression("exp(2*t) + sin(pi*t) - cos(0) + sqrt(4)", ("t",))
    assert_allclose(_value(e, [0.5]), math.e + 1.0 - 1.0 + 2.0)


def test_parse_unicode_operators():
    e = parse_expression("6 ÷ 2 × 3 − 1", ("x",))
    assert _value(e, [0.0]) == 8.0


def test_parse_coordinates_by_name():
    e = parse_expression("alpha * beta^2", ("alpha", "beta"))
    assert _value(e, [2.0, 3.0]) == 18.0


def test_parse_error_reports_line_and_column():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 + $", ("x",), line=4)
    assert err.value.line == 4
    assert err.value.column == 5

    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("sin(x", ("x",))
    assert "')'" in str(err.value)

    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x + qq", ("x",))
    assert "unknown name" in str(err.value)

    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x ^ y", ("x", "y"))
    assert "constant" in str(err.value)


def test_negative_constant_exponent():
    e = parse_expression("x ^ -2", ("x",))
    assert _value(e, [2.0]) == 0.25


def test_substitution_composes():
    x, y = Coord(0, "x"), Coord(1, "y")
    expr = x * x + sin(y)
    sub = expr.subs((y + Const(1.0), x * y))
    # x -> y + 1, y -> x y
    assert_allclose(_value(sub, [2.0, 3.0]), 16.0 + math.sin(6.0))


def test_partials_are_cached_on_the_node():
    x, y = Coord(0, "x"), Coord(1, "y")
    expr = sin(x * y) * exp(x) + (Const(1.0) + y * y) ** 2 / (Const(3.0) + x)
    for i in range(2):
        assert expr.diff(i) is expr.diff(i)
    assert expr.diff(0).diff(1) is expr.diff(0).diff(1)


def test_substitution_rebuilds_a_shared_node_once():
    x, y = Coord(0, "x"), Coord(1, "y")
    shared = sin(x * y)
    expr = shared * shared + shared
    out = expr.subs((y, x + Const(1.0)))
    assert out.a.a is out.a.b is out.b


def test_evaluation_orders_agree_on_a_batch():
    x, y = Coord(0, "x"), Coord(1, "y")
    roots = [sin(x * y) * exp(x), (Const(1.0) + y * y) ** 2.5 / (Const(3.0) + x),
             x ** -3, Const(2.0), y]
    pts = np.random.default_rng(1).uniform(0.1, 1.0, size=(9, 2))
    jets = evaluate(roots, pts, order=2)
    for value, jet in zip(evaluate(roots, pts), jets):
        assert np.array_equal(value, jet.value)
    with pytest.raises(ValueError):
        evaluate(roots, pts, order=1)


def test_a_deep_tree_needs_no_recursion():
    x = Coord(0, "x")
    total = Const(0.0)
    for k in range(1, 5001):
        total = total + Const(float(k)) * x
    pts = np.array([[0.5], [2.0]])
    expected = 0.5 * 5000 * 5001 * pts[:, 0]
    assert np.array_equal(evaluate([total], pts)[0], expected)
    jet = evaluate([total], pts, order=2)[0]
    assert np.array_equal(jet.value, expected)
    assert np.array_equal(jet.grad[:, 0], [0.5 * 5000 * 5001] * 2)
    assert total.diff(0).value == 0.5 * 5000 * 5001
    assert _value(total.subs((Const(2.0),)), [0.0]) == 5000 * 5001
