"""Expression trees: symbolic differentiation and the component grammar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from metsymp.expressions import (
    ONE,
    ZERO,
    Add,
    Const,
    Coord,
    Cos,
    Div,
    Exp,
    ExpressionSyntaxError,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    cos,
    evaluate,
    exp,
    parse_expression,
    sin,
    sqrt,
)
from metsymp.jets import Jet1, Jet2

from loop_references import evaluate_reference


def _value(expr, point):
    return float(evaluate([expr], np.asarray(point, dtype=float))[0])


def test_symbolic_diff_matches_jet_gradient():
    x, y = Coord(0, "x"), Coord(1, "y")
    expr = sin(x * y) * exp(x) + (Const(1.0) + y * y) ** 2 / (Const(3.0) + x)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    j = evaluate([expr], pts, order=2)[0]
    for i in range(2):
        di = evaluate([expr.diff(i)], pts, order=2)[0]
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

    # a literal that overflows a float is rejected where it stands, like a folded 2^2000
    for text, column in (("1e400*0", 1), ("x + 2.5E+999", 5)):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text, ("x",), line=3)
        assert (err.value.line, err.value.column) == (3, column)
        assert "overflows a float" in str(err.value)
    assert parse_expression("1e308", ("x",)).value == 1e308


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
        evaluate(roots, pts, order=3)


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


# ---------------------------------------------------------------------------
# Constants evaluate as floats: against the evaluator that made them jets
# ---------------------------------------------------------------------------

_POINTS = np.random.default_rng(8).uniform(-1.0, 1.0, size=(6, 3))
_AT = pytest.mark.parametrize("pts", [_POINTS, _POINTS[2]], ids=["batch", "point"])


def _positive(x):
    return Const(1.5) + x * x


# each builds one node from two pool nodes and a constant; a constant goes on
# either side of the four operations, and every denominator is nonzero
_BUILDERS = (
    lambda a, b, c: c + a, lambda a, b, c: a + c, lambda a, b, c: a + b,
    lambda a, b, c: c - a, lambda a, b, c: a - c, lambda a, b, c: a - b,
    lambda a, b, c: c * a, lambda a, b, c: a * c, lambda a, b, c: a * b,
    lambda a, b, c: c / _positive(a), lambda a, b, c: a / (ONE if c.is_zero() else c),
    lambda a, b, c: a / _positive(b),
    lambda a, b, c: -a, lambda a, b, c: exp(a), lambda a, b, c: sin(a), lambda a, b, c: cos(a),
    lambda a, b, c: sqrt(_positive(a)), lambda a, b, c: a ** 3,
    lambda a, b, c: _positive(a) ** -1.5,
    lambda a, b, c: a * ZERO, lambda a, b, c: c * Const(3.0),  # fold to constants
)


@st.composite
def _dags(draw):
    """Roots of a random DAG over three coordinates: pool nodes are reused as
    operands, so nodes are shared within and between roots, and some roots
    fold to constants."""
    consts = st.floats(-2.0, 2.0, allow_nan=False).map(Const)
    pool = [Coord(k) for k in range(3)] + [draw(consts), draw(consts)]
    pick = st.integers(0, 10 ** 6).map(lambda i: pool[i % len(pool)])
    for _ in range(draw(st.integers(4, 16))):
        build = draw(st.sampled_from(_BUILDERS))
        try:
            pool.append(build(draw(pick), draw(pick), draw(consts)))
        except OverflowError:  # folding constants with Python's math
            pass
    roots = [pool[-1]] + draw(st.lists(pick, min_size=1, max_size=4))
    return roots + [draw(consts) * draw(consts)]


def _assert_same_bits(a, b):
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _finite_rows(jet):
    """Mask of the points where value, gradient and Hessian are all finite."""
    return (np.isfinite(jet.value) & np.isfinite(jet.grad).all(axis=-1)
            & np.isfinite(jet.hess).all(axis=(-2, -1)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_dags())
def test_constants_as_floats_match_the_evaluator_of_constant_jets(roots):
    for pts in (_POINTS, _POINTS[2]):
        values, jets = evaluate(roots, pts), evaluate(roots, pts, order=2)
        ref_values, ref_jets = evaluate_reference(roots, pts), evaluate_reference(roots, pts, 2)
        for value, jet, ref_value, ref in zip(values, jets, ref_values, ref_jets):
            _assert_same_bits(value, jet.value)
            assert np.shape(value) == np.shape(ref_value)
            assert np.array_equal(value, ref_value, equal_nan=True)
            assert isinstance(jet, Jet2) and jet.hess.shape == ref.hess.shape
            # derivatives may differ only where a value is already non-finite
            ok = _finite_rows(ref)
            for mine, theirs in ((jet.value, ref.value), (jet.grad, ref.grad),
                                 (jet.hess, ref.hess)):
                assert np.array_equal(mine[ok], theirs[ok])


@_AT
def test_a_constant_root_is_broadcast_to_the_batch(pts):
    batch = pts.shape[:-1]
    value, = evaluate([Const(2.5)], pts)
    assert np.shape(value) == batch and np.all(value == 2.5)
    jet, = evaluate([Const(2.5)], pts, order=2)
    assert isinstance(jet, Jet2)
    assert np.shape(jet.value) == batch and np.all(jet.value == 2.5)
    assert jet.grad.shape == batch + (3,) and not jet.grad.any()
    assert jet.hess.shape == batch + (3, 3) and not jet.hess.any()


@_AT
def test_hand_built_operations_on_constants_keep_their_bits(pts):
    """The constructors fold these; built by hand, their operands are
    broadcast to the batch first, as a full evaluation would have them.
    (5 / 3 rounds differently from 5 * (1 / 3), the division rule.)"""
    roots = [Exp(Const(0.3)), Sqrt(Const(2.0)), Div(Const(5.0), Const(3.0))]
    for value, ref in zip(evaluate(roots, pts), evaluate_reference(roots, pts)):
        _assert_same_bits(value, ref)
    for jet, ref in zip(evaluate(roots, pts, order=2), evaluate_reference(roots, pts, 2)):
        for mine, theirs in ((jet.value, ref.value), (jet.grad, ref.grad), (jet.hess, ref.hess)):
            _assert_same_bits(mine, theirs)


# ---------------------------------------------------------------------------
# Order 1 against orders 0 and 2, on hand-built DAGs of every node type
# ---------------------------------------------------------------------------

# the exponents of Pow: integer, fractional, negative, and the two that the
# constructor folds away
_EXPONENTS = (0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -1.5, 2.5)


def _build_node(kind, a, b, n):
    if kind == "pow":
        return Pow(a, n)
    unary = {"neg": Neg, "exp": Exp, "sin": Sin, "cos": Cos, "sqrt": Sqrt}
    if kind in unary:
        return unary[kind](a)
    if kind == "div" and b.is_zero():
        return Div(a, Sub(b, a))  # the zero leaf is no denominator; this is a / (-a)
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b)


@st.composite
def _wild_dags(draw):
    """Roots of a random DAG of all ten operation types, built by hand so
    that nothing folds: operations on constants alone, Pow with any
    exponent, division by zero, square roots of negatives and overflowing
    exponentials all occur, and with them NaN and infinite values and
    partials.  A denominator is never the leaf ``ZERO``, which no
    constructor builds."""
    consts = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                       st.sampled_from([0.0, -0.0, 1.0, 800.0])).map(Const)
    pool = [Coord(k) for k in range(3)] + [draw(consts), draw(consts)]
    pick = st.integers(0, 10 ** 6).map(lambda i: pool[i % len(pool)])
    kinds = st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "exp", "sin", "cos",
                             "sqrt"])
    for _ in range(draw(st.integers(4, 20))):
        pool.append(_build_node(draw(kinds), draw(pick), draw(pick),
                                draw(st.sampled_from(_EXPONENTS))))
    return [pool[-1]] + draw(st.lists(pick, min_size=1, max_size=4))


def _same_values(a, b):
    """Equal, NaN where the other is NaN, and of the same sign bit wherever
    not NaN (a NaN's sign bit carries no value)."""
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(a, b, equal_nan=True)
    live = ~np.isnan(a)
    assert np.array_equal(np.signbit(a)[live], np.signbit(b)[live])


# many points, so that a rule computing a part in another rounding order
# shows in some last bit
_MANY_POINTS = np.random.default_rng(9).uniform(-1.0, 1.0, size=(200, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_wild_dags())
def test_order_one_values_and_gradients_are_those_of_orders_zero_and_two(roots):
    with np.errstate(all="ignore"):
        for pts in (_MANY_POINTS, _POINTS[2]):
            values = evaluate(roots, pts)
            firsts = evaluate(roots, pts, order=1)
            seconds = evaluate(roots, pts, order=2)
            for value, first, second in zip(values, firsts, seconds):
                assert isinstance(first, Jet1)
                _same_values(value, first.value)
                assert first.value.tobytes() == second.value.tobytes()
                assert first.grad.shape == second.grad.shape == np.shape(value) + (3,)
                assert first.grad.tobytes() == second.grad.tobytes()
