"""Exterior and Lie calculus, pullbacks, contractions, pointwise solves,
and the two evaluation orders of a field."""

import gc
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metsymp.charts import Chart, product_with_line
from metsymp.errors import ChartMismatchError, RankError, SingularMatrixError
from metsymp.expressions import ONE, ZERO, Const, Coord, cos, evaluate, exp, sin
from metsymp.fields import (
    SmoothMap,
    TensorField,
    contract,
    exterior_derivative,
    interior_product,
    inverse_matrix_exprs,
    inverse_metric,
    lie_bracket,
    lie_derivative,
    lower_index,
    pointwise_solve,
    pullback,
    raise_index,
    sup_norm,
    wedge,
)
from metsymp.symplectization import nijenhuis


@pytest.fixture()
def r3():
    return Chart(("x", "y", "z"), ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)), sampler_seed=7)


def _coords(chart):
    return tuple(Coord(i, n) for i, n in enumerate(chart.coord_names))


def _random_one_form(chart, seed=0):
    x, y, z = _coords(chart)
    if seed == 0:
        comps = [sin(x * y) + z, exp(x) * y, cos(z) + x * x]
    else:
        comps = [y * z + Const(1.0), sin(z) * x, exp(y * Const(0.5))]
    return TensorField.covector(chart, comps)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------


def test_d_of_darboux_form_is_dx_wedge_dy(r3):
    x, y, z = _coords(r3)
    eta = TensorField.covector(r3, [-y, Const(0.0), Const(1.0)])
    deta = exterior_derivative(eta)
    dx = TensorField.covector(r3, [Const(1.0), Const(0.0), Const(0.0)])
    dy = TensorField.covector(r3, [Const(0.0), Const(1.0), Const(0.0)])
    pts = r3.samples(25)
    assert_allclose(deta.values(pts), wedge(dx, dy).values(pts), atol=1e-15)


def test_d_squared_vanishes_on_random_one_form(r3):
    alpha = _random_one_form(r3)
    dd = exterior_derivative(exterior_derivative(alpha))
    pts = r3.samples(100)
    assert np.max(np.abs(dd.values(pts))) < 1e-12


def test_d_rank_overflow(r3):
    x, y, z = _coords(r3)
    dx = TensorField.covector(r3, [Const(1.0), Const(0.0), Const(0.0)])
    dy = TensorField.covector(r3, [Const(0.0), Const(1.0), Const(0.0)])
    dz = TensorField.covector(r3, [Const(0.0), Const(0.0), Const(1.0)])
    top = wedge(wedge(dx, dy), dz)
    with pytest.raises(RankError):
        exterior_derivative(top)


def test_d_of_weighted_form_on_product_chart(r3):
    """d(exp(2t) eta) against a by-hand expansion of exp(2t)(2 dt^eta + d eta)."""
    chart = product_with_line(r3, "t", (-1.0, 1.0))
    x, y = Coord(0, "x"), Coord(1, "y")
    t = Coord(3, "t")
    eta4 = TensorField.covector(chart, [-y, Const(0.0), Const(1.0), Const(0.0)])
    alpha = eta4.scale(exp(Const(2.0) * t))
    omega = exterior_derivative(alpha)

    pts = chart.samples(100)
    ev = eta4.values(pts)
    grads = eta4.jet_blocks(pts)[1]          # d_m eta_j
    e2t = np.exp(2.0 * pts[:, 3])
    expected = np.zeros((len(pts), 4, 4))
    # 2 exp(2t) dt ^ eta contributes exp(2t) (dt_i eta_j - dt_j eta_i)
    for j in range(3):
        expected[:, 3, j] = e2t * ev[:, j]
        expected[:, j, 3] = -e2t * ev[:, j]
    # exp(2t) d eta on the base block, averaged-alternation components
    for i in range(3):
        for j in range(3):
            expected[:, i, j] += e2t * 0.5 * (grads[:, j, i] - grads[:, i, j])
    assert np.max(np.abs(omega.values(pts) - expected)) < 1e-10


# ---------------------------------------------------------------------------
# wedge and interior product
# ---------------------------------------------------------------------------


def test_interior_product_examples(r3):
    dx = TensorField.covector(r3, [Const(1.0), Const(0.0), Const(0.0)])
    dy = TensorField.covector(r3, [Const(0.0), Const(1.0), Const(0.0)])
    ez = TensorField.coordinate_vector(r3, 2)
    ex = TensorField.coordinate_vector(r3, 0)
    pts = r3.samples(10)
    assert np.max(np.abs(interior_product(ez, wedge(dx, dy)).values(pts))) == 0.0
    assert_allclose(interior_product(ex, dx).values(pts), 1.0)


def test_contact_volume_nonvanishing(r3, sasakian):
    from metsymp.contact import verify_contact_form

    rep = verify_contact_form(sasakian.eta, sasakian.chart, 50)
    assert rep.passed
    x, y, z = _coords(r3)
    flat = TensorField.covector(r3, [Const(0.0), Const(0.0), Const(1.0)])
    assert not verify_contact_form(flat, r3, 20).passed
    # any nonvanishing multiple of a contact form is again contact
    scaled = sasakian.eta.scale(exp(Coord(0, "x") * Const(0.25)) + Const(1.0))
    assert verify_contact_form(scaled, sasakian.chart, 50).passed


def test_wedge_rank_overflow(r3):
    dx = TensorField.covector(r3, [Const(1.0), Const(0.0), Const(0.0)])
    dy = TensorField.covector(r3, [Const(0.0), Const(1.0), Const(0.0)])
    dz = TensorField.covector(r3, [Const(0.0), Const(0.0), Const(1.0)])
    top = wedge(wedge(dx, dy), dz)
    with pytest.raises(RankError):
        wedge(top, dx)


def test_wedge_graded_antisymmetry(r3):
    a = _random_one_form(r3, 0)
    b = _random_one_form(r3, 1)
    pts = r3.samples(30)
    ab = wedge(a, b).values(pts)
    ba = wedge(b, a).values(pts)
    assert_allclose(ab, -ba, atol=1e-14)


# ---------------------------------------------------------------------------
# brackets and Lie derivatives
# ---------------------------------------------------------------------------


def test_bracket_examples(r3):
    x = Coord(0, "x")
    ex = TensorField.coordinate_vector(r3, 0)
    ez = TensorField.coordinate_vector(r3, 2)
    xdy = TensorField.vector(r3, [Const(0.0), x, Const(0.0)])
    pts = r3.samples(10)
    assert np.max(np.abs(lie_bracket(ex, ez).values(pts))) == 0.0
    got = lie_bracket(ex, xdy).values(pts)
    expected = np.zeros_like(got)
    expected[:, 1] = 1.0
    assert_allclose(got, expected)


def test_bracket_chart_mismatch(r3):
    other = Chart(("u", "v", "w"), ((-1, 1), (-1, 1), (-1, 1)))
    with pytest.raises(ChartMismatchError):
        lie_bracket(TensorField.coordinate_vector(r3, 0),
                    TensorField.coordinate_vector(other, 0))


def test_jacobi_identity(r3):
    x, y, z = _coords(r3)
    rng = np.random.default_rng(11)
    pts = r3.samples(100)
    for trial in range(20):
        fields = []
        for _ in range(3):
            comps = []
            for _ in range(3):
                c = rng.uniform(-1, 1, size=3)
                comps.append(Const(c[0]) + Const(c[1]) * x * y + Const(c[2]) * sin(z))
            fields.append(TensorField.vector(r3, comps))
        X, Y, Z = fields
        total = (lie_bracket(X, lie_bracket(Y, Z)).values(pts)
                 + lie_bracket(Y, lie_bracket(Z, X)).values(pts)
                 + lie_bracket(Z, lie_bracket(X, Y)).values(pts))
        assert np.max(np.abs(total)) < 1e-10


def test_lie_derivative_of_scalar_is_directional(r3):
    x, y, z = _coords(r3)
    f = TensorField.from_scalar(r3, x * y + sin(z))
    X = TensorField.vector(r3, [y, Const(1.0), x])
    pts = r3.samples(30)
    got = lie_derivative(X, f).values(pts)
    expected = np.einsum("nm,nm->n", X.values(pts), f.jet_blocks(pts)[1])
    assert_allclose(got, expected, atol=1e-14)


def test_lie_derivative_of_weighted_form_along_line(r3):
    """L_{d_t}(exp(2t) eta) = 2 exp(2t) eta, against the direct expansion."""
    chart = product_with_line(r3, "t", (-1.0, 1.0))
    y = Coord(1, "y")
    t = Coord(3, "t")
    eta4 = TensorField.covector(chart, [-y, Const(0.0), Const(1.0), Const(0.0)])
    alpha = eta4.scale(exp(Const(2.0) * t))
    dt = TensorField.coordinate_vector(chart, 3)
    pts = chart.samples(50)
    got = lie_derivative(dt, alpha).values(pts)
    assert np.max(np.abs(got - 2.0 * alpha.values(pts))) < 1e-10


def test_cartan_identity_with_degree_weights(r3):
    """L_X alpha = 2 i_X(d alpha) + d(i_X alpha) on 1-forms.

    Under the alternating-average normalization of the wedge and d used
    throughout this package, the interior-product form of the Lie
    derivative on a k-form carries weights (k+1) and k; for 1-forms that
    is 2 and 1.  The unweighted variant is checked to fail, pinning the
    convention.
    """
    x, y, z = _coords(r3)
    alpha = _random_one_form(r3)
    X = TensorField.vector(r3, [y * z, sin(x), Const(1.0) + y * y])
    pts = r3.samples(100)
    lhs = lie_derivative(X, alpha).values(pts)
    term_d = interior_product(X, exterior_derivative(alpha)).values(pts)
    term_i = exterior_derivative(interior_product(X, alpha)).values(pts)
    assert np.max(np.abs(lhs - 2.0 * term_d - term_i)) < 1e-10
    assert np.max(np.abs(lhs - term_d - term_i)) > 1e-3


def test_lie_derivative_leibniz_over_outer_product(r3):
    x, y, z = _coords(r3)
    a = _random_one_form(r3, 0)
    b = _random_one_form(r3, 1)
    X = TensorField.vector(r3, [Const(1.0), x, sin(y)])
    pts = r3.samples(40)
    lhs = lie_derivative(X, a.outer(b)).values(pts)
    rhs = (lie_derivative(X, a).outer(b).values(pts)
           + a.outer(lie_derivative(X, b)).values(pts))
    assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------


def test_pullback_identity(r3):
    a = _random_one_form(r3)
    F = SmoothMap.identity(r3)
    pts = r3.samples(30)
    assert_allclose(pullback(F, a).values(pts), a.values(pts), atol=1e-15)


def test_pullback_of_line_translation(r3):
    """Translating t pulls exp(2t) eta back to exp(2s) exp(2t) eta."""
    chart = product_with_line(r3, "t", (-1.0, 1.0))
    y = Coord(1, "y")
    t = Coord(3, "t")
    eta4 = TensorField.covector(chart, [-y, Const(0.0), Const(1.0), Const(0.0)])
    alpha = eta4.scale(exp(Const(2.0) * t))
    s = 0.4
    F = SmoothMap(chart, chart, (Coord(0, "x"), Coord(1, "y"), Coord(2, "z"),
                                 t + Const(s)))
    pts = chart.samples(40)
    pts[:, 3] = np.random.default_rng(1).uniform(-0.9, 0.5, len(pts))
    got = pullback(F, alpha).values(pts)
    assert np.max(np.abs(got - math.exp(2 * s) * alpha.values(pts))) < 1e-12


def test_pullback_of_slice_pairing(sasakian, sasakian_symp):
    """Restricting i_{d_t} omega to the slice at t0 gives exp(2 t0) eta."""
    from metsymp.symplectization import slice_embedding

    B = sasakian_symp
    dt = TensorField.coordinate_vector(B.chart, B.chart.dim - 1)
    for t0 in (0.0, 0.35):
        emb = slice_embedding(B, t0)
        restricted = pullback(emb, interior_product(dt, B.omega))
        pts = sasakian.chart.samples(25)
        expected = math.exp(2 * t0) * sasakian.eta.values(pts)
        assert np.max(np.abs(restricted.values(pts) - expected)) < 1e-12


def test_pullback_functorial(r3):
    x, y, z = _coords(r3)
    F = SmoothMap(r3, r3, (x + y, y, z * Const(0.5)))
    G = SmoothMap(r3, r3, (x * Const(2.0), y + sin(x), z))
    T = _random_one_form(r3, 0).outer(_random_one_form(r3, 1))
    comp = G.compose(F)
    pts = r3.samples(40)
    lhs = pullback(comp, T).values(pts)
    rhs = pullback(F, pullback(G, T)).values(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_pullback_rejects_contravariant(r3):
    F = SmoothMap.identity(r3)
    with pytest.raises(RankError):
        pullback(F, TensorField.coordinate_vector(r3, 0))


def test_pullback_commutes_with_d(r3):
    """Naturality: F*(d alpha) = d(F* alpha)."""
    x, y, z = _coords(r3)
    F = SmoothMap(r3, r3, (x * y, y + sin(z), z * Const(0.5) + x))
    alpha = _random_one_form(r3)
    pts = r3.samples(60)
    lhs = pullback(F, exterior_derivative(alpha)).values(pts)
    rhs = exterior_derivative(pullback(F, alpha)).values(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


# ---------------------------------------------------------------------------
# contractions, raising and lowering, pointwise solves
# ---------------------------------------------------------------------------


def test_contract_identity_endomorphism(r3):
    eye = np.empty((3, 3), dtype=object)
    eye[...] = Const(0.0)
    for i in range(3):
        eye[i, i] = Const(1.0)
    T = TensorField(r3, 1, 1, eye)
    traced = contract(T, 0, 0)
    pts = r3.samples(5)
    assert_allclose(traced.values(pts), 3.0)


def test_lower_then_raise_roundtrip(r3, sasakian):
    x, y, z = _coords(r3)
    g = sasakian.g
    chart = sasakian.chart
    V = TensorField.vector(chart, [sin(x) + Const(1.0), x * y, Const(0.5) * z])
    back = raise_index(g, lower_index(g, V, 0), 0)
    pts = chart.samples(50)
    assert np.max(np.abs(back.values(pts) - V.values(pts))) < 1e-10


def test_inverse_metric_is_pointwise_inverse(sasakian):
    g = sasakian.g
    ginv = inverse_metric(g)
    pts = sasakian.chart.samples(30)
    prod = np.einsum("nij,njk->nik", ginv.values(pts), g.values(pts))
    assert np.max(np.abs(prod - np.eye(3))) < 1e-12


def test_a_dropped_metric_is_collected_with_its_cached_inverse(r3):
    x, y, z = _coords(r3)
    g = TensorField(r3, 0, 2, [[Const(1.0) + x * x, ZERO, ZERO], [ZERO, ONE, y],
                               [ZERO, y, Const(2.0) + z * z]], "symmetric")
    ginv = inverse_metric(g)
    assert inverse_metric(g) is ginv
    alive = weakref.ref(g)
    del g, ginv
    gc.collect()
    assert alive() is None


def _reference_det(m):
    """Cofactor expansion along the first row, every minor expanded afresh."""
    if len(m) == 1:
        return m[0][0]
    total = ZERO
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        term = entry * _reference_det([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def test_shared_minors_keep_the_cofactor_expressions():
    x, y, z, w = (Coord(i, n) for i, n in enumerate("xyzw"))
    m = [[Const(1.0) + x * x, y, ZERO, z],
         [y, ONE, x * w, ZERO],
         [ZERO, x * w, Const(2.0) + z, sin(y)],
         [z, ZERO, sin(y), exp(w)]]
    n = len(m)
    det = _reference_det(m)
    inv = inverse_matrix_exprs(m)
    for i in range(n):
        for j in range(n):
            cof = _reference_det([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
            expected = (cof if (i + j) % 2 == 0 else -cof) / det
            assert repr(inv[i][j]) == repr(expected)


def test_inverse_of_a_one_by_one_matrix():
    (inv,), = inverse_matrix_exprs([[Coord(0, "x")]])
    assert_allclose(evaluate([inv], np.array([[0.5], [2.0]]))[0], [2.0, 0.5])


def test_pointwise_solve(r3):
    x, y, z = _coords(r3)
    eye = np.empty((3, 3), dtype=object)
    eye[...] = Const(0.0)
    for i in range(3):
        eye[i, i] = Const(1.0)
    A = TensorField(r3, 1, 1, eye)
    b = TensorField.vector(r3, [x, y, z])
    p = np.array([0.2, -0.4, 1.1])
    assert_allclose(pointwise_solve(A, b, p), p)

    singular = np.empty((3, 3), dtype=object)
    singular[...] = Const(0.0)
    singular[0, 0] = Const(1.0)
    Abad = TensorField(r3, 1, 1, singular)
    with pytest.raises(SingularMatrixError):
        pointwise_solve(Abad, b, p)


def test_symmetry_tags_are_structural(r3):
    x, y, z = _coords(r3)
    raw = np.empty((3, 3), dtype=object)
    raw[...] = Const(0.0)
    raw[0, 1] = x
    T = TensorField(r3, 0, 2, raw, "antisymmetric")
    pts = r3.samples(10)
    vals = T.values(pts)
    assert np.array_equal(vals, -np.swapaxes(vals, 1, 2))
    S = TensorField(r3, 0, 2, raw, "symmetric")
    vals = S.values(pts)
    assert np.array_equal(vals, np.swapaxes(vals, 1, 2))


# ---------------------------------------------------------------------------
# the residual reducer
# ---------------------------------------------------------------------------


def test_sup_norm_is_the_exact_max_abs_on_finite_data():
    rng = np.random.default_rng(5)
    parts = [rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-20, 20, size=(4, 3)),
             rng.normal(size=7), -2.5, np.float64(1e-300), np.zeros((0, 3))]
    reference = max(float(np.max(np.abs(p))) for p in parts if np.size(p))
    assert sup_norm(*parts) == reference
    assert sup_norm(*reversed(parts)) == reference
    assert sup_norm(parts[0]) == float(np.max(np.abs(parts[0])))
    assert sup_norm(-3.0, [1.0, -2.0]) == 3.0
    assert sup_norm() == 0.0
    assert sup_norm(np.zeros(0)) == 0.0
    assert type(sup_norm(np.ones(2))) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sup_norm_maps_any_non_finite_entry_to_inf(bad):
    arr = np.ones((3, 2))
    arr[1, 0] = bad
    assert sup_norm(arr) == math.inf
    assert sup_norm(0.0, arr, 5.0) == math.inf
    assert sup_norm(bad) == math.inf
    # the order of the parts does not matter, unlike max(0.0, nan) == 0.0
    assert sup_norm(bad, 0.0) == sup_norm(0.0, bad) == math.inf


# ---------------------------------------------------------------------------
# evaluation orders: values (order 0) against jets (order 2)
# ---------------------------------------------------------------------------


def _assert_values_are_the_jet_values(T, pts):
    vals = T.values(pts)
    assert np.array_equal(vals, T.jet_blocks(pts)[0], equal_nan=True)
    assert np.array_equal(T.values(pts[0]), T.jet_blocks(pts[0])[0], equal_nan=True)
    return vals


def test_values_are_bit_for_bit_the_jet_values(any_entry):
    S = any_entry.structure
    pts = S.chart.samples(12, seed=3)
    for T in (S.g, S.phi, S.eta, S.xi, S.h):
        _assert_values_are_the_jet_values(T, pts)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_values_are_the_jet_values_where_they_are_nan(nan_masked_sasakian_entry):
    S = nan_masked_sasakian_entry.structure
    pts = S.chart.samples(12, seed=3)
    assert np.isnan(_assert_values_are_the_jet_values(S.phi, pts)).any()
    for T in (S.g, S.eta, S.xi, S.h):
        _assert_values_are_the_jet_values(T, pts)


@pytest.mark.parametrize("symp", ["sasakian_symp", "flat_bundle_symp"])
def test_symplectization_values_are_bit_for_bit_the_jet_values(symp, request):
    B = request.getfixturevalue(symp)
    pts = B.chart.samples(8, seed=4)
    for T in (B.gbar, B.J, nijenhuis(B.J)):
        _assert_values_are_the_jet_values(T, pts)
