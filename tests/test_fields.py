"""Exterior and Lie calculus, pullbacks, contractions, and the two
evaluation orders of a field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from metsymp.charts import Chart, product_with_line
from metsymp.contact import _reeb_from_values, d_homothety, reeb_field
from metsymp.errors import ChartMismatchError, NotContactError, RankError
from metsymp.expressions import (
    ONE,
    ZERO,
    Const,
    Coord,
    Div,
    Expr,
    Mul,
    Neg,
    _Binary,
    _Unary,
    cos,
    evaluate,
    exp,
    sin,
    sum_of_products,
)
from metsymp.fields import (
    SmoothMap,
    TensorField,
    _fill,
    _orbits,
    exterior_derivative,
    interior_product,
    inverse_matrix_exprs,
    inverse_metric,
    lie_derivative,
    pullback,
    raise_index,
    sup_norm,
    wedge,
)
from metsymp.jets import Jet2
from metsymp.structfile import StructureFileError, parse_structure_text
from metsymp.symplectization import nijenhuis, slice_metric_field

from loop_references import lie_bracket_loop, symmetrize_reference


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
    """The numeric Reeb system has full rank at every sample exactly where
    eta ^ (d eta)^n does not vanish."""
    def solve(eta, pts):
        return _reeb_from_values(exterior_derivative(eta).values(pts), eta.values(pts), pts)

    flat = TensorField.covector(r3, [Const(0.0), Const(0.0), Const(1.0)])
    with pytest.raises(NotContactError):
        solve(flat, r3.samples(20))
    # any nonvanishing multiple of a contact form is again contact
    scaled = sasakian.eta.scale(exp(Coord(0, "x") * Const(0.25)) + Const(1.0))
    pts = sasakian.chart.samples(50)
    for eta in (sasakian.eta, scaled):
        assert_allclose(solve(eta, pts), reeb_field(eta).values(pts), atol=1e-12)


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
    assert np.max(np.abs(lie_bracket_loop(ex, ez).values(pts))) == 0.0
    got = lie_bracket_loop(ex, xdy).values(pts)
    expected = np.zeros_like(got)
    expected[:, 1] = 1.0
    assert_allclose(got, expected)


def test_bracket_chart_mismatch(r3):
    """The library's bracket is the Lie derivative of a vector field."""
    other = Chart(("u", "v", "w"), ((-1, 1), (-1, 1), (-1, 1)))
    with pytest.raises(ChartMismatchError):
        lie_derivative(TensorField.coordinate_vector(r3, 0),
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
        total = (lie_bracket_loop(X, lie_bracket_loop(Y, Z)).values(pts)
                 + lie_bracket_loop(Y, lie_bracket_loop(Z, X)).values(pts)
                 + lie_bracket_loop(Z, lie_bracket_loop(X, Y)).values(pts))
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
    from loop_references import slice_embedding

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


def test_lower_then_raise_roundtrip(r3, sasakian):
    """V lowered by g, then raised by ``raise_index``: the raised values
    solve g X = V_flat at each sample, and give V back."""
    x, y, z = _coords(r3)
    g = sasakian.g
    chart = sasakian.chart
    V = TensorField.vector(chart, [sin(x) + Const(1.0), x * y, Const(0.5) * z])
    low = TensorField.covector(chart, [
        sum_of_products((1, g.components[i, a], V.components[a]) for a in range(3))
        for i in range(3)])
    pts = chart.samples(50)
    back = raise_index(g, low, 0).values(pts)
    want = np.linalg.solve(g.values(pts), low.values(pts)[..., None])[..., 0]
    assert np.max(np.abs(back - want)) < 1e-12
    assert np.max(np.abs(back - V.values(pts))) < 1e-10


def test_inverse_metric_is_pointwise_inverse(sasakian):
    g = sasakian.g
    ginv = inverse_metric(g)
    pts = sasakian.chart.samples(30)
    prod = np.einsum("nij,njk->nik", ginv.values(pts), g.values(pts))
    assert np.max(np.abs(prod - np.eye(3))) < 1e-12


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
# evaluation orders: values (order 0) against jets (orders 1 and 2)
# ---------------------------------------------------------------------------


def _assert_values_are_the_jet_values(T, pts):
    """Values agree at every order, and gradients at orders 1 and 2."""
    vals = T.values(pts)
    for p in (pts, pts[0]):
        first, second = T.jet_blocks(p, 1), T.jet_blocks(p)
        assert len(first) == 2 and len(second) == 3
        assert np.array_equal(T.values(p), first[0], equal_nan=True)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()
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


# ---------------------------------------------------------------------------
# storage of tagged tensors: one expression per index orbit
# ---------------------------------------------------------------------------


def _tagged_fields(sasakian, sasakian_symp):
    """Symmetric and antisymmetric fields built by every path that makes them."""
    dt = TensorField.coordinate_vector(sasakian_symp.chart, 3)
    omega = sasakian_symp.omega
    return {
        "g": sasakian.g,
        "d_homothety g": d_homothety(sasakian, 2.5).g,
        "gbar": sasakian_symp.gbar,
        "slice metric": slice_metric_field(sasakian, sasakian_symp.chart),
        "L_xi g": lie_derivative(sasakian.xi, sasakian.g),
        "g + g": sasakian.g + sasakian.g.scale(3.0),
        "omega": omega,
        "L_dt omega": lie_derivative(dt, omega),
        "d eta ^ eta": wedge(exterior_derivative(sasakian.eta), sasakian.eta),
        "eta ^ d eta": wedge(sasakian.eta, exterior_derivative(sasakian.eta)),
        "dt ^ omega": wedge(TensorField.covector(sasakian_symp.chart, [ZERO] * 3 + [ONE]), omega),
    }


def _is_negation(x, y):
    """x is -y as a node: a constant's negation, or a Neg of the other node."""
    if isinstance(x, Const) and isinstance(y, Const):
        return x.value == -y.value
    return (isinstance(x, Neg) and x.a is y) or (isinstance(y, Neg) and y.a is x)


def test_tagged_tensors_store_one_expression_per_orbit(sasakian, sasakian_symp):
    for name, T in _tagged_fields(sasakian, sasakian_symp).items():
        comps = T.components
        for rep, members, repeated in _orbits(T.chart.dim, T.s):
            head = comps[rep]
            for idx, odd in members:
                if T.sym == "symmetric":
                    assert comps[idx] is head, (name, idx)
                elif repeated:
                    assert comps[idx].is_zero(), (name, idx)
                elif odd:
                    assert _is_negation(comps[idx], head), (name, idx)
                else:
                    assert comps[idx] is head, (name, idx)


def test_symmetric_mirror_entries_are_one_node(sasakian):
    g = sasakian.g
    d = g.chart.dim
    assert all(g.components[i, j] is g.components[j, i] for i in range(d) for j in range(d))


def test_antisymmetric_repeated_index_components_are_zero(sasakian_symp):
    omega = sasakian_symp.omega
    top = wedge(omega, TensorField.covector(omega.chart, [ONE, ZERO, ZERO, ONE]))
    for T in (omega, top):
        for idx in np.ndindex(T.components.shape):
            if len(set(idx)) < len(idx):
                assert T.components[idx].is_zero()


def test_rebuilding_a_tagged_tensor_creates_no_node(sasakian, sasakian_symp):
    for T in _tagged_fields(sasakian, sasakian_symp).values():
        again = TensorField(T.chart, 0, T.s, T.components, T.sym)
        assert all(a is b for a, b in zip(again.components.flat, T.components.flat))


@pytest.mark.parametrize("sym, rank, calls", [("symmetric", 2, math.comb(5, 2)),
                                              ("antisymmetric", 3, math.comb(4, 3)),
                                              ("antisymmetric", 2, math.comb(4, 2)),
                                              ("none", 2, 16)])
def test_fill_calls_its_entry_once_per_orbit(sym, rank, calls):
    seen = []

    def entry(idx):
        seen.append(idx)
        return Coord(idx[0]) * Const(float(len(seen)))

    out = _fill((4,) * rank, sym, entry)
    assert len(seen) == calls
    assert len(set(seen)) == calls
    if sym != "none":
        assert all(list(idx) == sorted(idx) for idx in seen)
    assert all(isinstance(e, Expr) for e in out.flat)


def test_a_metric_with_unequal_mirror_entries_is_averaged(r3):
    x, y, z = _coords(r3)
    comps = np.array([[ONE, x, ZERO], [y * z, ONE, ZERO], [ZERO, ZERO, ONE]], dtype=object)
    g = TensorField(r3, 0, 2, comps, "symmetric")
    assert g.components[0, 1] is g.components[1, 0]
    assert g.components[0, 0] is ONE
    pts = r3.samples(20)
    assert_allclose(g.values(pts)[:, 0, 1], 0.5 * (pts[:, 0] + pts[:, 1] * pts[:, 2]),
                    rtol=1e-15, atol=0)
    # rebuilding keeps the averaged node
    assert TensorField(r3, 0, 2, g.components, "symmetric").components[0, 1] is g.components[0, 1]


def test_a_structure_file_cannot_give_both_orders_of_a_metric_entry():
    text = "\n".join(["chart x [-1, 1]", "chart y [-1, 1]", "chart z [-1, 1]",
                      "eta z = 1", "g x x = 1", "g y y = 1", "g z z = 1",
                      "g x y = x", "g y x = y"])
    with pytest.raises(StructureFileError, match="duplicate metric component"):
        parse_structure_text(text)


# Polynomial components c0 + c1 * x_a * x_b, or the zero node.
_COEFF = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False,
                   allow_subnormal=False)


@st.composite
def _polynomial(draw, dim):
    if draw(st.integers(0, 5)) == 0:
        return ZERO
    c0, c1 = draw(_COEFF), draw(_COEFF)
    a, b = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    return Const(c0) + Const(c1) * Coord(a) * Coord(b)


@st.composite
def _tagged_arrays(draw):
    """(array, sign): canonical or not, symmetric (+1) or antisymmetric (-1)."""
    dim, rank = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    sign = draw(st.sampled_from([1, -1]))
    arr = np.empty((dim,) * rank, dtype=object)
    if draw(st.booleans()):
        for idx in np.ndindex(arr.shape):
            arr[idx] = draw(_polynomial(dim))
        return arr, sign
    for rep, members, repeated in _orbits(dim, rank):
        head = ZERO if sign < 0 and repeated else draw(_polynomial(dim))
        for idx, odd in members:
            arr[idx] = -head if sign < 0 and odd else head
    return arr, sign


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_tagged_arrays())
def test_orbit_storage_keeps_the_values_of_the_full_average(case):
    arr, sign = case
    rank = arr.ndim
    chart = Chart(tuple(f"x{i}" for i in range(arr.shape[0])), ((-2.0, 2.0),) * arr.shape[0],
                  sampler_seed=5)
    pts = chart.samples(16)
    T = TensorField(chart, 0, rank, arr, "symmetric" if sign > 0 else "antisymmetric")
    ref = symmetrize_reference(arr, sign)
    got, want = (np.array(evaluate(list(a.flat), pts)) for a in (T.components, ref))
    if rank == 2:
        assert np.array_equal(got, want)
        for mine, theirs in zip(evaluate(list(T.components.flat), pts, order=2),
                                evaluate(list(ref.flat), pts, order=2)):
            assert np.array_equal(mine.grad, theirs.grad)
            assert np.array_equal(mine.hess, theirs.hess)
    else:
        scale = np.max(np.abs(np.array(evaluate(list(arr.flat), pts))), axis=0)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


@pytest.mark.parametrize("single", [False, True], ids=["batch", "point"])
def test_jet_blocks_of_a_constant_metric(single):
    chart = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    gmat = [[2.0, 0.5], [0.5, 3.0]]
    g = TensorField(chart, 0, 2, [[Const(c) for c in row] for row in gmat], "symmetric")
    pts = chart.samples(5, seed=2)
    pts = pts[0] if single else pts
    batch = pts.shape[:-1]
    vals, grads, hesses = g.jet_blocks(pts)
    assert np.array_equal(vals, np.broadcast_to(gmat, batch + (2, 2)))
    assert grads.shape == batch + (2, 2, 2) and not grads.any()
    assert hesses.shape == batch + (2, 2, 2, 2) and not hesses.any()
    vals1, grads1 = g.jet_blocks(pts, 1)
    assert np.array_equal(vals1, vals) and np.array_equal(grads1, grads)
    with pytest.raises(ValueError, match="order"):
        g.jet_blocks(pts, 0)


def test_jet_products_are_made_only_for_two_non_constant_operands(curved, monkeypatch):
    """A constant operand scales a jet: the only jet-by-jet products of the
    order-2 walk are those of the DAG's products of two non-constants."""
    g = d_homothety(curved, 1.7).g
    products, seen, stack = 0, set(), [e for e in g.components.flat if not e.is_zero()]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, _Binary):
            assert not isinstance(node, Div)  # J / K would be one more product
            products += isinstance(node, Mul) and not (isinstance(node.a, Const)
                                                       or isinstance(node.b, Const))
            stack += [node.a, node.b]
        elif isinstance(node, _Unary):
            stack.append(node.a)
    both_jets = []
    real_mul = Jet2.__mul__

    def counted(self, other):
        both_jets.append(isinstance(other, Jet2))
        return real_mul(self, other)

    monkeypatch.setattr(Jet2, "__mul__", counted)
    g.jet_blocks(curved.chart.samples(4, seed=1))
    assert sum(both_jets) == products > 0
    assert len(both_jets) > products  # the constant operands, as scalars
