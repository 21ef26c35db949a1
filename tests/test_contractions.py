"""Symbolic contractions: ``sum_of_products`` against the loops it replaced.

Every contraction builds the tree the plain loop ``total = total +- x * y``
builds, while a term with a structurally zero factor builds nothing.  The
loops are kept in ``loop_references``; the builders here must give the same
trees (node counts as the benchmark counts them) and the same values and
jets, bit for bit.

The numeric first-order operators, h = (1/2) L_xi phi from order-1 jets of
xi and phi and the torsion N(J) from order-1 jets of J, are compared with
the symbolic trees ``S.h`` and ``nijenhuis(J)`` they replace in the checks:
to 1e-13 relative on finite data, and NaN exactly where the trees are.
Their one kernel, ``fields._masked_contraction``, forms only the rows that
hold a live term; it must give the dense masked product's bits.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metsymp import expressions as E
from metsymp.contact import ContactMetricStructure, structure_values
from metsymp.expressions import ZERO, Const, Coord, Neg, sum_of_products
from metsymp.fields import (
    TensorField,
    _masked_contraction,
    exterior_derivative,
    interior_product,
    lie_derivative,
)
from metsymp.structfile import load_structure_file
from metsymp.symplectization import build_metric_symplectization, nijenhuis, nijenhuis_values

from loop_references import (
    interior_product_loop,
    lie_derivative_loop,
    masked_contraction_dense,
    natural_acs_reference,
    nijenhuis_loop,
    node_counts,
)

DATA = Path(__file__).parent / "data"
SASAKIAN_R5_PATH = DATA / "sasakian_r5.txt"


def test_sum_of_products_is_the_loop_tree():
    x, y = Coord(0, "x"), Coord(1, "y")
    assert sum_of_products([]) is ZERO
    assert isinstance(sum_of_products([(1, x, y)]), E.Mul)
    minus = sum_of_products([(-1, x, y)])
    assert isinstance(minus, Neg) and isinstance(minus.a, E.Mul)
    assert sum_of_products([(1, Const(2.0), Const(3.0)), (-1, Const(1.0), Const(0.5))]).value == 5.5
    loop = ZERO + x * y - y * y + Const(2.0) * x
    got = sum_of_products([(1, x, y), (1, ZERO, x), (-1, y, y), (1, Const(2.0), x)])
    assert repr(got) == repr(loop)


def test_a_callable_factor_is_built_only_against_a_non_zero_factor():
    x = Coord(0, "x")
    built = []

    def factor():
        built.append(1)
        return x

    def never():
        raise AssertionError("built a factor of a vanishing term")

    assert sum_of_products([(1, ZERO, never), (1, never, ZERO)]) is ZERO
    assert isinstance(sum_of_products([(1, x, lambda: ZERO), (1, factor, x)]), E.Mul)
    assert built == [1]


# ---------------------------------------------------------------------------
# the builders against their loops
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module",
                params=["sasakian", "flat_bundle", "curved", "sasakian_r5", "sasakian7"])
def structure(request):
    """A contact metric structure and its symplectization."""
    if request.param == "sasakian_r5":
        S = load_structure_file(SASAKIAN_R5_PATH)
        return S, build_metric_symplectization(S)
    if request.param == "sasakian7":
        B = request.getfixturevalue("sasakian7_symp")
        return B.base, B
    S = request.getfixturevalue(request.param)
    return S, build_metric_symplectization(S)


def _pairs(S, B):
    """(name, builder's field, loop's field) for every case compared."""
    # not constant on any of these structures (d_x1 + y1 d_z on the Sasakian ones)
    V = TensorField.vector(S.chart, S.phi.components[:, S.chart.dim // 2])
    W = TensorField.vector(S.chart, S.phi.components[:, 0])
    J_nat = natural_acs_reference(S)
    deta = exterior_derivative(S.eta)
    yield "N(B.J)", nijenhuis(B.J), nijenhuis_loop(B.J)
    yield "N(natural J)", nijenhuis(J_nat), nijenhuis_loop(J_nat)
    yield "L_xi phi", lie_derivative(S.xi, S.phi), lie_derivative_loop(S.xi, S.phi)
    yield "L_V phi", lie_derivative(V, S.phi), lie_derivative_loop(V, S.phi)
    yield "L_V g", lie_derivative(V, S.g), lie_derivative_loop(V, S.g)
    yield "L_V eta", lie_derivative(V, S.eta), lie_derivative_loop(V, S.eta)
    yield "L_V W", lie_derivative(V, W), lie_derivative_loop(V, W)
    yield "i_V d eta", interior_product(V, deta), interior_product_loop(V, deta)
    dt = TensorField.coordinate_vector(B.chart, B.t_index)
    yield "i_dt omega", interior_product(dt, B.omega), interior_product_loop(dt, B.omega)


def test_builders_give_the_loop_trees_values_and_jets(structure):
    S, B = structure
    for name, new, old in _pairs(S, B):
        assert node_counts(new.components.flat) == node_counts(old.components.flat), name
        pts = new.chart.samples(6, seed=3)
        assert np.array_equal(new.values(pts), old.values(pts)), name
        for got, want in zip(new.jet_blocks(pts), old.jet_blocks(pts)):
            assert np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# the numeric first-order operators against the symbolic trees
# ---------------------------------------------------------------------------


def _assert_matches_tree(got, want):
    """Equal to 1e-13 of the tree's largest entry (of 1 where that is
    smaller, as a torsion that vanishes is roundoff), NaN where it is."""
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    live = ~np.isnan(want)
    scale = max(1.0, float(np.max(np.abs(want[live]), initial=0.0)))
    assert np.max(np.abs(got[live] - want[live]), initial=0.0) <= 1e-13 * scale


def test_h_from_first_partials_is_the_lie_derivative_tree(structure):
    S, _ = structure
    pts = S.chart.samples(20, seed=4)
    _assert_matches_tree(structure_values(S, pts).h, S.h.values(pts))


def test_the_torsion_from_first_partials_is_the_symbolic_torsion(structure):
    S, B = structure
    pts = B.chart.samples(20, seed=4)
    for J in (B.J, natural_acs_reference(S)):
        got = nijenhuis_values(J, pts)
        _assert_matches_tree(got, nijenhuis(J).values(pts))
        assert np.array_equal(got, -np.swapaxes(got, 2, 3))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", ["nan_phi_r3.txt", "nan_eta_r3.txt"])
def test_first_partials_are_nan_exactly_where_the_trees_are(name):
    """A term with a structurally zero factor is dropped, as the trees never
    build it: NaN in phi or eta reaches h and N(J) only through the terms
    that read it, so on the NaN-phi file h stays 0."""
    S = load_structure_file(DATA / name)
    B = build_metric_symplectization(S)
    pts = B.chart.samples(20, seed=4)
    h = structure_values(S, pts[:, :-1]).h
    _assert_matches_tree(h, S.h.values(pts[:, :-1]))
    _assert_matches_tree(nijenhuis_values(B.J, pts), nijenhuis(B.J).values(pts))
    assert np.isnan(B.J.values(pts)).any()
    if name == "nan_phi_r3.txt":
        assert not h.any()


# ---------------------------------------------------------------------------
# the masked contraction against the dense product
# ---------------------------------------------------------------------------

# the callers' broadcast patterns: for x and y, whether each axis before the
# summed one is full (1) or broadcast (0)
_PATTERNS = {
    "h: xi^a d_a phi": ((0, 0), (1, 1)),
    "h: (D xi) phi and phi (D xi)": ((1, 0), (0, 1)),
    "torsion: J^a_i d_a J^k_j": ((0, 1, 0), (1, 0, 1)),
    "torsion: J^k_a d_i J^a_j": ((1, 0, 0), (0, 1, 1)),
}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(pattern=st.sampled_from(sorted(_PATTERNS)), dim=st.integers(2, 9), n=st.integers(1, 60),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(pattern="h: xi^a d_a phi", dim=3, n=6, density=0.5, seed=0)
@example(pattern="torsion: J^a_i d_a J^k_j", dim=8, n=30, density=0.05, seed=1)
def test_the_masked_contraction_is_the_dense_product_bit_for_bit(pattern, dim, n, density, seed):
    """Equal to the dense product with its NaNs and signs of zero, on small
    products (the sweep's h at (6, 3, 3, 3)) and large ones (R^7's
    torsion).  Every factor that no live term reads is NaN and never
    reaches the result; one factor that a live term reads is NaN on the
    first sample."""
    rng = np.random.default_rng(seed)
    full = _PATTERNS[pattern]
    mask = rng.random((dim,) * (len(full[0]) + 1)) < density
    operands = []
    for axes in full:
        shape = (n,) + tuple(dim if f else 1 for f in axes) + (dim,)
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        a[rng.random(shape) < 0.1] = -0.0
        read = mask.any(axis=tuple(i for i, f in enumerate(axes) if not f), keepdims=True)
        a[:, ~read] = np.nan
        operands.append(a)
    x, y = operands
    live_factors = np.argwhere(~np.isnan(y[0]))
    if len(live_factors):
        y[(0,) + tuple(live_factors[rng.integers(len(live_factors))])] = np.nan
    got = _masked_contraction(x, y, mask)
    want = masked_contraction_dense(x, y, mask)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isfinite(got[1:]).all()


def test_the_torsion_on_r7_forms_only_its_live_rows(sasakian7_symp):
    """The two contractions of J's torsion on R^7 have 26 and 11 live terms
    of the 8^4 per point: forming only their rows, the evaluation at 30
    points peaks below one dense (30, 8^4) float64 array."""
    J = sasakian7_symp.J
    pts = sasakian7_symp.chart.samples(30, seed=4)
    nijenhuis_values(J, pts)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        nijenhuis_values(J, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 8 ** 4 * np.dtype(np.float64).itemsize


# ---------------------------------------------------------------------------
# no product is built with a structurally zero factor
# ---------------------------------------------------------------------------


def _helper_products(monkeypatch):
    """The operand pairs of every ``_mul`` call made by ``sum_of_products``."""
    calls = []
    mul, helper = E._mul, E.sum_of_products.__code__

    def counted(a, b):
        if sys._getframe(1).f_code is helper:
            calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(E, "_mul", counted)
    return calls


def test_nijenhuis_multiplies_only_non_zero_factors(sasakian7_symp, monkeypatch):
    J = sasakian7_symp.J.components
    d = J.shape[0]
    live = sum(1 for k in range(d) for i in range(d) for j in range(i + 1, d) for a in range(d)
               for x, y in ((J[a, i], J[k, j].diff(a)), (J[a, j], J[k, i].diff(a)),
                            (J[k, a], J[a, i].diff(j)), (J[k, a], J[a, j].diff(i)))
               if not (x.is_zero() or y.is_zero()))
    calls = _helper_products(monkeypatch)
    nijenhuis(sasakian7_symp.J)
    # every product of the loop with two non-zero factors, and no other:
    # 26 of the loop's 4 D^2 C(D, 2) = 7,168 terms
    assert len(calls) == live == 26
    assert not any(a.is_zero() or b.is_zero() for a, b in calls)


def test_building_a_structure_multiplies_only_non_zero_factors(sasakian7_symp, monkeypatch):
    S = sasakian7_symp.base
    calls = _helper_products(monkeypatch)
    ContactMetricStructure.build(S.chart, S.eta, S.g, S.phi)
    assert calls
    assert not any(a.is_zero() or b.is_zero() for a, b in calls)
