"""Curvature engine: classical oracles, symmetries, and the FD cross-check.

The frozen expected values below come from independent computations: the
round unit 2-sphere has connection coefficient Gamma^theta_phiphi =
-sin(theta) cos(theta) (so -1/2 at theta = pi/4), sectional curvature +1
and Ricci equal to the metric; the finite-difference oracle re-derives the
connection and curvature from metric values alone.
"""

import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from metsymp import curvature
from metsymp.charts import Chart
from metsymp.contact import kmu_fit, verify_kmu_curvature
from metsymp.curvature import (
    _symmetric_cond,
    christoffel_batch,
    covariant_derivative_values,
    gram_schmidt_frame,
    ricci_components,
    riemann_along,
    riemann_components,
)
from metsymp.errors import DegenerateMetricError, GeometryError
from metsymp.expressions import Const, Coord, sin, sqrt
from metsymp.fields import TensorField
from metsymp.structfile import load_structure_file
from metsymp.submersion import slice_christoffel_batch

from fd_oracle import fd_christoffel, fd_riemann
from inputs import field_walks, kmu_inputs
from loop_references import (
    assert_connection_matches_reference,
    dgamma_reference,
    gram_schmidt_frame_reference,
    lie_bracket_loop,
    ricci_frame_trace,
    riemann_reference,
    sectional,
)


@pytest.fixture(scope="module")
def sphere():
    chart = Chart(("theta", "phi"), ((0.4, 2.7), (-3.0, 3.0)), sampler_seed=3)
    th = Coord(0, "theta")
    g = TensorField(chart, 0, 2,
                    [[Const(1.0), Const(0.0)], [Const(0.0), sin(th) * sin(th)]],
                    "symmetric")
    return chart, g


@pytest.fixture(scope="module")
def flat3():
    chart = Chart(("x", "y", "z"), ((-2, 2),) * 3, sampler_seed=4)
    comps = np.empty((3, 3), dtype=object)
    comps[...] = Const(0.0)
    for i in range(3):
        comps[i, i] = Const(1.0)
    return chart, TensorField(chart, 0, 2, comps, "symmetric")


def test_flat_metric_has_zero_connection_and_curvature(flat3):
    chart, g = flat3
    data = christoffel_batch(g, chart.samples(20))
    assert np.max(np.abs(data.gamma)) == 0.0
    assert np.max(np.abs(riemann_components(data))) == 0.0
    assert np.max(np.abs(ricci_components(riemann_components(data)))) == 0.0


def test_christoffel_symmetry(sphere, sasakian):
    chart, g = sphere
    data = christoffel_batch(g, chart.samples(30))
    assert np.max(np.abs(data.gamma - np.swapaxes(data.gamma, 2, 3))) < 1e-14
    data = christoffel_batch(sasakian.g, sasakian.chart.samples(30))
    assert np.max(np.abs(data.gamma - np.swapaxes(data.gamma, 2, 3))) < 1e-14


def test_sphere_connection_value(sphere):
    chart, g = sphere
    p = np.array([np.pi / 4, 0.3])
    data = christoffel_batch(g, p[None])
    assert_allclose(data.gamma[0, 0, 1, 1], -0.5, atol=1e-13)
    assert_allclose(fd_christoffel(g, p)[0, 1, 1], -0.5, atol=1e-6)


def test_sphere_sectional_and_ricci(sphere):
    chart, g = sphere
    for p in chart.samples(10):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0 / np.sin(p[0])])
        assert_allclose(sectional(g, e1, e2, p), 1.0, atol=1e-12)
        riem = riemann_components(christoffel_batch(g, p[None]))[0]
        val = float(e1 @ g.values(p) @ np.einsum("lkij,k,i,j->l", riem, e2, e1, e2))
        assert_allclose(val, 1.0, atol=1e-12)
    data = christoffel_batch(g, chart.samples(25))
    assert np.max(np.abs(ricci_components(riemann_components(data)) - data.g)) < 1e-12


def test_riemann_antisymmetry_and_pair_symmetry(any_entry):
    S = any_entry.structure
    pts = S.chart.samples(60)
    data = christoffel_batch(S.g, pts)
    riem = riemann_components(data)
    low = np.einsum("nel,nlkij->nekij", data.g, riem)   # g(R(d_i,d_j)d_k, d_e)
    assert np.max(np.abs(low + np.einsum("nekij->nekji", low))) < 1e-9
    assert np.max(np.abs(low + np.einsum("nkeij->nekij", low))) < 1e-9
    # pair symmetry: g(R(d_i,d_j)d_k, d_e) = g(R(d_k,d_e)d_i, d_j)
    swapped = np.einsum("njike->nekij", low)
    assert np.max(np.abs(low - swapped)) < 1e-9


def _first_bianchi_residual(g, pts):
    """Largest component of R(X,Y)Z + R(Y,Z)X + R(Z,X)Y over coordinate triples."""
    riem = riemann_components(christoffel_batch(g, pts))
    cyclic = (riem
              + np.einsum("nlijk->nlkij", riem)    # R(d_j, d_k) d_i along d_l
              + np.einsum("nljki->nlkij", riem))   # R(d_k, d_i) d_j along d_l
    return np.max(np.abs(cyclic))


def test_first_bianchi(flat3, any_entry, sasakian_symp):
    chart, g = flat3
    assert _first_bianchi_residual(g, chart.samples(10)) == 0.0
    S = any_entry.structure
    assert _first_bianchi_residual(S.g, S.chart.samples(100)) < 1e-8
    B = sasakian_symp
    assert _first_bianchi_residual(B.gbar, B.chart.samples(100)) < 1e-8


def test_metric_compatibility_and_torsion_free(any_entry):
    S = any_entry.structure
    pts = S.chart.samples(100)
    data = christoffel_batch(S.g, pts)
    nabla_g = covariant_derivative_values(S.g, data)
    assert np.max(np.abs(nabla_g)) < 1e-9

    chart = S.chart
    x, y = Coord(0, chart.coord_names[0]), Coord(1, chart.coord_names[1])
    X = TensorField.vector(chart, [y, Const(1.0), x * y])
    Y = TensorField.vector(chart, [Const(0.5), x, Const(1.0) + y * y])
    bracket = lie_bracket_loop(X, Y)
    pts = pts[:10]
    data = christoffel_batch(S.g, pts)
    # nabla_X Y - nabla_Y X - [X, Y], the derivative slot contracted with the vector
    torsion = (np.einsum("nkm,nm->nk", covariant_derivative_values(Y, data), X.values(pts))
               - np.einsum("nkm,nm->nk", covariant_derivative_values(X, data), Y.values(pts))
               - bracket.values(pts))
    assert np.max(np.abs(torsion)) < 1e-9


def test_covariant_derivative_of_scalar_is_directional(sasakian):
    chart = sasakian.chart
    x, y = Coord(0, "x"), Coord(1, "y")
    f = TensorField.from_scalar(chart, x * x * y + sin(y))
    p = chart.samples(1)[0]
    X = np.array([0.3, -1.0, 2.0])
    got = covariant_derivative_values(f, christoffel_batch(sasakian.g, p[None]))[0] @ X
    jets = TensorField.from_scalar(chart, x * x * y + sin(y)).jet_blocks(p[None, :])
    assert_allclose(got, float(jets[1][0] @ X), atol=1e-13)


def test_covariant_derivative_reads_first_partials_only(sasakian, monkeypatch):
    """nabla T needs T's values and first partials: one order-1 walk of T,
    and with the connection given, no other walk."""
    pts = sasakian.chart.samples(6, seed=1)
    data = christoffel_batch(sasakian.g, pts)
    walks = field_walks(monkeypatch)
    covariant_derivative_values(sasakian.phi, data)
    assert [(field, order) for field, order, _ in walks] == [(sasakian.phi, 1)]


def test_ricci_frame_trace_agrees_with_contraction(any_entry):
    S = any_entry.structure
    data = christoffel_batch(S.g, S.chart.samples(5))
    ric = ricci_components(riemann_components(data))
    assert np.max(np.abs(ricci_frame_trace(data) - ric)) < 1e-9


def test_ricci_symmetry(any_entry):
    S = any_entry.structure
    ric = ricci_components(riemann_components(christoffel_batch(S.g, S.chart.samples(50))))
    assert np.max(np.abs(ric - np.swapaxes(ric, 1, 2))) < 1e-9


def test_sectional_rejects_dependent_arguments(sphere):
    chart, g = sphere
    p = chart.samples(1)[0]
    with pytest.raises(GeometryError):
        sectional(g, np.array([1.0, 0.0]), np.array([2.0, 0.0]), p)


def test_sectional_ignores_the_scale_of_its_arguments(sasakian):
    p = sasakian.chart.samples(1, seed=5)[0]
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    unscaled = sectional(sasakian.g, e1, e2, p)
    for scale in (1e-3, 1e3):
        assert_allclose(sectional(sasakian.g, scale * e1, scale * e2, p), unscaled, rtol=1e-12)


def test_sectional_rejects_a_nan_argument(sasakian):
    p = sasakian.chart.samples(1, seed=5)[0]
    with pytest.raises(GeometryError):
        sectional(sasakian.g, np.array([np.nan, 0.0, 0.0]), np.eye(3)[1], p)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_degenerate_metric_rejected():
    chart = Chart(("x", "y"), ((-1, 1), (-1, 1)))
    comps = np.empty((2, 2), dtype=object)
    comps[...] = Const(0.0)
    comps[0, 0] = Const(1.0)
    g = TensorField(chart, 0, 2, comps, "symmetric")
    with pytest.raises(DegenerateMetricError):
        christoffel_batch(g, np.array([[0.0, 0.0]]))

    # nearly singular at any scale, and NaN where x < 0
    comps[0, 0] = Const(1e-8)
    comps[1, 1] = Const(1e-21)
    with pytest.raises(DegenerateMetricError, match="nearly singular"):
        christoffel_batch(TensorField(chart, 0, 2, comps, "symmetric"), np.array([[0.0, 0.0]]))
    x = Coord(0, "x")
    comps[1, 1] = sqrt(x) / sqrt(x)
    with pytest.raises(DegenerateMetricError, match="not finite"):
        christoffel_batch(TensorField(chart, 0, 2, comps, "symmetric"), np.array([[-0.5, 0.0]]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_metric_rejection_names_the_sample_as_every_batch_check_does():
    chart = Chart(("x", "y"), ((-1, 1), (-1, 1)))
    x = Coord(0, "x")
    comps = np.empty((2, 2), dtype=object)
    comps[...] = Const(0.0)
    comps[0, 0] = Const(1.0)
    comps[1, 1] = sqrt(x) / sqrt(x)
    g = TensorField(chart, 0, 2, comps, "symmetric")
    with pytest.raises(DegenerateMetricError,
                       match=re.escape("metric is not finite at sample 1 [-0.5, 0.25]")):
        christoffel_batch(g, np.array([[0.5, 0.0], [-0.5, 0.25], [-0.7, 0.0]]))
    comps[1, 1] = x * 1e-13 + Const(1e-13)
    with pytest.raises(DegenerateMetricError,
                       match=r"metric is nearly singular \(.*\) at sample 0 \[0\.5, 0\.0\]"):
        christoffel_batch(TensorField(chart, 0, 2, comps, "symmetric"), np.array([[0.5, 0.0]]))


def test_metric_guard_is_relative():
    """A uniformly tiny metric is as well conditioned as the unit one."""
    chart = Chart(("x", "y"), ((-1, 1), (-1, 1)))
    comps = np.empty((2, 2), dtype=object)
    comps[...] = Const(0.0)
    comps[0, 0] = comps[1, 1] = Const(1e-8)
    data = christoffel_batch(TensorField(chart, 0, 2, comps, "symmetric"), np.array([[0.0, 0.0]]))
    assert np.all(data.gamma == 0.0)


def test_condition_guard_matches_the_svd_condition_number():
    rng = np.random.default_rng(12)
    for dim in (2, 3, 8):
        a = rng.standard_normal((40, dim, dim))
        indefinite = a + np.swapaxes(a, 1, 2)
        definite = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(dim)
        for mats in (indefinite, definite):
            assert_allclose(_symmetric_cond(mats), np.linalg.cond(mats), rtol=1e-10)
    # a sample that is singular or not finite reads inf
    bad = np.array([[[1.0, 0.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]]])
    assert np.all(_symmetric_cond(bad) == np.inf)


def test_well_conditioned_indefinite_metric_is_accepted():
    chart = Chart(("t", "x"), ((-1, 1), (-1, 1)))
    g = TensorField(chart, 0, 2, [[Const(-1.0), Const(0.0)], [Const(0.0), Const(1.0)]],
                    "symmetric")
    data = christoffel_batch(g, chart.samples(4))
    assert np.all(data.gamma == 0.0) and np.all(riemann_components(data) == 0.0)


@pytest.mark.parametrize("c", [1e-6, 3.0, 1e6])
@pytest.mark.parametrize("which", ["sasakian", "flat_bundle", "sasakian7_symp"])
def test_connection_and_curvature_ignore_a_constant_rescale(c, which, request):
    """Gamma and the (1,3) tensor of c g are those of g, and the reference's."""
    structure = request.getfixturevalue(which)
    g = structure.gbar if which == "sasakian7_symp" else structure.g
    pts = structure.chart.samples(10, seed=4)
    data = christoffel_batch(g, pts)
    scaled = christoffel_batch(g.scale(Const(c)), pts)
    _, grads, hesses = g.jet_blocks(pts)
    want = riemann_reference(data.gamma, dgamma_reference(data.ginv, grads, hesses))
    for got, ref in ((scaled.gamma, data.gamma),
                     (riemann_components(scaled), riemann_components(data)),
                     (riemann_components(scaled), want)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fd_oracle_agreement_on_catalog_metrics(any_entry):
    S = any_entry.structure
    pts = S.chart.samples(3, seed=17)
    data = christoffel_batch(S.g, pts)
    riem = riemann_components(data)
    for k, p in enumerate(pts):
        assert np.max(np.abs(data.gamma[k] - fd_christoffel(S.g, p))) < 1e-5
        assert np.max(np.abs(riem[k] - fd_riemann(S.g, p))) < 1e-5


def _frame(gmat, seeds=()):
    """The library's frame at one point: a batch of one."""
    d = gmat.shape[-1]
    seeds = np.asarray(seeds, dtype=float).reshape(1, -1, d)
    return gram_schmidt_frame(gmat[None], seeds, np.zeros((1, d)))[0]


def test_gram_schmidt_pivots_past_null_seeds(sasakian):
    p = sasakian.chart.samples(1)[0]
    gmat = sasakian.g.values(p)
    seeds = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    frame = _frame(gmat, seeds=seeds)
    gram = frame @ gmat @ frame.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


@pytest.mark.parametrize("scale", [1e-11, 1e11])
def test_gram_schmidt_pivot_is_relative(scale, sasakian):
    """A uniformly rescaled metric s g gives the frame of g divided by sqrt(s)."""
    gmat = np.diag([1.0, 2.0, 0.25])
    assert_allclose(_frame(scale * gmat), _frame(gmat) / np.sqrt(scale), rtol=1e-12)
    gmat = sasakian.g.values(sasakian.chart.samples(1)[0])
    seeds = np.array([[0.3, 1.0, 0.5], [1.0, 0.0, 0.0]])
    assert_allclose(_frame(scale * gmat, seeds), _frame(gmat, seeds) / np.sqrt(scale),
                    rtol=1e-12)


def test_gram_schmidt_skips_nan_and_dependent_seeds(sasakian):
    gmat = sasakian.g.values(sasakian.chart.samples(1)[0])
    seeds = np.array([[np.nan, 0.0, 0.0], [1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    frame = _frame(gmat, seeds=seeds)
    assert_allclose(frame[0], seeds[1] / np.sqrt(seeds[1] @ gmat @ seeds[1]), rtol=1e-14)
    assert np.max(np.abs(frame @ gmat @ frame.T - np.eye(3))) < 1e-12


_SEED_KINDS = ("random", "zero", "nan", "dependent")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.integers(2, 7), n=st.integers(2, 6), exponent=st.integers(-6, 6),
       rng_seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_batched_frames_match_the_per_point_reference(dim, n, exponent, rng_seed, data):
    """Random SPD metrics over six decades of scale, four seeds per sample,
    each random, zero, partly NaN or a multiple of the sum of the sample's
    earlier finite seeds.  One sample holds a zero, a dependent and a NaN
    seed, so the samples skip different candidates."""
    rng = np.random.default_rng(rng_seed)
    A = rng.normal(size=(n, dim, dim))
    gmat = 10.0 ** exponent * (A @ np.swapaxes(A, 1, 2) + dim * np.eye(dim))
    kinds = data.draw(st.lists(st.lists(st.sampled_from(_SEED_KINDS), min_size=4, max_size=4),
                               min_size=n, max_size=n))
    kinds[data.draw(st.integers(0, n - 1))] = ["zero", "random", "dependent", "nan"]
    seeds = np.zeros((n, 4, dim))
    for k, row in enumerate(kinds):
        for j, kind in enumerate(row):
            if kind == "random":
                seeds[k, j] = rng.normal(size=dim)
            elif kind == "nan":
                seeds[k, j] = rng.normal(size=dim)
                seeds[k, j, rng.integers(dim)] = np.nan
            elif kind == "dependent":
                earlier = seeds[k, :j][np.isfinite(seeds[k, :j]).all(axis=1)]
                seeds[k, j] = -3.0 * earlier.sum(axis=0)
    pts = rng.normal(size=(n, dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frames = gram_schmidt_frame(gmat, seeds, pts)
    for k in range(n):
        want = gram_schmidt_frame_reference(gmat[k], seeds[k])
        assert np.max(np.abs(frames[k] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(frames[k] @ gmat[k] @ frames[k].T - np.eye(dim))) <= 1e-12


def test_an_incomplete_frame_names_its_first_sample():
    """A metric that is singular, or not finite, at one sample leaves that
    sample's frame short; the error names the first such sample."""
    pts = np.arange(12.0).reshape(4, 3)
    seeds = np.zeros((4, 1, 3))
    gmat = np.stack([np.diag([1.0, 2.0, 3.0])] * 4)
    gmat[3] = np.nan
    with pytest.raises(DegenerateMetricError, match=re.escape("at sample 3 [9.0, 10.0, 11.0]")):
        gram_schmidt_frame(gmat, seeds, pts)
    gmat[2] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(DegenerateMetricError, match=re.escape("at sample 2 [6.0, 7.0, 8.0]")):
        gram_schmidt_frame(gmat, seeds, pts)


@pytest.mark.parametrize("which", ["flat_bundle", "sasakian7_symp"])
def test_connection_and_curvature_match_the_einsum_reference(which, request):
    structure = request.getfixturevalue(which)
    g = structure.g if which == "flat_bundle" else structure.gbar
    assert_connection_matches_reference(g, structure.chart.samples(30, seed=5))


def test_a_connection_record_carries_its_riemann_tensor(any_entry, sasakian_symp):
    """``riem`` is riemann_components of the record, bit for bit, on every
    way of building one: a walk of a metric, gbar's slice restriction, and
    a replace of the blocks it was formed from."""
    r5 = load_structure_file(Path(__file__).parent / "data" / "sasakian_r5.txt")
    built = [christoffel_batch(S.g, S.chart.samples(10, seed=5))
             for S in (any_entry.structure, r5)]
    gbar = christoffel_batch(sasakian_symp.gbar, sasakian_symp.chart.samples(10, seed=5))
    built += [slice_christoffel_batch(gbar), dataclasses.replace(gbar, hess=2.0 * gbar.hess)]
    for data in built:
        assert np.array_equal(data.riem, riemann_components(data))
    assert not np.array_equal(built[-1].riem, gbar.riem)


def test_single_point_riemann_matches_the_reference_and_the_batch(sasakian7_symp):
    g = sasakian7_symp.gbar
    pts = sasakian7_symp.chart.samples(3, seed=5)
    batch = riemann_components(christoffel_batch(g, pts))
    for k, p in enumerate(pts):
        data = christoffel_batch(g, p[None])
        riem = riemann_components(data)[0]
        _, grads, hesses = g.jet_blocks(p[None])
        want = riemann_reference(data.gamma, dgamma_reference(data.ginv, grads, hesses))[0]
        assert riem.shape == (8, 8, 8, 8)
        assert np.max(np.abs(riem - want)) <= 1e-13 * np.max(np.abs(want))
        assert_allclose(riem, batch[k], rtol=0, atol=1e-13 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# R(., .)Z contracted from the metric jets
# ---------------------------------------------------------------------------

ALONG_METRICS = ["sasakian", "flat_bundle", "curved", "sasakian_r5", "sasakian7", "sasakian7_gbar"]


def _along_metric(which, request):
    """(metric, chart) of a structure's g, or of gbar for ``sasakian7_gbar`` (D = 8)."""
    if which == "sasakian_r5":
        S = load_structure_file(Path(__file__).parent / "data" / "sasakian_r5.txt")
    elif which.startswith("sasakian7"):
        B = request.getfixturevalue("sasakian7_symp")
        if which == "sasakian7_gbar":
            return B.gbar, B.chart
        S = B.base
    else:
        S = request.getfixturevalue(which)
    return S.g, S.chart


@pytest.mark.parametrize("which", ALONG_METRICS)
def test_riemann_along_is_the_full_tensor_contracted(which, request):
    g, chart = _along_metric(which, request)
    data = christoffel_batch(g, chart.samples(15, seed=8))
    rng = np.random.default_rng(8)
    for c in (0, 1, 3):
        Z = rng.standard_normal((15, c, chart.dim))
        want = np.einsum("nlkij,nck->nclij", riemann_components(data), Z)
        got = riemann_along(data, Z)
        assert got.shape == (15, c) + (chart.dim,) * 3
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want), initial=0.0)
        # the lowered tensor is antisymmetric in its last pair bit for bit
        assert np.array_equal(got, -np.swapaxes(got, -1, -2))


@pytest.mark.parametrize("which", ALONG_METRICS)
def test_riemann_along_rows_of_a_prefix_are_its_own(which, request):
    g, chart = _along_metric(which, request)
    pts = chart.samples(20, seed=9)
    Z = np.random.default_rng(9).standard_normal((20, 2, chart.dim))
    full = riemann_along(christoffel_batch(g, pts), Z)
    assert np.array_equal(riemann_along(christoffel_batch(g, pts[:7]), Z[:7]), full[:7])


def test_a_nan_in_one_sample_reaches_only_its_rows(sasakian7_symp):
    B = sasakian7_symp
    data = christoffel_batch(B.gbar, B.chart.samples(6, seed=10))
    Z = np.random.default_rng(10).standard_normal((6, 3, B.chart.dim))
    hess = data.hess.copy()
    hess[4, 1, 2, 0, 3] = np.nan
    got = riemann_along(dataclasses.replace(data, hess=hess), Z)
    assert np.isnan(got[4]).any()
    others = [0, 1, 2, 3, 5]
    assert np.array_equal(got[others], riemann_along(data, Z)[others])


def test_the_fits_leave_riem_unformed_and_a_read_forms_it_once(flat_bundle, monkeypatch):
    """kmu_fit and the eigenspace identities read R(., .)Z only; a record
    forms ``riem`` on its first read and keeps it."""
    values, data = kmu_inputs(flat_bundle, flat_bundle.chart.samples(12, seed=11))
    rep = kmu_fit(data, values.eta, values.xi, values.h)
    verify_kmu_curvature(values, data, rep.kappa, rep.mu)
    assert "riem" not in vars(data)
    calls = []
    real = curvature.riemann_components
    monkeypatch.setattr(curvature, "riemann_components", lambda d: calls.append(d) or real(d))
    first = data.riem
    assert data.riem is first and calls == [data]
    assert np.array_equal(first, real(data))
