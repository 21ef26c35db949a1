"""The line-factor submersion: fundamental tensors and curvature relations.

Frozen values exercised here (n = 1 throughout, so 2n + 1 = 3):

* T applied to (xi_t, xi_t) is -2 d_t, since gbar(xi_t, xi_t) = 1 and the
  slice pairing of xi_t with itself is 1;
* the relation gbar(R(d_t, X) d_t, Y) = g_t(X, Y) + 3 eta_t(X) eta_t(Y)
  evaluates to 4 at X = Y = xi_t;
* the line-line Ricci entry is -2n - 4 = -6 on both entries;
* the slice at t reads (kappa_t - 2, mu_t) off gbar's curvature along
  xi_t, so (-2, 0) for the flat bundle at t = 0 and -1 with undefined mu
  on the Sasakian model; the symplectization fit undoes the D-homothety
  law and returns the base's (0, 0) and (1, undefined) on every slice.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metsymp.contact import fit_kappa_mu, kappa_mu_after_rescale, structure_values
from metsymp.curvature import (
    christoffel_batch,
    covariant_derivative_values,
    gram_schmidt_frame,
    ricci_components,
    riemann_components,
)
from metsymp.errors import DomainError, GeometryError
from metsymp.expressions import Const, Coord, sin
from metsymp.fields import TensorField, sup_norm
from metsymp.submersion import (
    fit_symplectization_kmu,
    oneill_A,
    oneill_T,
    slice_christoffel_batch,
    verify_currel,
    verify_fundamental_tensors,
)
from metsymp.symplectization import slice_structure

from inputs import product_inputs, slice_inputs
from loop_references import (
    assert_connection_matches_reference,
    currel_reference,
    eta_einstein_fit_reference,
    extended_slice_reeb,
    fit_kappa_mu_reference,
    fit_symplectization_kmu_reference,
    fundamental_T_field,
    ricci_rows_reference,
    sectional,
    slice_christoffel_reference,
)


def _symp(name, sas, flat):
    return sas if name == "darboux-sasakian-r3" else flat


def _connection(B, n_samples, seed=None):
    """gbar's connection data on a draw of samples."""
    return christoffel_batch(B.gbar, B.chart.samples(n_samples, seed=seed))


def _inputs(B, n_samples, seed=None):
    """gbar's connection data on a draw of samples and the base record at
    their base coordinates, what the verifiers read."""
    return product_inputs(B, B.chart.samples(n_samples, seed=seed))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_submersion_frame_orthogonality(any_entry, sasakian_symp, flat_bundle_symp):
    """The gbar-orthonormal frame seeded by xi_t and d_t, the per-sample frame
    of the Ricci rows: d_t is its second row, and the other rows are
    gbar-orthogonal to it, so they are tangent to the slice."""
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    et = np.eye(4)[B.t_index]
    pts = B.chart.samples(5)
    seeds = np.stack([extended_slice_reeb(B.base, B.chart).values(pts),
                      np.broadcast_to(et, (5, 4))], axis=1)
    gv = B.gbar.values(pts)
    for gmat, frame in zip(gv, gram_schmidt_frame(gv, seeds, pts)):
        assert_allclose(frame @ gmat @ frame.T, np.eye(4), atol=1e-12)
        assert_allclose(frame[1], et, atol=1e-12)
        vertical = np.delete(frame, 1, axis=0)
        assert np.max(np.abs(vertical @ gmat @ et)) < 1e-10


# ---------------------------------------------------------------------------
# fundamental tensors
# ---------------------------------------------------------------------------


def test_a_tensor_vanishes(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    pts = B.chart.samples(100)
    data = christoffel_batch(B.gbar, pts)
    coords = [TensorField.coordinate_vector(B.chart, i) for i in range(4)]
    worst = 0.0
    for E1 in coords:
        for E2 in coords:
            worst = max(worst, float(np.max(np.abs(oneill_A(B, E1, E2, pts, data)))))
    assert worst < 1e-8


def test_T_of_reeb_pair_is_minus_two_dt(flat_bundle_symp):
    B = flat_bundle_symp
    pts = B.chart.samples(20)
    tf = fundamental_T_field(B)
    tv = tf.values(pts)
    xit = extended_slice_reeb(B.base, B.chart).values(pts)
    got = np.einsum("nkab,na,nb->nk", tv, xit, xit)
    expected = np.zeros_like(got)
    expected[:, 3] = -2.0
    assert np.max(np.abs(got - expected)) < 1e-12


def test_T_on_distribution_vectors_is_the_vector(flat_bundle_symp):
    """T applied to (X, d_t) returns X for X in the contact distribution."""
    B = flat_bundle_symp
    S = B.base
    pts = B.chart.samples(20)
    tf = fundamental_T_field(B).values(pts)
    ev = S.eta.values(pts[:, :3])
    xv = S.xi.values(pts[:, :3])
    for a in range(3):
        v = np.zeros((len(pts), 4))
        v[:, a] = 1.0
        v[:, :3] -= ev[:, a:a + 1] * xv   # project into the distribution
        got = np.einsum("nkab,na,b->nk", tf, v, np.eye(4)[3])
        assert np.max(np.abs(got - v)) < 1e-12


def test_closed_form_and_zero_rows(any_entry, sasakian_symp, flat_bundle_symp):
    """The closed forms hold, and T vanishes exactly on a horizontal first
    slot, which is why no residual of the verifier reads that row."""
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    rep = verify_fundamental_tensors(B, *_inputs(B, 100))
    assert rep["vertical_pair"] < 1e-7
    assert rep["mixed_pair"] < 1e-7
    pts = B.chart.samples(20)
    data = christoffel_batch(B.gbar, pts)
    dt = TensorField.coordinate_vector(B.chart, B.t_index)
    for b in range(B.chart.dim):
        E2 = TensorField.coordinate_vector(B.chart, b)
        assert not oneill_T(B, dt, E2, pts, data).any()


def test_oneill_definition_matches_closed_form_pointwise(sasakian_symp):
    B = sasakian_symp
    pts = B.chart.samples(10)
    data = christoffel_batch(B.gbar, pts)
    tf = fundamental_T_field(B).values(pts)
    coords = [TensorField.coordinate_vector(B.chart, i) for i in range(4)]
    for a in range(4):
        for b in range(4):
            direct = oneill_T(B, coords[a], coords[b], pts, data)
            assert np.max(np.abs(direct - tf[:, :, a, b])) < 1e-10


def _oneill_by_pairs(B, E1, E2, pts, data, horizontal_e1):
    """Reference: T (or A) on one pair straight from the definition.

    E2 is split symbolically into its vertical and horizontal fields, both
    parts are differentiated along the projected E1, and the results are
    projected again.  Nothing here uses tensoriality.
    """
    D, ti = B.chart.dim, B.t_index
    s = Const(0.0)
    for c in range(D):
        s = s + B.gbar.components[c, ti] * E2.components[c]
    s = s / B.gbar.components[ti, ti]
    vertical = E2.components.copy()
    vertical[ti] = E2.components[ti] - s
    horizontal = np.full(D, Const(0.0), dtype=object)
    horizontal[ti] = s

    def project(vecs, onto_line):
        coeff = np.einsum("nc,nc->n", data.g[:, :, ti], vecs) / data.g[:, ti, ti]
        line = np.zeros_like(vecs)
        line[:, ti] = coeff
        return line if onto_line else vecs - line

    pe1 = project(E1.values(pts), horizontal_e1)
    nabla_v = covariant_derivative_values(B.gbar, TensorField(B.chart, 1, 0, vertical), pts, data)
    nabla_h = covariant_derivative_values(B.gbar, TensorField(B.chart, 1, 0, horizontal), pts, data)
    return (project(np.einsum("nkm,nm->nk", nabla_v, pe1), True)
            + project(np.einsum("nkm,nm->nk", nabla_h, pe1), False))


def _sheared(B):
    """B with a metric whose d_t is not gbar-orthogonal to the slices and
    whose |d_t| varies, so the projections have non-constant coefficients."""
    ti = B.t_index
    comps = _warped(B).gbar.components.copy()
    comps[0, ti] = comps[ti, 0] = comps[0, ti] + Const(0.1) * sin(Coord(1))
    return dataclasses.replace(B, gbar=TensorField(B.chart, 0, 2, comps, "symmetric"))


def _warped(B):
    """B with |d_t| varying and d_t still gbar-orthogonal to the slices, so
    that the A blocks of the tables are not zero."""
    ti = B.t_index
    comps = B.gbar.components.copy()
    comps[ti, ti] = comps[ti, ti] * (Const(1.5) + Const(0.3) * sin(Coord(0) * Coord(ti)))
    return dataclasses.replace(B, gbar=TensorField(B.chart, 0, 2, comps, "symmetric"))


@pytest.mark.parametrize("warp", [False, True])
def test_tables_match_the_definition_pair_by_pair(any_entry, warp, sasakian_symp,
                                                  flat_bundle_symp):
    """Coordinate pairs, and pairs of non-coordinate fields, which pins the
    tensoriality that the contraction of the tables relies on; the warped
    metric pins the A blocks where they are not zero."""
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    if warp:
        B = _warped(B)
    pts = B.chart.samples(20, seed=7)
    data = christoffel_batch(B.gbar, pts)
    x0, x1, t = Coord(0), Coord(1), Coord(B.t_index)
    wavy = TensorField.vector(B.chart, [x1 * t, sin(x0), Const(1.0), Const(1.0)])
    fields = [TensorField.coordinate_vector(B.chart, i) for i in range(4)]
    fields += [extended_slice_reeb(B.base, B.chart), wavy]
    largest_a = 0.0
    for E1 in fields:
        for E2 in fields:
            for got, horizontal_e1 in ((oneill_T(B, E1, E2, pts, data), False),
                                       (oneill_A(B, E1, E2, pts, data), True)):
                want = _oneill_by_pairs(B, E1, E2, pts, data, horizontal_e1)
                assert_allclose(got, want, rtol=0, atol=1e-12)
                if horizontal_e1:
                    largest_a = max(largest_a, float(np.max(np.abs(got))))
    assert (largest_a > 0.1) if warp else (largest_a == 0.0)


def test_a_metric_with_d_t_off_the_slices_is_rejected_by_name(any_entry, sasakian_symp,
                                                              flat_bundle_symp):
    B = _sheared(_symp(any_entry.name, sasakian_symp, flat_bundle_symp))
    pts = B.chart.samples(4, seed=7)
    data = christoffel_batch(B.gbar, pts)
    dt = TensorField.coordinate_vector(B.chart, B.t_index)
    named = re.escape("gbar[3, 0] is not structurally zero: d_t is not orthogonal to the slices")
    values = structure_values(B.base, pts[:, :-1])
    for call in (lambda: verify_fundamental_tensors(B, data, values),
                 lambda: oneill_T(B, dt, dt, pts, data), lambda: oneill_A(B, dt, dt, pts, data)):
        with pytest.raises(GeometryError, match=named):
            call()


def test_sheared_connection_and_curvature_match_the_einsum_reference(any_entry, sasakian_symp,
                                                                    flat_bundle_symp):
    B = _sheared(_symp(any_entry.name, sasakian_symp, flat_bundle_symp))
    assert_connection_matches_reference(B.gbar, B.chart.samples(20, seed=7))


def test_each_key_moves_under_an_orthogonal_perturbation(any_entry, sasakian_symp,
                                                         flat_bundle_symp):
    """The base block of gbar times 1 + 0.1 t x0 keeps d_t orthogonal to the
    slices and moves both keys of the fundamental tensors and the three
    curvature relations past 1e-3 (the Ricci rows that follow them have
    their own test below, with a doubled line metric).  A factor of t
    alone leaves ``horizontal_part`` at roundoff: both sides of that relation
    are linear in g_t, which the verifier reads from gbar's base block, so a
    factor that is constant on each slice scales them alike."""
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    ti = B.t_index
    comps = B.gbar.components.copy()
    comps[:ti, :ti] *= Const(1.0) + Const(0.1) * Coord(ti) * Coord(0)
    wrong = dataclasses.replace(B, gbar=TensorField(B.chart, 0, 2, comps, "symmetric"))
    inputs = _inputs(wrong, 20, seed=3)
    rep = {**verify_fundamental_tensors(wrong, *inputs), **verify_currel(wrong, *inputs)}
    assert list(rep)[:5] == ["vertical_pair", "mixed_pair", "vertical_part", "horizontal_part",
                             "radial_relation"]
    assert min(list(rep.values())[:5]) > 1e-3


def test_fundamental_tensors_reject_a_wrong_metric(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    ti = B.t_index
    comps = B.gbar.components.copy()
    comps[ti, ti] = Const(2.0) * comps[ti, ti]
    wrong = dataclasses.replace(B, gbar=TensorField(B.chart, 0, 2, comps, "symmetric"))
    assert verify_fundamental_tensors(wrong, *_inputs(wrong, 20, seed=3))["vertical_pair"] > 1e-3


# ---------------------------------------------------------------------------
# curvature relations
# ---------------------------------------------------------------------------


def test_curvature_relations(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    rep = verify_currel(B, *_inputs(B, 60))
    assert sup_norm(*rep.values()) < 1e-6


def test_curvature_relations_on_random_rescale(flat_bundle):
    from metsymp.contact import d_homothety
    from metsymp.symplectization import build_metric_symplectization

    a = float(np.random.default_rng(31).uniform(0.5, 3.0))
    B = build_metric_symplectization(d_homothety(flat_bundle, a))
    assert sup_norm(*verify_currel(B, *_inputs(B, 30)).values()) < 1e-6
    assert sup_norm(*verify_fundamental_tensors(B, *_inputs(B, 20)).values()) < 1e-7


def test_sectional_curvatures_of_line_planes(any_entry, sasakian_symp, flat_bundle_symp):
    """Plane curvatures forced by the radial relation, entry-independent.

    With K(U, V) = gbar(R(U,V)V, U)/area^2 and the radial relation, the
    plane spanned by d_t and a unit distribution vector has K = -1, and
    the (d_t, xi_t) plane has K = -(1 + 3) = -4.
    """
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    xit_field = extended_slice_reeb(B.base, B.chart)
    ev_field = B.base.eta
    for p in B.chart.samples(5):
        gmat = B.gbar.values(p)
        et = np.zeros(4)
        et[3] = 1.0
        xit = xit_field.values(p)
        assert_allclose(sectional(B.gbar, et, xit, p), -4.0, atol=1e-10)
        # a unit vector in the contact distribution of the slice
        ev = ev_field.values(p[:3])
        xv = B.base.xi.values(p[:3])
        v3 = np.eye(3)[0] - ev[0] * xv
        v = np.zeros(4)
        v[:3] = v3 / np.sqrt(float(v3 @ (B.base.g.values(p[:3]) @ v3))) \
            * np.exp(-p[3])
        assert_allclose(float(v @ gmat @ v), 1.0, atol=1e-12)
        assert_allclose(sectional(B.gbar, et, v, p), -1.0, atol=1e-10)


def test_radial_relation_value_at_reeb(flat_bundle_symp):
    """gbar(R(d_t, xi_t) d_t, xi_t) = g_t(xi_t, xi_t) + 3 = 4."""
    B = flat_bundle_symp
    pts = B.chart.samples(15)
    data = christoffel_batch(B.gbar, pts)
    riem = riemann_components(data)
    rlow = np.einsum("nel,nlkij->nekij", data.g, riem)
    xit = extended_slice_reeb(B.base, B.chart).values(pts)
    et = np.zeros((len(pts), 4))
    et[:, 3] = 1.0
    val = np.einsum("nekij,ne,nk,ni,nj->n", rlow, xit, et, et, xit)
    assert_allclose(val, 4.0, atol=1e-10)


def test_degenerate_relation_by_antisymmetry(flat_bundle_symp):
    """gbar(R(d_a, d_b) d_t, d_t) = 0: R(X, Y) is gbar-skew, so it pairs a
    repeated argument to zero."""
    B = flat_bundle_symp
    data = christoffel_batch(B.gbar, B.chart.samples(10))
    riem = riemann_components(data)
    ti = B.t_index
    pairing = np.einsum("nl,nlab->nab", data.g[:, ti, :], riem[:, :, ti])
    assert_allclose(pairing, 0.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Ricci rows
# ---------------------------------------------------------------------------


def test_ricci_rows(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    rep = verify_currel(B, *_inputs(B, 50))
    assert rep["line_line"] < 1e-6       # Ric(d_t, d_t) = -6 for n = 1
    assert rep["reeb_line"] < 1e-7
    assert rep["reeb_reeb"] < 1e-6
    assert rep["distribution_block"] < 1e-6
    assert rep["distribution_reeb"] < 1e-6
    assert rep["distribution_line"] < 1e-6


def test_line_ricci_is_minus_six_directly(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(any_entry.name, sasakian_symp, flat_bundle_symp)
    ric = ricci_components(riemann_components(_connection(B, 30)))
    assert np.max(np.abs(ric[:, 3, 3] + 6.0)) < 1e-9


# ---------------------------------------------------------------------------
# the slice nullity fit
# ---------------------------------------------------------------------------


def test_slice_fit_flat_bundle_at_zero(flat_bundle_symp):
    """On the slice t = 0 alone the fit reads the slice constants (-2, 0)
    as the base's (0, 0)."""
    S = flat_bundle_symp.base
    rep = fit_symplectization_kmu(flat_bundle_symp,
                                  *slice_inputs(flat_bundle_symp, (0.0,), S.chart.samples(40)))
    assert_allclose([rep.kappa, rep.mu], [0.0, 0.0], atol=1e-9)
    assert rep.residual < 1e-9
    assert not rep.sasakian_flag and abs(rep.lam - 1.0) < 1e-9


def test_slice_fit_tracks_the_rescale_law(flat_bundle_symp):
    """Each slice obeys the D-homothety law at its own factor exp(2t), so
    the fit on any one slice, and on all of them at once, reads the same
    base constants."""
    B = flat_bundle_symp
    base = B.base.chart.samples(30)
    for ts in ((-0.5,), (0.0,), (0.5,), (-0.5, 0.0, 0.5)):
        rep = fit_symplectization_kmu(B, *slice_inputs(B, ts, base))
        assert abs(rep.kappa) < 1e-5 and abs(rep.mu) < 1e-5
        assert rep.residual < 1e-5


def test_slice_fit_sasakian(sasakian_symp):
    S = sasakian_symp.base
    rep = fit_symplectization_kmu(sasakian_symp,
                                  *slice_inputs(sasakian_symp, (0.0,), S.chart.samples(30)))
    assert abs(rep.kappa - 1.0) < 1e-9
    assert rep.mu is None and rep.lam is None and rep.sasakian_flag


# ---------------------------------------------------------------------------
# the rigidity hypothesis
# ---------------------------------------------------------------------------


def test_rigidity_hypothesis_fails_on_flat_bundle(flat_bundle_symp):
    """Ric + (2n+4) dt (x) dt, the form whose vanishing the rigidity statement
    assumes, does not vanish on the flat bundle's symplectization."""
    B = flat_bundle_symp
    ric = ricci_components(riemann_components(_connection(B, 20)))
    ric[:, B.t_index, B.t_index] += 2.0 * B.base.n + 4.0
    assert np.max(np.abs(ric)) > 1e-3
    # mu = 0 = 2 - 2n: the slice at t = 0 is eta-Einstein
    assert eta_einstein_fit_reference(slice_structure(B, 0.0), 20)[2] < 1e-6
    # the slice at t = 0.4 is a D-homothety of it with mu != 0, and is not
    assert eta_einstein_fit_reference(slice_structure(B, 0.4), 20)[2] > 1e-3


# ---------------------------------------------------------------------------
# the batched verifiers against their per-index loops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["flat_bundle_symp", "sasakian_symp", "curved_symp"])
def test_batched_verifiers_match_the_loop_references(which, request):
    B = request.getfixturevalue(which)
    rep = verify_currel(B, *_inputs(B, 15, seed=4))
    want = currel_reference(B, 15, seed=4) + ricci_rows_reference(B, 15, seed=4)
    got = (rep["vertical_part"], rep["horizontal_part"], rep["radial_relation"],
           rep["distribution_block"], rep["distribution_reeb"], rep["distribution_line"],
           rep["reeb_line"], rep["reeb_reeb"], rep["line_line"])
    assert len(rep) == len(got)
    assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("which", ["flat_bundle_symp", "sasakian_symp", "curved_symp",
                                   "sasakian7_symp"])
def test_the_slice_connection_is_the_base_block_of_gbar_bit_for_bit(which, request):
    """The base block of gbar = g_t + dt^2 holds the nodes of g_t, so its
    restricted connection data equal those of g_t's own walk bit for bit."""
    B = request.getfixturevalue(which)
    pts = B.chart.samples(12, seed=5)
    got = slice_christoffel_batch(christoffel_batch(B.gbar, pts))
    want = slice_christoffel_reference(B, pts)
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
    assert np.array_equal(riemann_components(got), riemann_components(want))


@pytest.mark.parametrize("which", ["flat_bundle_symp", "sasakian_symp", "curved_symp",
                                   "sasakian7_symp"])
def test_the_shared_nullity_fit_matches_both_reference_fits(which, request):
    """fit_kappa_mu, through contact.nullity_fit, gives the constants of its
    former body bit for bit.  fit_symplectization_kmu fits one family over
    a draw across the t range; the D-homothety law at exp(2t) takes its
    base (kappa, mu) to the constants that the per-slice fit, at each of
    four slices, reads as (kappa_t - 2, mu_t)."""
    B = request.getfixturevalue(which)
    rep = fit_kappa_mu(B.base, 12, seed=2)
    kappa, mu, residual = fit_kappa_mu_reference(B.base, 12, seed=2)
    assert (rep.kappa, rep.mu) == (kappa, mu)
    assert abs(rep.residual - residual) <= 1e-15
    fit = fit_symplectization_kmu(B, *product_inputs(B, B.chart.samples(12, seed=2)))
    assert fit.residual < 1e-9 and fit.sasakian_flag == rep.sasakian_flag
    for t in (-0.5, 0.0, 0.5, 0.9):
        kt, mt = kappa_mu_after_rescale(fit.kappa, fit.mu, math.exp(2.0 * t))
        want_kappa, want_mu, want_residual = fit_symplectization_kmu_reference(B, t, 12, seed=2)
        assert abs(kt - 2.0 - want_kappa) < 1e-9
        assert (mt is None) == (want_mu is None)
        assert mt is None or abs(mt - want_mu) < 1e-9
        assert want_residual < 1e-9


def test_batched_verifiers_reject_a_doubled_line_metric(flat_bundle_symp):
    B = flat_bundle_symp
    ti = B.t_index
    comps = B.gbar.components.copy()
    comps[ti, ti] = Const(2.0) * comps[ti, ti]
    wrong = dataclasses.replace(B, gbar=TensorField(B.chart, 0, 2, comps, "symmetric"))
    rows = verify_currel(wrong, *_inputs(wrong, 20, seed=3))
    assert rows["vertical_part"] > 1e-3
    assert rows["distribution_block"] > 1e-3
    assert rows["reeb_reeb"] > 1e-3
    assert rows["line_line"] > 1e-3


def test_the_nullity_fits_evaluate_h_once(flat_bundle, flat_bundle_symp, monkeypatch):
    """Both fits take the norm of h from the values they already hold, and
    the symplectization fit reads h from its record, formed once for all
    the slices its samples lie on: one order-1 walk of phi per draw."""
    calls = []
    real = TensorField._evaluate

    def counting(self, points, order):
        if self is flat_bundle.phi:
            assert order == 1
            calls.append(len(points))
        return real(self, points, order)

    monkeypatch.setattr(TensorField, "_evaluate", counting)
    fit_kappa_mu(flat_bundle, 10, seed=1)
    assert calls == [10]
    inputs = slice_inputs(flat_bundle_symp, (-0.5, 0.0, 0.3), flat_bundle.chart.samples(4, seed=1))
    assert calls == [10, 12]
    fit_symplectization_kmu(flat_bundle_symp, *inputs)
    assert calls == [10, 12]


def test_a_slice_outside_the_t_interval_is_a_domain_error(flat_bundle, flat_bundle_symp):
    """As for slice_structure: the fit names the t outside B's t interval
    of the first sample that lies there."""
    inputs = slice_inputs(flat_bundle_symp, (0.0, 1.5), flat_bundle.chart.samples(4, seed=1))
    with pytest.raises(DomainError, match=re.escape("slice parameter 1.5 outside [-1.0, 1.0]")):
        fit_symplectization_kmu(flat_bundle_symp, *inputs)
