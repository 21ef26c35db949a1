"""The metric symplectization: construction, slices, integrability.

Worked values pinned here: the line direction is unit and orthogonal to
every slice; the almost complex structure acts by the three-case table;
the slice at t equals the rescale by exp(2t) componentwise, and the
structure the ambient data induce on it; the Cartan
evaluation of the expansion property holds for the line coordinate field
exactly, while the plain tensor Lie derivative of the form along it is
twice the form (the factor that the exp(2t) weight forces); and the
torsions of both almost complex structures vanish precisely on the
Sasakian entry.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metsymp.catalog import CatalogEntry, catalog_load
from metsymp.charts import Chart
from metsymp.contact import (
    COMPAT_TOL,
    ContactMetricStructure,
    _rescaled_metric,
    d_homothety,
    verify_compatibility,
)
from metsymp.errors import DomainError, GeometryError
from metsymp.expressions import ONE, Const, Coord, sqrt
from metsymp.fields import (
    SmoothMap,
    TensorField,
    interior_product,
    lie_derivative,
    pullback,
    sup_norm,
    wedge,
)
from metsymp.symplectization import (
    SYMPLECTIC_TOL,
    _exp_t,
    _top_coefficient_abs,
    build_metric_symplectization,
    extend_to_product,
    extended_slice_form,
    lifted_values,
    natural_acs,
    nijenhuis,
    nijenhuis_norms,
    slice_form_values,
    slice_structure,
    translation_isomorphism_check,
    verify_liouville,
    verify_symplectic,
    verify_symplectization_build,
)
from metsymp.structfile import load_structure_file, parse_structure_text
from metsymp.suite import SuiteConfig, run_suite

from loop_references import (
    compatible_metric_reference,
    extended_slice_reeb,
    induced_contact_on_hypersurface,
    nijenhuis_norms_reference,
    slice_embedding,
    symplectic_top_reference,
    translation_isomorphism_reference,
)

DATA = Path(__file__).parent / "data"
R5_PATH = DATA / "sasakian_r5.txt"


def _dt(B):
    return TensorField.coordinate_vector(B.chart, B.chart.dim - 1)


def _symp(request_fixture, name, sas, flat):
    return sas if name == "darboux-sasakian-r3" else flat


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_line_direction_unit_and_orthogonal(any_entry, sasakian_symp, flat_bundle_symp):
    """gbar's t row is a one and zeros by construction; its base block is
    the slice metric and it pairs with J into omega."""
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    gv = B.gbar.values(B.chart.samples(50))
    assert np.all(gv[:, -1, -1] == 1.0) and np.all(gv[:, -1, :-1] == 0.0)
    res = verify_symplectization_build(B, 50)
    assert res["slice_block"] < 1e-10
    assert res["omega_pairing"] < 1e-10


def test_the_line_coordinate_takes_the_first_free_name():
    """t, else t1, t2, ...: the R^3 model with coordinates named t, t1 and z."""
    S = parse_structure_text("""
chart t [-1.5, 1.5]
chart t1 [-1.5, 1.5]
chart z [-1.5, 1.5]
eta t = -t1
eta z = 1
g t t = 1/2 + t1^2
g t z = -t1
g t1 t1 = 1/2
g z z = 1
phi t t1 = 1
phi t1 t = -1
phi z t1 = t1
""")
    B = build_metric_symplectization(S, (-0.5, 0.5))
    assert B.chart.coord_names == ("t", "t1", "z", "t2")
    assert B.chart.domain[-1] == (-0.5, 0.5)
    assert natural_acs(S, (-0.5, 0.5)).chart == B.chart
    res = verify_symplectization_build(B, 20)
    assert max(res["J_xi_t"], res["J_d_t"], res["J_on_distribution"]) < 1e-10


def test_acs_three_case_table(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    res = verify_symplectization_build(B, 50)
    assert max(res["J_xi_t"], res["J_d_t"], res["J_on_distribution"]) < 1e-10


@pytest.mark.parametrize("which", ["flat_bundle_symp", "sasakian_symp", "curved_symp",
                                   "sasakian_r5", "sasakian7_symp"])
def test_slice_values_equal_the_lifted_fields_bit_for_bit(which, request):
    """Values read from the base fields equal those of the symbolic lifts,
    sign bits included."""
    if which == "sasakian_r5":
        B = build_metric_symplectization(load_structure_file(R5_PATH))
    else:
        B = request.getfixturevalue(which)
    S = B.base
    pts = B.chart.samples(20, seed=6)
    eta_t, xi_t = slice_form_values(S, pts)
    pairs = [(eta_t, extended_slice_form(S, B.chart)), (xi_t, extended_slice_reeb(S, B.chart))]
    pairs += [(lifted_values(T, pts), extend_to_product(T, B.chart))
              for T in (S.eta, S.xi, S.g, S.phi, S.h)]
    for got, field in pairs:
        want = field.values(pts)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_acs_squares_to_minus_identity(sasakian_symp):
    pts = sasakian_symp.chart.samples(40)
    jv = sasakian_symp.J.values(pts)
    sq = np.einsum("nia,naj->nij", jv, jv)
    assert np.max(np.abs(sq + np.eye(4))) < 1e-12


def test_metric_restricted_to_zero_slice_is_g(sasakian, sasakian_symp):
    emb = slice_embedding(sasakian_symp, 0.0)
    restricted = pullback(emb, sasakian_symp.gbar)
    pts = sasakian.chart.samples(30)
    assert np.max(np.abs(restricted.values(pts) - sasakian.g.values(pts))) < 1e-12


def test_uniqueness_witness(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    assert verify_symplectization_build(B, 20)["unique_acs"] < 1e-8


def test_the_build_verifier_evaluates_eta_and_xi_once(flat_bundle_symp, monkeypatch):
    """xi_t and the contact distribution share one evaluation of xi, and
    eta is evaluated once, on the base coordinates of the draw."""
    S = flat_bundle_symp.base
    calls = []
    real = TensorField.values

    def counting(self, points):
        if self is S.eta or self is S.xi:
            calls.append(("eta" if self is S.eta else "xi", points.shape))
        return real(self, points)

    monkeypatch.setattr(TensorField, "values", counting)
    verify_symplectization_build(flat_bundle_symp, 12, seed=1)
    assert sorted(calls) == [("eta", (12, 3)), ("xi", (12, 3))]


def _failing_keys(B):
    """The keys of the build verifier at or above the check's threshold; each
    failing one fails by far."""
    res = verify_symplectization_build(B, 40, seed=50)
    failing = {k for k, v in res.items() if not v < 1e-10}
    assert all(res[k] > 0.1 for k in failing)
    return failing


def test_the_build_verifier_passes_every_key(any_entry, sasakian_symp, flat_bundle_symp):
    assert _failing_keys(_symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)) == set()


def test_the_classical_acs_fails_the_table_and_the_omega_pairing(any_entry, sasakian_symp,
                                                                 flat_bundle_symp):
    """J xi = d_t and J d_t = -xi miss the exp(-+2t) weights; phi on Ker(eta) holds."""
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    B = dataclasses.replace(B, J=natural_acs(B.base, B.chart.domain[-1]))
    assert _failing_keys(B) == {"J_xi_t", "J_d_t", "omega_pairing"}


def _with_gbar(B, comps):
    return dataclasses.replace(B, gbar=TensorField(B.chart, 0, 2, comps, "symmetric"))


def test_scaled_gbar_dt_entry_fails_omega_pairing(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    comps = B.gbar.components.copy()
    comps[-1, -1] = Const(1.5) * comps[-1, -1]
    assert _failing_keys(_with_gbar(B, comps)) == {"omega_pairing"}


def test_gbar_at_the_wrong_factor_fails_the_slice_block(any_entry, sasakian_symp,
                                                        flat_bundle_symp):
    """gbar's base block as the rescale by exp(t) in place of exp(2t): the
    slices are rescales at the wrong factor."""
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    a = _exp_t(B.chart, 1.0)
    comps = _rescaled_metric(extend_to_product(B.base.g, B.chart).components,
                             extend_to_product(B.base.eta, B.chart).components,
                             a, a * (a - Const(1.0)))
    comps[-1, -1] = ONE
    assert _failing_keys(_with_gbar(B, comps)) == {"slice_block", "omega_pairing"}


def test_a_t_x_entry_of_gbar_fails_the_omega_pairing(any_entry, sasakian_symp,
                                                     flat_bundle_symp):
    """d_t no longer orthogonal to the slices."""
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    comps = B.gbar.components.copy()
    comps[-1, 0] = comps[0, -1] = Const(0.1)
    assert _failing_keys(_with_gbar(B, comps)) == {"omega_pairing"}


def test_a_perturbed_base_entry_of_j_fails_the_distribution_table(any_entry, sasakian_symp,
                                                                  flat_bundle_symp):
    """J's base block is no longer phi; the flat bundle's xi has a component
    along the second coordinate, so J xi_t moves too."""
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    comps = B.J.components.copy()
    comps[0, 1] = comps[0, 1] + Const(0.2)
    B = dataclasses.replace(B, J=TensorField(B.chart, 1, 1, comps))
    want = {"J_on_distribution", "omega_pairing"}
    if any_entry.name == "unit-tangent-flat-plane":
        want.add("J_xi_t")
    assert _failing_keys(B) == want


@pytest.mark.parametrize("seed", [0, 7, 50, 123])
def test_a_smaller_draw_is_a_prefix_of_a_larger_one(flat_bundle_symp, sasakian7_symp, seed):
    """The witness reads the first rows of the build verifier's draw; that equals
    a draw of that many samples with the same seed."""
    for chart in (flat_bundle_symp.chart, flat_bundle_symp.base.chart, sasakian7_symp.chart):
        big = chart.samples(40, seed=seed)
        for k in (1, 15, 39):
            assert chart.samples(k, seed=seed).tobytes() == big[:k].tobytes()


# ---------------------------------------------------------------------------
# symplectic checks
# ---------------------------------------------------------------------------


def test_symplectization_form_is_symplectic(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    rep = verify_symplectic(B.omega, 50)
    assert rep.closed_residual < 1e-12
    assert rep.min_top_coefficient > 1e-10


def _standard_r4():
    chart = Chart(("x", "y", "z", "w"), ((-1.5, 1.5),) * 4, sampler_seed=8)
    def cov(i):
        c = np.empty(4, dtype=object)
        c[...] = Const(0.0)
        c[i] = Const(1.0)
        return TensorField.covector(chart, c)
    omega = wedge(cov(0), cov(1)) + wedge(cov(2), cov(3))
    return chart, omega


def test_standard_r4_form_passes_and_degenerate_fails():
    chart, omega = _standard_r4()
    rep = verify_symplectic(omega, 30)
    assert rep.closed_residual < SYMPLECTIC_TOL and rep.min_top_coefficient > SYMPLECTIC_TOL
    degenerate = wedge(
        TensorField.covector(chart, [Const(1.0), Const(0.0), Const(0.0), Const(0.0)]),
        TensorField.covector(chart, [Const(0.0), Const(1.0), Const(0.0), Const(0.0)]),
    )
    rep = verify_symplectic(degenerate, 30)
    assert rep.closed_residual < SYMPLECTIC_TOL
    assert rep.min_top_coefficient < 1e-14


@pytest.mark.parametrize("which", ["sasakian_symp", "flat_bundle_symp", "curved_symp",
                                   "standard_r4", "sasakian_r5"])
def test_top_coefficient_matches_the_repeated_wedge(which, request):
    """The nondegeneracy margin from det(omega) equals the one read off omega^n."""
    if which == "standard_r4":
        omega = _standard_r4()[1]
    elif which == "sasakian_r5":
        omega = build_metric_symplectization(load_structure_file(R5_PATH)).omega
    else:
        omega = request.getfixturevalue(which).omega
    pts = omega.chart.samples(12, seed=4)
    want = np.abs(symplectic_top_reference(omega, pts))
    assert_allclose(_top_coefficient_abs(omega.values(pts)), want,
                    rtol=1e-12, atol=0)
    assert_allclose(verify_symplectic(omega, 12, seed=4).min_top_coefficient, np.min(want),
                    rtol=1e-12, atol=0)


def test_nan_two_form_fails_the_symplectic_check():
    chart, omega = _standard_r4()
    comps = np.array(omega.components)
    x = Coord(0, "x")
    comps[0, 1] = comps[0, 1] * (sqrt(x) / sqrt(x))          # NaN where x < 0
    masked = TensorField(chart, 0, 2, comps, "antisymmetric")
    with np.errstate(invalid="ignore"):
        rep = verify_symplectic(masked, 30, seed=1)
    assert math.isnan(rep.min_top_coefficient)
    assert not rep.min_top_coefficient > SYMPLECTIC_TOL


def test_odd_chart_rejected_by_symplectic_check(sasakian):
    from metsymp.fields import exterior_derivative

    with pytest.raises(GeometryError):
        verify_symplectic(exterior_derivative(sasakian.eta), 5)


# ---------------------------------------------------------------------------
# the expansion property of the line field
# ---------------------------------------------------------------------------


def test_line_field_expands_the_form(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    assert verify_liouville(B.omega, _dt(B), 50)["cartan"] < 1e-12
    # the exp(2t) weight makes the plain Lie derivative exactly twice the form
    pts = B.chart.samples(50)
    assert_allclose(lie_derivative(_dt(B), B.omega).values(pts), 2.0 * B.omega.values(pts),
                    rtol=0, atol=1e-12)


def test_doubled_line_field_fails(sasakian_symp):
    doubled = _dt(sasakian_symp).scale(Const(2.0))
    assert verify_liouville(sasakian_symp.omega, doubled, 30)["cartan"] > 1e-2


def test_radial_field_on_standard_r4():
    """The unhalved radial field satisfies d(i_Y omega) = omega here.

    Under the alternating-average normalization, i_Y omega for the
    standard form and Y = x d_x + y d_y + z d_z + w d_w is half of
    (x dy - y dx + z dw - w dz), whose d is exactly omega; the halved
    field, which satisfies the plain Lie-derivative version instead,
    fails this evaluation by the same factor two seen on the line field.
    """
    chart, omega = _standard_r4()
    x, y, z, w = (Coord(i, n) for i, n in enumerate(chart.coord_names))
    radial = TensorField.vector(chart, [x, y, z, w])
    pts = chart.samples(40)
    assert verify_liouville(omega, radial, 40)["cartan"] < 1e-12
    assert_allclose(lie_derivative(radial, omega).values(pts), 2.0 * omega.values(pts),
                    rtol=0, atol=1e-12)
    halved = radial.scale(Const(0.5))
    assert verify_liouville(omega, halved, 40)["cartan"] > 1e-3
    assert_allclose(lie_derivative(halved, omega).values(pts), omega.values(pts),
                    rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def test_zero_slice_reproduces_the_structure(sasakian, sasakian_symp):
    sl = slice_structure(sasakian_symp, 0.0)
    pts = sasakian.chart.samples(25)
    for f1, f2 in ((sl.eta, sasakian.eta), (sl.g, sasakian.g),
                   (sl.phi, sasakian.phi)):
        assert np.max(np.abs(f1.values(pts) - f2.values(pts))) < 1e-14


def test_slice_equals_rescale_componentwise(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    S = B.base
    pts = S.chart.samples(25)
    for t0 in (-0.5, 0.3):
        sl = slice_structure(B, t0)
        dh = d_homothety(S, math.exp(2.0 * t0))
        for f1, f2 in ((sl.eta, dh.eta), (sl.g, dh.g), (sl.phi, dh.phi)):
            assert np.max(np.abs(f1.values(pts) - f2.values(pts))) < 1e-10
        assert sup_norm(*verify_compatibility(sl, 30).values()) < COMPAT_TOL


def test_slice_outside_range_rejected(sasakian_symp):
    with pytest.raises(DomainError):
        slice_structure(sasakian_symp, 3.0)


# ---------------------------------------------------------------------------
# induced structures on hypersurfaces
# ---------------------------------------------------------------------------


def test_induced_structure_reproduces_slice(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    S = B.base
    emb = slice_embedding(B, 0.3)
    ind = induced_contact_on_hypersurface(B, _dt(B), emb)
    sl = slice_structure(B, 0.3)
    pts = S.chart.samples(20)
    for f1, f2 in ((ind.eta, sl.eta), (ind.g, sl.g), (ind.phi, sl.phi)):
        assert np.max(np.abs(f1.values(pts) - f2.values(pts))) < 1e-9
    assert sup_norm(*verify_compatibility(ind, 25).values()) < COMPAT_TOL
    # the metric pairing with the Reeb field reproduces the form
    gv = ind.g.values(pts)
    xv = ind.xi.values(pts)
    ev = ind.eta.values(pts)
    assert np.max(np.abs(np.einsum("nij,nj->ni", gv, xv) - ev)) < 1e-9


def test_tilted_hypersurface_fails_orthogonality(sasakian_symp):
    B = sasakian_symp
    src = B.base.chart
    x, y, z = (Coord(i, n) for i, n in enumerate(src.coord_names))
    tilted = SmoothMap(src, B.chart, (x, y, z, Const(0.1) * x))
    with pytest.raises(GeometryError):
        induced_contact_on_hypersurface(B, _dt(B), tilted)


def test_non_unit_field_rejected(sasakian_symp):
    B = sasakian_symp
    emb = slice_embedding(B, 0.0)
    with pytest.raises(GeometryError):
        induced_contact_on_hypersurface(B, _dt(B).scale(Const(2.0)), emb)


# ---------------------------------------------------------------------------
# the classical almost complex structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source", ["darboux-sasakian-r3", "unit-tangent-flat-plane",
                                    "sasakian_r5.txt", "sasakian_r7.txt", "curved"])
def test_gbar_is_the_compatible_metric_near_both_ends_of_t(source, request):
    """gbar, built from the slice law g_t + dt^2, equals the symmetrized
    omega(J ., .) of the same J and omega to roundoff, at slices near both
    ends of the t interval."""
    if source == "curved":
        S = request.getfixturevalue("curved")
    elif source.endswith(".txt"):
        S = load_structure_file(DATA / source)
    else:
        S = catalog_load(source).structure
    B = build_metric_symplectization(S)
    oracle = compatible_metric_reference(S, B.J).gbar
    lo, hi = B.chart.domain[B.t_index]
    base = S.chart.samples(10, seed=3)
    for t0 in (lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo)):
        pts = np.concatenate([base, np.full((len(base), 1), t0)], axis=1)
        want = oracle.values(pts)
        assert np.max(np.abs(B.gbar.values(pts) - want)) <= 1e-13 * np.max(np.abs(want))


def test_natural_acs_squares_to_minus_identity(sasakian):
    J = natural_acs(sasakian)
    pts = J.chart.samples(40)
    jv = J.values(pts)
    assert np.max(np.abs(np.einsum("nia,naj->nij", jv, jv) + np.eye(4))) < 1e-12


def test_natural_structure_slices_fail_compatibility_off_zero(sasakian):
    """The classical metric's slices are uniform rescalings, which break
    the Reeb pairing axiom away from t = 0; at t = 0 they pass."""
    Bn = compatible_metric_reference(sasakian, natural_acs(sasakian))
    dt = TensorField.coordinate_vector(Bn.chart, Bn.chart.dim - 1)

    def candidate(t0):
        emb = slice_embedding(Bn, t0)
        eta_c = pullback(emb, interior_product(dt, Bn.omega))
        g_raw = pullback(emb, Bn.gbar)
        g_c = TensorField(sasakian.chart, 0, 2, g_raw.components, "symmetric")
        return ContactMetricStructure.build(sasakian.chart, eta_c, g_c, sasakian.phi)

    bad = verify_compatibility(candidate(0.4), 20)
    assert not sup_norm(*bad.values()) < COMPAT_TOL
    assert bad["reeb_pairing"] > 1e-2
    good = verify_compatibility(candidate(0.0), 20)
    assert sup_norm(*good.values()) < COMPAT_TOL


def test_both_acs_agree_on_distribution_at_zero_slice(sasakian, sasakian_symp):
    Jn = natural_acs(sasakian)
    chart = sasakian_symp.chart
    base_pts = sasakian.chart.samples(20)
    pts = np.concatenate([base_pts, np.zeros((len(base_pts), 1))], axis=1)
    jm = sasakian_symp.J.values(pts)
    jn = Jn.values(pts)
    ev = sasakian.eta.values(base_pts)
    xv = sasakian.xi.values(base_pts)
    for a in range(3):
        v = np.zeros((len(pts), 4))
        v[:, a] = 1.0
        v[:, :3] -= ev[:, a:a + 1] * xv
        assert np.max(np.abs(np.einsum("nij,nj->ni", jm - jn, v))) < 1e-12


# ---------------------------------------------------------------------------
# integrability dichotomy
# ---------------------------------------------------------------------------


def test_the_committed_r7_file_is_the_fixture_structure(sasakian7_symp):
    """tests/data/sasakian_r7.txt, whose symplectization has dimension 8."""
    S = load_structure_file(DATA / "sasakian_r7.txt")
    want = sasakian7_symp.base
    assert S.chart == want.chart
    pts = want.chart.samples(20)
    for name in ("eta", "g", "phi"):
        assert_allclose(getattr(S, name).values(pts), getattr(want, name).values(pts),
                        rtol=0, atol=1e-15)
    entry = CatalogEntry(name="sasakian_r7", structure=S, expected_kappa=None,
                         expected_mu=None, description="standard Sasakian R^7")
    report = run_suite(entry, SuiteConfig(samples=10))
    assert report.passed == 16


def test_torsion_antisymmetry(flat_bundle_symp):
    N = nijenhuis(flat_bundle_symp.J)
    pts = flat_bundle_symp.chart.samples(20)
    nv = N.values(pts)
    assert np.max(np.abs(nv + np.einsum("nkij->nkji", nv))) < 1e-12


def test_torsions_vanish_precisely_for_sasakian(sasakian, flat_bundle,
                                                sasakian_symp, flat_bundle_symp):
    pts_s = sasakian_symp.chart.samples(40)
    for J in (sasakian_symp.J, natural_acs(sasakian)):
        norms = nijenhuis_norms(nijenhuis(J), sasakian_symp.gbar, pts_s)
        assert np.max(norms) < 1e-8
    pts_f = flat_bundle_symp.chart.samples(40)
    for J in (flat_bundle_symp.J, natural_acs(flat_bundle)):
        norms = nijenhuis_norms(nijenhuis(J), flat_bundle_symp.gbar, pts_f)
        assert np.min(norms) > 1e-2


def test_torsion_norm_matches_the_unplanned_contraction(flat_bundle, flat_bundle_symp):
    """The pairwise products agree with the five-operand einsum of the
    definition, numpy's plain nested loop over all seven indices."""
    B = flat_bundle_symp
    pts = B.chart.samples(20, seed=4)
    for J in (B.J, natural_acs(flat_bundle)):
        N = nijenhuis(J)
        norms = nijenhuis_norms(N, B.gbar, pts)
        assert np.min(norms) > 1e-2
        assert_allclose(norms, nijenhuis_norms_reference(N.values(pts), B.gbar.values(pts)),
                        rtol=1e-13, atol=0.0)


def test_torsion_norm_is_nan_only_where_the_torsion_is(flat_bundle_symp):
    """N times sqrt(f)/sqrt(f), with f < 0 at one sample only: the norm is
    NaN at that sample and matches the definition elsewhere."""
    B = flat_bundle_symp
    pts = B.chart.samples(8, seed=4)
    k = int(np.argmin(pts[:, 0]))
    x0 = Coord(0, B.chart.coord_names[0])
    f = x0 - Const(0.5 * float(pts[k, 0] + np.partition(pts[:, 0], 1)[1]))
    N = nijenhuis(B.J).scale(sqrt(f) / sqrt(f))
    with np.errstate(invalid="ignore"):
        norms = nijenhuis_norms(N, B.gbar, pts)
        want = nijenhuis_norms_reference(N.values(pts), B.gbar.values(pts))
    assert np.isnan(norms[k])
    assert_allclose(np.delete(norms, k), np.delete(want, k), rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# translations between symplectizations
# ---------------------------------------------------------------------------


def test_translation_identity_shift(flat_bundle_symp):
    rep = translation_isomorphism_check(flat_bundle_symp, 0.0, 20)
    assert sup_norm(*rep.values()) < 1e-14


def test_translation_samples_are_one_draw(flat_bundle_symp, monkeypatch):
    """Every coordinate of the translation check's samples comes from one
    stream: the t column is not an affine image of the first n uniforms of
    that stream, which would make it repeat the leading coordinates' draws,
    and every t keeps its shift inside the box."""
    seen = []
    real = TensorField.values
    monkeypatch.setattr(TensorField, "values",
                        lambda self, points: seen.append(points) or real(self, points))
    translation_isomorphism_check(flat_bundle_symp, 0.3, 30, seed=57)
    pts = seen[-1]
    n = len(pts)
    u = np.random.default_rng(57).random(n)
    lines = np.stack([np.ones(n), u], axis=1)
    fit, *_ = np.linalg.lstsq(lines, pts[:, -1], rcond=None)
    assert np.max(np.abs(lines @ fit - pts[:, -1])) > 0.1
    assert -1.0 < pts[:, -1].min() and pts[:, -1].max() + 0.3 < 1.0


@pytest.mark.parametrize("which", ["flat_bundle_symp", "sasakian_symp", "curved_symp",
                                   "sasakian7_symp"])
def test_translation_at_shifted_points_is_the_pullback_bit_for_bit(which, request):
    """The shift's Jacobian is the identity: evaluating at the shifted points
    gives the symbolic pullback's residuals bit for bit."""
    B = request.getfixturevalue(which)
    for shift in (0.3, -0.45):
        got = translation_isomorphism_check(B, shift, 20, seed=11)
        want = translation_isomorphism_reference(B, shift, 20, seed=11)
        assert list(got) == ["omega", "metric"]
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_translation_matches_rescaled_symplectization(any_entry):
    rep = translation_isomorphism_check(build_metric_symplectization(any_entry.structure), 0.3, 30)
    assert rep["omega"] < 1e-8
    assert rep["metric"] < 1e-8
