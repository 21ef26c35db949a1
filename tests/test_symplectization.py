"""The metric symplectization: construction, slices, integrability.

Worked values pinned here: the line direction is unit and orthogonal to
every slice; the almost complex structure acts by the three-case table;
the slice at t equals the rescale by exp(2t) componentwise, and the
structure the ambient data induce on it; the Cartan
evaluation of the expansion property holds for the line coordinate field
exactly, while the plain tensor Lie derivative of the form along it is
twice the form (the factor that the exp(2t) weight forces); the metric
almost complex structure is the classical one of the tests' oracle seen
through F(x, t) = (x, -exp(-2t)/2), torsion included; and the torsions of
both vanish precisely on the Sasakian entry.
"""

import dataclasses
import math
import re
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
    structure_values,
    verify_compatibility,
)
from metsymp.curvature import christoffel_batch
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
    _lift,
    _top_coefficient_abs,
    build_metric_symplectization,
    extend_to_product,
    extended_slice_form,
    nijenhuis,
    nijenhuis_norms,
    nijenhuis_values,
    slice_form_values,
    slice_structure,
    translation_isomorphism_check,
    verify_liouville,
    verify_symplectic,
    verify_symplectization_build,
)
from metsymp.structfile import load_structure_file, parse_structure_text
from metsymp.suite import SuiteConfig, run_suite

from inputs import product_inputs
from loop_references import (
    compatible_metric_reference,
    extended_slice_reeb,
    induced_contact_on_hypersurface,
    natural_acs_reference,
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
    res = verify_symplectization_build(B, *product_inputs(B, B.chart.samples(50)))
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
    assert natural_acs_reference(S, (-0.5, 0.5)).chart == B.chart
    res = verify_symplectization_build(B, *product_inputs(B, B.chart.samples(20)))
    assert max(res["J_xi_t"], res["J_d_t"], res["J_on_distribution"]) < 1e-10


def test_acs_three_case_table(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    res = verify_symplectization_build(B, *product_inputs(B, B.chart.samples(50)))
    assert max(res["J_xi_t"], res["J_d_t"], res["J_on_distribution"]) < 1e-10


@pytest.mark.parametrize("which", ["flat_bundle_symp", "sasakian_symp", "curved_symp",
                                   "sasakian_r5", "sasakian7_symp"])
def test_slice_values_equal_the_lifted_fields_bit_for_bit(which, request):
    """Values read from the base structure's record equal those of the
    symbolic lifts, sign bits included, and gbar's values in its connection
    data, which the build verifier reads, equal those of gbar's own walk.
    The record's h comes from first partials of xi and phi, so it meets the
    lift of the symbolic h to 1e-13 relative."""
    if which == "sasakian_r5":
        B = build_metric_symplectization(load_structure_file(R5_PATH))
    else:
        B = request.getfixturevalue(which)
    S = B.base
    pts = B.chart.samples(20, seed=6)
    values = structure_values(S, pts[:, :-1])
    eta_t, xi_t = slice_form_values(values, pts)
    pairs = [(eta_t, extended_slice_form(S, B.chart)), (xi_t, extended_slice_reeb(S, B.chart))]
    pairs += [(_lift(getattr(values, name)), extend_to_product(getattr(S, name), B.chart))
              for name in ("eta", "xi", "g", "phi")]
    pairs.append((christoffel_batch(B.gbar, pts).g, B.gbar))
    for got, field in pairs:
        want = field.values(pts)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    want = extend_to_product(S.h, B.chart).values(pts)
    assert_allclose(_lift(values.h), want, rtol=0,
                    atol=1e-13 * max(1.0, float(np.max(np.abs(want)))))


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
    res = verify_symplectization_build(B, *product_inputs(B, B.chart.samples(20)))
    assert res["unique_acs"] < 1e-8


def test_the_build_verifier_evaluates_eta_and_xi_once(flat_bundle_symp, monkeypatch):
    """With the record built, xi_t and the contact distribution share its
    one walk of xi, and eta is evaluated once, on the base coordinates of
    the draw."""
    S = flat_bundle_symp.base
    calls = []
    real = TensorField._evaluate

    def counting(self, points, order):
        if self is S.eta or self is S.xi:
            calls.append(("eta" if self is S.eta else "xi", points.shape))
        return real(self, points, order)

    monkeypatch.setattr(TensorField, "_evaluate", counting)
    pts = flat_bundle_symp.chart.samples(12, seed=1)
    verify_symplectization_build(flat_bundle_symp, *product_inputs(flat_bundle_symp, pts))
    assert sorted(calls) == [("eta", (12, 3)), ("xi", (12, 3))]


def _failing_keys(B):
    """The keys of the build verifier at or above the check's threshold; each
    failing one fails by far."""
    res = verify_symplectization_build(B, *product_inputs(B, B.chart.samples(40, seed=50)))
    failing = {k for k, v in res.items() if not v < 1e-10}
    assert all(res[k] > 0.1 for k in failing)
    return failing


def test_the_build_verifier_passes_every_key(any_entry, sasakian_symp, flat_bundle_symp):
    assert _failing_keys(_symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)) == set()


def test_the_classical_acs_fails_the_table_and_the_omega_pairing(any_entry, sasakian_symp,
                                                                 flat_bundle_symp):
    """J xi = d_t and J d_t = -xi miss the exp(-+2t) weights; phi on Ker(eta) holds."""
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    B = dataclasses.replace(B, J=natural_acs_reference(B.base, B.chart.domain[-1]))
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
    rep = verify_symplectic(B.omega, B.chart.samples(50))
    assert list(rep) == ["closed", "nondegenerate"]
    assert rep["closed"] < 1e-12
    # the top coefficient clears the floor of 1e-10 at every sample
    assert rep["nondegenerate"] == 0.0


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
    rep = verify_symplectic(omega, omega.chart.samples(30))
    assert rep["closed"] < SYMPLECTIC_TOL and rep["nondegenerate"] == 0.0
    degenerate = wedge(
        TensorField.covector(chart, [Const(1.0), Const(0.0), Const(0.0), Const(0.0)]),
        TensorField.covector(chart, [Const(0.0), Const(1.0), Const(0.0), Const(0.0)]),
    )
    rep = verify_symplectic(degenerate, degenerate.chart.samples(30))
    assert rep["closed"] < SYMPLECTIC_TOL
    # the smallest top coefficient is below 1e-14
    assert rep["nondegenerate"] > SYMPLECTIC_TOL - 1e-14


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
    top = _top_coefficient_abs(omega.values(pts))
    assert_allclose(top, want, rtol=1e-12, atol=0)
    assert np.min(top) > SYMPLECTIC_TOL
    assert verify_symplectic(omega, pts)["nondegenerate"] == 0.0


def test_nan_two_form_fails_the_symplectic_check():
    chart, omega = _standard_r4()
    comps = np.array(omega.components)
    x = Coord(0, "x")
    comps[0, 1] = comps[0, 1] * (sqrt(x) / sqrt(x))          # NaN where x < 0
    masked = TensorField(chart, 0, 2, comps, "antisymmetric")
    pts = masked.chart.samples(30, seed=1)
    with np.errstate(invalid="ignore"):
        rep = verify_symplectic(masked, pts)
        top = _top_coefficient_abs(masked.values(pts))
    assert math.isnan(np.min(top))
    assert not np.min(top) > SYMPLECTIC_TOL
    assert rep["nondegenerate"] == math.inf


def test_odd_chart_rejected_by_symplectic_check(sasakian):
    from metsymp.fields import exterior_derivative

    with pytest.raises(GeometryError):
        verify_symplectic(exterior_derivative(sasakian.eta), sasakian.chart.samples(5))


# ---------------------------------------------------------------------------
# the expansion property of the line field
# ---------------------------------------------------------------------------


def test_line_field_expands_the_form(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    assert verify_liouville(B.omega, _dt(B), B.chart.samples(50))["cartan"] < 1e-12
    # the exp(2t) weight makes the plain Lie derivative exactly twice the form
    pts = B.chart.samples(50)
    assert_allclose(lie_derivative(_dt(B), B.omega).values(pts), 2.0 * B.omega.values(pts),
                    rtol=0, atol=1e-12)


def test_doubled_line_field_fails(sasakian_symp):
    doubled = _dt(sasakian_symp).scale(Const(2.0))
    pts = sasakian_symp.chart.samples(30)
    assert verify_liouville(sasakian_symp.omega, doubled, pts)["cartan"] > 1e-2


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
    assert verify_liouville(omega, radial, omega.chart.samples(40))["cartan"] < 1e-12
    assert_allclose(lie_derivative(radial, omega).values(pts), 2.0 * omega.values(pts),
                    rtol=0, atol=1e-12)
    halved = radial.scale(Const(0.5))
    assert verify_liouville(omega, halved, omega.chart.samples(40))["cartan"] > 1e-3
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
        values = structure_values(sl, sl.chart.samples(30))
        assert sup_norm(*verify_compatibility(values).values()) < COMPAT_TOL


def test_slice_outside_range_rejected(sasakian_symp):
    """A slice outside B's t interval, on either side, is a DomainError
    that names it; its ends are slices."""
    for t in (3.0, -1.5):
        where = re.escape(f"slice parameter {t} outside [-1.0, 1.0]")
        with pytest.raises(DomainError, match=where):
            slice_structure(sasakian_symp, t)
    for t in (-1.0, 1.0):
        slice_structure(sasakian_symp, t)


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
    values = structure_values(ind, ind.chart.samples(25))
    assert sup_norm(*verify_compatibility(values).values()) < COMPAT_TOL
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
    J = natural_acs_reference(sasakian)
    pts = J.chart.samples(40)
    jv = J.values(pts)
    assert np.max(np.abs(np.einsum("nia,naj->nij", jv, jv) + np.eye(4))) < 1e-12


def test_natural_structure_slices_fail_compatibility_off_zero(sasakian):
    """The classical metric's slices are uniform rescalings, which break
    the Reeb pairing axiom away from t = 0; at t = 0 they pass."""
    Bn = compatible_metric_reference(sasakian, natural_acs_reference(sasakian))
    dt = TensorField.coordinate_vector(Bn.chart, Bn.chart.dim - 1)

    def candidate(t0):
        emb = slice_embedding(Bn, t0)
        eta_c = pullback(emb, interior_product(dt, Bn.omega))
        g_raw = pullback(emb, Bn.gbar)
        g_c = TensorField(sasakian.chart, 0, 2, g_raw.components, "symmetric")
        return ContactMetricStructure.build(sasakian.chart, eta_c, g_c, sasakian.phi)

    pts = sasakian.chart.samples(20)
    bad = verify_compatibility(structure_values(candidate(0.4), pts))
    assert not sup_norm(*bad.values()) < COMPAT_TOL
    assert bad["reeb_pairing"] > 1e-2
    good = verify_compatibility(structure_values(candidate(0.0), pts))
    assert sup_norm(*good.values()) < COMPAT_TOL


def test_both_acs_agree_on_distribution_at_zero_slice(sasakian, sasakian_symp):
    Jn = natural_acs_reference(sasakian)
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
    for J in (sasakian_symp.J, natural_acs_reference(sasakian)):
        norms = nijenhuis_norms(nijenhuis_values(J, pts_s), sasakian_symp.gbar.values(pts_s))
        assert np.max(norms) < 1e-8
    pts_f = flat_bundle_symp.chart.samples(40)
    for J in (flat_bundle_symp.J, natural_acs_reference(flat_bundle)):
        norms = nijenhuis_norms(nijenhuis_values(J, pts_f), flat_bundle_symp.gbar.values(pts_f))
        assert np.min(norms) > 1e-2


def _line_weights(pts):
    """d = (1, ..., 1, exp(-2t)), the Jacobian diagonal of F(x, t) = (x, -exp(-2t)/2)."""
    w = np.ones(pts.shape)
    w[:, -1] = np.exp(-2.0 * pts[:, -1])
    return w


def _acs_defect(B, J_cl, pts):
    """max|B.J - F^*J_cl|, with (F^*J)^i_j = J^i_j d_j / d_i.  J_cl does
    not read its line coordinate, so it is evaluated at the points themselves."""
    w = _line_weights(pts)
    return np.max(np.abs(B.J.values(pts) - J_cl.values(pts) * w[:, None, :] / w[:, :, None]))


@pytest.mark.parametrize("name", ["sasakian", "flat_bundle", "sasakian_r5.txt",
                                  "sasakian_r7.txt", "curved"])
def test_the_metric_acs_and_its_torsion_are_the_classical_ones_through_F(request, name):
    """B.J = F^*J_cl, so N(B.J) = F^*N(J_cl), (F^*N)^i_jk = N^i_jk d_j d_k / d_i:
    one torsion decides integrability for both constructions.  N(B.J) is
    the check's, from first partials; N(J_cl) is the symbolic tree."""
    S = (load_structure_file(DATA / name) if name.endswith(".txt")
         else request.getfixturevalue(name))
    B = build_metric_symplectization(S)
    J_cl = natural_acs_reference(S)
    pts = B.chart.samples(20, seed=42)
    assert _acs_defect(B, J_cl, pts) <= 1e-13
    w = _line_weights(pts)
    nv = nijenhuis_values(B.J, pts)
    want = nijenhuis(J_cl).values(pts) * (w[:, None, :, None] * w[:, None, None, :]
                                          / w[:, :, None, None])
    assert np.max(np.abs(nv - want)) <= 1e-13 * max(1.0, np.max(np.abs(nv)))


def test_a_scaled_line_row_breaks_the_identity(sasakian_symp):
    """The negative row: the oracle's d_t row scaled by 1 + 1e-3."""
    B = sasakian_symp
    J = natural_acs_reference(B.base)
    comps = J.components.copy()
    comps[-1] = [Const(1.0 + 1e-3) * c for c in comps[-1]]
    pts = B.chart.samples(20, seed=42)
    assert _acs_defect(B, J, pts) <= 1e-13
    assert not _acs_defect(B, TensorField(B.chart, 1, 1, comps), pts) <= 1e-13


def test_torsion_norm_matches_the_unplanned_contraction(flat_bundle, flat_bundle_symp):
    """The pairwise products agree with the five-operand einsum of the
    definition, numpy's plain nested loop over all seven indices."""
    B = flat_bundle_symp
    pts = B.chart.samples(20, seed=4)
    for J in (B.J, natural_acs_reference(flat_bundle)):
        nv = nijenhuis_values(J, pts)
        norms = nijenhuis_norms(nv, B.gbar.values(pts))
        assert np.min(norms) > 1e-2
        assert_allclose(norms, nijenhuis_norms_reference(nv, B.gbar.values(pts)),
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
        nv = N.values(pts)
        norms = nijenhuis_norms(nv, B.gbar.values(pts))
        want = nijenhuis_norms_reference(nv, B.gbar.values(pts))
    assert np.isnan(norms[k])
    assert_allclose(np.delete(norms, k), np.delete(want, k), rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# translations between symplectizations
# ---------------------------------------------------------------------------


def test_translation_identity_shift(flat_bundle_symp):
    rep = translation_isomorphism_check(flat_bundle_symp, 0.0, flat_bundle_symp.chart.samples(20))
    assert sup_norm(*rep.values()) < 1e-14


def test_translation_samples_are_one_draw(flat_bundle_symp, monkeypatch):
    """The translation check reads the one draw it is given: the leading
    coordinates as they are, and the t column mapped affinely from [-1, 1]
    onto the overlap [-1, 0.7] of the shift by 0.3, where every t keeps its
    shift inside the box.  That is, up to rounding, a draw with the same
    seed over the product box with its t interval cut to the overlap."""
    seen = []
    real = TensorField.values
    monkeypatch.setattr(TensorField, "values",
                        lambda self, points: seen.append(points) or real(self, points))
    chart = flat_bundle_symp.chart
    given = chart.samples(30, seed=57)
    translation_isomorphism_check(flat_bundle_symp, 0.3, given)
    pts = seen[-1]
    assert np.array_equal(pts[:, :-1], given[:, :-1])
    assert_allclose(pts[:, -1], -1.0 + (given[:, -1] + 1.0) * 0.85, rtol=0, atol=1e-15)
    assert -1.0 < pts[:, -1].min() and pts[:, -1].max() + 0.3 < 1.0
    box = dataclasses.replace(chart, domain=chart.domain[:-1] + ((-1.0, 0.7),))
    assert_allclose(pts, box.samples(30, seed=57), rtol=0, atol=1e-15)


@pytest.mark.parametrize("which", ["flat_bundle_symp", "sasakian_symp", "curved_symp",
                                   "sasakian7_symp"])
def test_translation_at_shifted_points_is_the_pullback_bit_for_bit(which, request):
    """The shift's Jacobian is the identity: evaluating at the shifted points
    gives the symbolic pullback's residuals bit for bit."""
    B = request.getfixturevalue(which)
    for shift in (0.3, -0.45):
        pts = B.chart.samples(20, seed=11)
        got = translation_isomorphism_check(B, shift, pts)
        want = translation_isomorphism_reference(B, shift, pts)
        assert list(got) == ["omega", "metric"]
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_translation_matches_rescaled_symplectization(any_entry):
    B = build_metric_symplectization(any_entry.structure)
    rep = translation_isomorphism_check(B, 0.3, B.chart.samples(30))
    assert rep["omega"] < 1e-8
    assert rep["metric"] < 1e-8
