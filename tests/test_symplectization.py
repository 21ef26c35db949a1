"""The metric symplectization: construction, slices, integrability.

Worked values pinned here: the line direction is unit and orthogonal to
every slice; the almost complex structure acts by the three-case table;
the slice at t equals the rescale by exp(2t) componentwise; the Cartan
evaluation of the expansion property holds for the line coordinate field
exactly, while the plain tensor Lie derivative of the form along it is
twice the form (the factor that the exp(2t) weight forces, reported by the
verifier as context); and the torsions of both almost complex structures
vanish precisely on the Sasakian entry.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metsymp.charts import Chart
from metsymp.contact import ContactMetricStructure, d_homothety, verify_compatibility
from metsymp.errors import DomainError, GeometryError
from metsymp.expressions import Const, Coord
from metsymp.fields import (
    SmoothMap,
    TensorField,
    interior_product,
    pullback,
    wedge,
)
from metsymp.symplectization import (
    acs_table_residuals,
    block_structure_residuals,
    induced_contact_on_hypersurface,
    natural_acs,
    natural_symplectic_metric_structure,
    nijenhuis,
    nijenhuis_norms,
    slice_embedding,
    slice_structure,
    translation_isomorphism_check,
    unique_acs_witness_residual,
    verify_liouville,
    verify_symplectic,
)


def _dt(B):
    return TensorField.coordinate_vector(B.chart, B.chart.dim - 1)


def _symp(request_fixture, name, sas, flat):
    return sas if name == "darboux-sasakian-r3" else flat


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_line_direction_unit_and_orthogonal(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    res = block_structure_residuals(B, 50)
    assert res["dt_unit"] < 1e-10
    assert res["dt_orthogonal"] < 1e-10
    assert res["slice_block"] < 1e-10
    assert res["omega_pairing"] < 1e-10


def test_acs_three_case_table(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    res = acs_table_residuals(B, 50)
    assert max(res.values()) < 1e-10


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
    assert unique_acs_witness_residual(B, 20) < 1e-8


# ---------------------------------------------------------------------------
# symplectic checks
# ---------------------------------------------------------------------------


def test_symplectization_form_is_symplectic(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    rep = verify_symplectic(B, 50)
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
    assert verify_symplectic(omega, 30).passed
    degenerate = wedge(
        TensorField.covector(chart, [Const(1.0), Const(0.0), Const(0.0), Const(0.0)]),
        TensorField.covector(chart, [Const(0.0), Const(1.0), Const(0.0), Const(0.0)]),
    )
    rep = verify_symplectic(degenerate, 30)
    assert not rep.passed
    assert rep.min_top_coefficient < 1e-14


def test_odd_chart_rejected_by_symplectic_check(sasakian):
    from metsymp.fields import exterior_derivative

    with pytest.raises(GeometryError):
        verify_symplectic(exterior_derivative(sasakian.eta), 5)


# ---------------------------------------------------------------------------
# the expansion property of the line field
# ---------------------------------------------------------------------------


def test_line_field_expands_the_form(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    rep = verify_liouville(B, _dt(B), 50)
    assert rep.cartan_residual < 1e-12
    # the exp(2t) weight makes the plain Lie derivative exactly twice the
    # form; the verifier reports that constant for transparency
    assert_allclose(rep.lie_constant, 2.0, atol=1e-12)
    assert rep.lie_fit_residual < 1e-10


def test_doubled_line_field_fails(sasakian_symp):
    doubled = _dt(sasakian_symp).scale(Const(2.0))
    rep = verify_liouville(sasakian_symp, doubled, 30)
    assert rep.cartan_residual > 1e-2


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
    rep = verify_liouville(omega, radial, 40)
    assert rep.cartan_residual < 1e-12
    assert_allclose(rep.lie_constant, 2.0, atol=1e-12)
    halved = radial.scale(Const(0.5))
    rep_h = verify_liouville(omega, halved, 40)
    assert rep_h.cartan_residual > 1e-3
    assert_allclose(rep_h.lie_constant, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def test_zero_slice_reproduces_the_structure(sasakian, sasakian_symp):
    sl = slice_structure(sasakian_symp, 0.0)
    pts = sasakian.chart.samples(25)
    for f1, f2 in ((sl.structure.eta, sasakian.eta), (sl.structure.g, sasakian.g),
                   (sl.structure.phi, sasakian.phi)):
        assert np.max(np.abs(f1.values(pts) - f2.values(pts))) < 1e-14


def test_slice_equals_rescale_componentwise(any_entry, sasakian_symp, flat_bundle_symp):
    B = _symp(None, any_entry.name, sasakian_symp, flat_bundle_symp)
    S = B.base
    pts = S.chart.samples(25)
    for t0 in (-0.5, 0.3):
        sl = slice_structure(B, t0).structure
        dh = d_homothety(S, math.exp(2.0 * t0))
        for f1, f2 in ((sl.eta, dh.eta), (sl.g, dh.g), (sl.phi, dh.phi)):
            assert np.max(np.abs(f1.values(pts) - f2.values(pts))) < 1e-10
        assert verify_compatibility(sl, 30).passed


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
    sl = slice_structure(B, 0.3).structure
    pts = S.chart.samples(20)
    for f1, f2 in ((ind.eta, sl.eta), (ind.g, sl.g), (ind.phi, sl.phi)):
        assert np.max(np.abs(f1.values(pts) - f2.values(pts))) < 1e-9
    assert verify_compatibility(ind, 25).passed
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


def test_natural_acs_squares_to_minus_identity(sasakian):
    J = natural_acs(sasakian)
    pts = J.chart.samples(40)
    jv = J.values(pts)
    assert np.max(np.abs(np.einsum("nia,naj->nij", jv, jv) + np.eye(4))) < 1e-12


def test_natural_structure_slices_fail_compatibility_off_zero(sasakian):
    """The classical metric's slices are uniform rescalings, which break
    the Reeb pairing axiom away from t = 0; at t = 0 they pass."""
    Bn = natural_symplectic_metric_structure(sasakian)
    dt = TensorField.coordinate_vector(Bn.chart, Bn.chart.dim - 1)

    def candidate(t0):
        emb = slice_embedding(Bn, t0)
        eta_c = pullback(emb, interior_product(dt, Bn.omega))
        g_raw = pullback(emb, Bn.gbar)
        g_c = TensorField(sasakian.chart, 0, 2, g_raw.components, "symmetric")
        return ContactMetricStructure.build(sasakian.chart, eta_c, g_c, sasakian.phi)

    bad = verify_compatibility(candidate(0.4), 20)
    assert not bad.passed
    assert bad.residual_reeb_pairing > 1e-2
    good = verify_compatibility(candidate(0.0), 20)
    assert good.passed


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
    """The planned five-operand contraction agrees with numpy's plain
    nested loop over all seven indices."""
    B = flat_bundle_symp
    pts = B.chart.samples(20, seed=4)
    for J in (B.J, natural_acs(flat_bundle)):
        N = nijenhuis(J)
        norms = nijenhuis_norms(N, B.gbar, pts)
        nv = N.values(pts)
        gv = B.gbar.values(pts)
        ginv = np.linalg.inv(gv)
        sq = np.einsum("nkc,nia,njb,nkij,ncab->n", gv, ginv, ginv, nv, nv, optimize=False)
        assert np.min(norms) > 1e-2
        assert_allclose(norms, np.sqrt(np.maximum(sq, 0.0)), rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# translations between symplectizations
# ---------------------------------------------------------------------------


def test_translation_identity_shift(flat_bundle):
    rep = translation_isomorphism_check(flat_bundle, 0.0, 20)
    assert rep.max_residual < 1e-14


def test_translation_matches_rescaled_symplectization(any_entry):
    rep = translation_isomorphism_check(any_entry.structure, 0.3, 30)
    assert rep.omega_residual < 1e-8
    assert rep.metric_residual < 1e-8
