"""Contact metric structures: axioms, fits, rescalings, eigenstructure.

Frozen expected values and where they come from:

* the R^3 model fits kappa = 1 with h = 0 (worked out from its unimodular
  frame, where the two contact directions and the Reeb field bracket as
  [E1, E2] = 2 E3 with all else zero);
* the flat-plane bundle is flat, so its curvature annihilates the Reeb
  field and the fit returns exactly (0, 0); its h has eigenvalues
  {0, +1, -1};
* rescaling the (0, 0) structure by a = 2 gives (3/4, 1) and leaves the
  classification index at 1;
* the R^3 model satisfies Ric = -2 g + 4 eta (x) eta (frame computation:
  the mixed-plane curvature is -3 and the Reeb-plane curvature +1), and
  the fitted pair is cross-checked against a direct Ricci evaluation.
"""

import ctypes
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from metsymp import contact
from metsymp.charts import Chart
from metsymp.contact import (
    COMPAT_TOL,
    ContactMetricStructure,
    _reeb_from_values,
    boeckx_index,
    d_homothety,
    fit_kappa_mu,
    h_eigendecomposition,
    h_eigendecomposition_batch,
    is_K_contact,
    kappa_mu_after_rescale,
    reeb_field,
    structure_values,
    verify_compatibility,
    verify_kmu_curvature,
    verify_structure_isomorphism,
)
from metsymp.curvature import christoffel_batch, ricci_components, riemann_components
from metsymp.errors import (
    DegenerateMetricError,
    DomainError,
    GeometryError,
    NotContactError,
    SasakianDegeneracyError,
)
from metsymp.expressions import ZERO, Const, Coord, _operands, _Operation, evaluate, sqrt
from metsymp.fields import SmoothMap, TensorField, exterior_derivative, sup_norm
from metsymp.structfile import load_structure_file
from metsymp.submersion import fit_symplectization_kmu, verify_currel, verify_fundamental_tensors
from metsymp.symplectization import verify_symplectization_build

from inputs import kmu_inputs, product_inputs
from loop_references import (
    eta_einstein_fit_reference,
    h_norms_reference,
    kmu_curvature_reference,
    reeb_field_adjugate,
)

SASAKIAN_R5_PATH = Path(__file__).parent / "data" / "sasakian_r5.txt"


def _solve_reeb(eta, pts):
    """The numeric Reeb vectors of ``eta`` at ``pts``, as the ``reeb`` check solves them."""
    return _reeb_from_values(exterior_derivative(eta).values(pts), eta.values(pts), pts)


# ---------------------------------------------------------------------------
# contact condition and the Reeb field
# ---------------------------------------------------------------------------


def test_even_dimensional_chart_rejected():
    """On an even chart every candidate Reeb Pfaffian has an odd index set,
    so eta ^ (d eta)^n vanishes identically and there is no Reeb field."""
    chart = Chart(("x", "y"), ((-1, 1), (-1, 1)))
    y = Coord(1, "y")
    for eta in (TensorField.covector(chart, [Const(0.0), Const(1.0)]),
                TensorField.covector(chart, [-y, Const(1.0)])):
        with pytest.raises(NotContactError):
            reeb_field(eta)


def test_reeb_of_plain_darboux_form():
    chart = Chart(("x", "y", "z"), ((-2, 2),) * 3, sampler_seed=2)
    y = Coord(1, "y")
    eta = TensorField.covector(chart, [-y, Const(0.0), Const(1.0)])
    for xi in _solve_reeb(eta, chart.samples(10)):
        assert_allclose(xi, [0.0, 0.0, 1.0], atol=1e-12)
    xi_sym = reeb_field(eta)
    pts = chart.samples(20)
    expected = np.zeros((20, 3))
    expected[:, 2] = 1.0
    assert_allclose(xi_sym.values(pts), expected, atol=1e-12)


def test_a_nowhere_contact_form_cannot_build_a_structure():
    """eta = dz: eta ^ (d eta)^n vanishes identically, so there is no Reeb field."""
    chart = Chart(("x", "y", "z"), ((-2, 2),) * 3)
    dz = TensorField.covector(chart, [ZERO, ZERO, Const(1.0)])
    eye = np.diag([Const(1.0)] * 3)
    with pytest.raises(NotContactError, match=re.escape("eta ^ (d eta)^n vanishes identically")):
        ContactMetricStructure.build(chart, dz, TensorField(chart, 0, 2, eye, "symmetric"),
                                     TensorField(chart, 1, 1, eye))


def test_reeb_solver_rejects_non_contact_form():
    chart = Chart(("x", "y", "z"), ((-2, 2),) * 3)
    dz = TensorField.covector(chart, [Const(0.0), Const(0.0), Const(1.0)])
    with pytest.raises(NotContactError):
        _solve_reeb(dz, np.array([[0.1, 0.2, 0.3]]))


def test_reeb_defining_equations_at_samples(any_entry):
    S = any_entry.structure
    from metsymp.fields import exterior_derivative

    pts = S.chart.samples(100)
    deta = exterior_derivative(S.eta).values(pts)
    xv = S.xi.values(pts)
    ev = S.eta.values(pts)
    assert np.max(np.abs(np.einsum("ni,nij->nj", xv, deta))) < 1e-9
    assert np.max(np.abs(np.einsum("ni,ni->n", xv, ev) - 1.0)) < 1e-9


def test_slice_form_reeb_scales_inversely(sasakian):
    """The Reeb field of exp(2t0) eta is exp(-2t0) xi."""
    for t0 in (-0.4, 0.25):
        a = math.exp(2 * t0)
        eta_t = sasakian.eta.scale(Const(a))
        xi_t = reeb_field(eta_t)
        pts = sasakian.chart.samples(20)
        assert np.max(np.abs(xi_t.values(pts) - sasakian.xi.values(pts) / a)) < 1e-11


@pytest.mark.parametrize("which", ["sasakian", "flat_bundle", "curved", "sasakian_r5",
                                   "sasakian7"])
def test_reeb_field_matches_the_adjugate_construction(which, request):
    if which == "sasakian_r5":
        S = load_structure_file(SASAKIAN_R5_PATH)
    elif which == "sasakian7":
        S = request.getfixturevalue("sasakian7_symp").base
    else:
        S = request.getfixturevalue(which)
    pts = S.chart.samples(20, seed=6)
    want = reeb_field_adjugate(S.eta).values(pts)
    assert_allclose(reeb_field(S.eta).values(pts), want, rtol=1e-12,
                    atol=1e-12 * np.max(np.abs(want)))


def _shared_nodes(roots) -> int:
    """The number of distinct node objects under ``roots``."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, _Operation):
                stack.extend(_operands(node))
    return len(seen)


def test_reeb_field_folds_where_d_eta_is_constant(sasakian7_symp, flat_bundle):
    """On the standard R^7 the Pfaffians of the constant d eta fold to constants;
    the flat bundle's h stays small (209 shared nodes through the adjugate)."""
    assert all(isinstance(c, Const) for c in sasakian7_symp.base.xi.components.flat)
    assert _shared_nodes(flat_bundle.h.components.flat) <= 80


_PERTURBATION = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False,
                          allow_infinity=False, allow_subnormal=False)


@st.composite
def _perturbed_darboux_forms(draw):
    """dz - sum y_i dx_i plus c0 + c1 x_a x_b in each component, |c| <= 0.05,
    on [-1, 1]^D with D = 3 or 5."""
    n = draw(st.sampled_from([1, 2]))
    dim = 2 * n + 1
    chart = Chart(tuple(f"x{i}" for i in range(dim)), ((-1.0, 1.0),) * dim, sampler_seed=11)
    xs = [Coord(i, chart.coord_names[i]) for i in range(dim)]
    comps = [-xs[n + i] for i in range(n)] + [ZERO] * n + [Const(1.0)]
    for i in range(dim):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            c0, c1 = Const(draw(_PERTURBATION)), Const(draw(_PERTURBATION))
            comps[i] = comps[i] + c0 + c1 * xs[a] * xs[b]
    return TensorField.covector(chart, comps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_perturbed_darboux_forms())
def test_reeb_field_of_a_perturbed_darboux_form(eta):
    pts = eta.chart.samples(16, seed=2)
    xv = reeb_field(eta).values(pts)
    dv = exterior_derivative(eta).values(pts)
    assert np.max(np.abs(np.einsum("ni,nij->nj", xv, dv))) <= 1e-12
    assert np.max(np.abs(np.einsum("ni,ni->n", xv, eta.values(pts)) - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


def test_catalog_compatibility(any_entry):
    S = any_entry.structure
    rep = verify_compatibility(structure_values(S, S.chart.samples(100)))
    assert sup_norm(*rep.values()) < 1e-8


def test_doubled_metric_fails_pairing_axiom(sasakian):
    doubled = ContactMetricStructure.build(
        sasakian.chart, sasakian.eta, sasakian.g.scale(Const(2.0)), sasakian.phi)
    rep = verify_compatibility(structure_values(doubled, doubled.chart.samples(30)))
    assert not sup_norm(*rep.values()) < COMPAT_TOL
    assert rep["deta_pairing"] > 1e-3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_in_phi_fails_compatibility_with_infinite_residual(nan_masked_sasakian_entry):
    S = nan_masked_sasakian_entry.structure
    rep = verify_compatibility(structure_values(S, S.chart.samples(30)))
    assert rep["phi_square"] == math.inf
    assert sup_norm(*rep.values()) == math.inf
    assert not sup_norm(*rep.values()) < COMPAT_TOL


def test_phi_annihilates_reeb(any_entry):
    S = any_entry.structure
    pts = S.chart.samples(100)
    pv = S.phi.values(pts)
    xv = S.xi.values(pts)
    assert np.max(np.abs(np.einsum("nij,nj->ni", pv, xv))) < 1e-9


def test_build_rejects_even_charts_and_bad_ranks(sasakian):
    chart = Chart(("x", "y"), ((-1, 1), (-1, 1)))
    eta = TensorField.covector(chart, [Const(0.0), Const(1.0)])
    g = TensorField(chart, 0, 2, [[Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]],
                    "symmetric")
    phi = TensorField(chart, 1, 1, [[Const(0.0), Const(1.0)], [Const(-1.0), Const(0.0)]])
    with pytest.raises(GeometryError):
        ContactMetricStructure.build(chart, eta, g, phi)
    with pytest.raises(GeometryError):
        ContactMetricStructure.build(sasakian.chart, sasakian.g, sasakian.g, sasakian.phi)


# ---------------------------------------------------------------------------
# the h tensor
# ---------------------------------------------------------------------------


def test_h_vanishes_exactly_on_sasakian_model(sasakian):
    values = structure_values(sasakian, sasakian.chart.samples(100))
    assert is_K_contact(values.g, values.h)
    assert sup_norm(contact._h_norms(values.g, values.h)) < 1e-12


def test_h_eigenvalues_on_flat_bundle(flat_bundle):
    values = structure_values(flat_bundle, flat_bundle.chart.samples(50))
    assert not is_K_contact(values.g, values.h)
    for p in flat_bundle.chart.samples(10):
        eig = h_eigendecomposition(flat_bundle, p)
        assert_allclose(eig.eigenvalues, [[-1.0, 0.0, 1.0]], atol=1e-10)
        assert eig.orthonormality_residual < 1e-8
        assert eig.xi_alignment_residual < 1e-8
        assert eig.plus.tolist() == [[False, False, True]]
        assert eig.minus.tolist() == [[True, False, False]]


def test_h_identities(any_entry):
    S = any_entry.structure
    pts = S.chart.samples(100)
    hv = S.h.values(pts)
    pv = S.phi.values(pts)
    anti = np.einsum("nia,naj->nij", hv, pv) + np.einsum("nia,naj->nij", pv, hv)
    assert np.max(np.abs(anti)) < 1e-8
    assert np.max(np.abs(np.einsum("nii->n", hv))) < 1e-8


def test_eigendecomposition_rejects_vanishing_h(sasakian):
    with pytest.raises(SasakianDegeneracyError):
        h_eigendecomposition(sasakian, sasakian.chart.samples(1)[0])


# ---------------------------------------------------------------------------
# nullity-constant fitting
# ---------------------------------------------------------------------------


def test_fit_on_sasakian_model(sasakian):
    rep = fit_kappa_mu(sasakian, 50)
    assert abs(rep.kappa - 1.0) < 1e-6
    assert rep.mu is None
    assert rep.sasakian_flag
    assert rep.residual < 1e-6
    assert rep.lam is None


def test_fit_on_flat_bundle(flat_bundle):
    rep = fit_kappa_mu(flat_bundle, 50)
    assert abs(rep.kappa) < 1e-6
    assert abs(rep.mu) < 1e-6
    assert rep.residual < 1e-6
    assert not rep.sasakian_flag
    assert abs(rep.lam - 1.0) < 1e-9


def test_flat_bundle_curvature_annihilates_reeb(flat_bundle):
    """Independent of the fitting code path: R(X, Y) xi itself vanishes."""
    from metsymp.curvature import riemann_components

    pts = flat_bundle.chart.samples(40)
    data = christoffel_batch(flat_bundle.g, pts)
    riem = riemann_components(data)
    lhs = np.einsum("nlkij,nk->nlij", riem, flat_bundle.xi.values(pts))
    assert np.max(np.abs(lhs)) < 1e-12


def test_fitted_kappa_at_most_one(any_entry):
    rep = fit_kappa_mu(any_entry.structure, 50)
    assert rep.kappa <= 1.0 + 1e-8


def test_rescale_of_flat_bundle_hits_the_law(flat_bundle):
    S2 = d_homothety(flat_bundle, 2.0)
    rep = fit_kappa_mu(S2, 40)
    assert_allclose([rep.kappa, rep.mu], [0.75, 1.0], atol=1e-9)
    assert rep.residual < 1e-9


def test_strong_rescale_of_flat_bundle_hits_the_law(flat_bundle):
    """At a = 1e-4 the metric is small but well conditioned; no guard trips."""
    a = 1e-4
    rep = fit_kappa_mu(d_homothety(flat_bundle, a), 20)
    law = ((a * a - 1.0) / (a * a), (2.0 * a - 2.0) / a)
    assert_allclose([rep.kappa, rep.mu], law, rtol=1e-12)
    assert rep.residual < 1e-12 * abs(law[0])


def test_rescale_equivariance_random_factors(any_entry):
    S = any_entry.structure
    base = fit_kappa_mu(S, 30)
    rng = np.random.default_rng(23)
    for a in rng.uniform(0.5, 3.0, size=3):
        rep = fit_kappa_mu(d_homothety(S, float(a)), 30)
        kp, mp = kappa_mu_after_rescale(base.kappa, base.mu, float(a))
        assert abs(rep.kappa - kp) < 1e-6
        if mp is not None:
            assert abs(rep.mu - mp) < 1e-6


def test_d_homothety_identity_and_derived_laws(flat_bundle):
    S1 = d_homothety(flat_bundle, 1.0)
    pts = flat_bundle.chart.samples(20)
    for f1, f2 in ((S1.eta, flat_bundle.eta), (S1.g, flat_bundle.g),
                   (S1.phi, flat_bundle.phi)):
        assert np.max(np.abs(f1.values(pts) - f2.values(pts))) == 0.0
    a = 2.5
    S2 = d_homothety(flat_bundle, a)
    assert np.max(np.abs(S2.xi.values(pts) - flat_bundle.xi.values(pts) / a)) < 1e-9
    assert np.max(np.abs(S2.h.values(pts) - flat_bundle.h.values(pts) / a)) < 1e-9
    values = structure_values(S2, S2.chart.samples(50))
    assert sup_norm(*verify_compatibility(values).values()) < COMPAT_TOL
    with pytest.raises(GeometryError):
        d_homothety(flat_bundle, 0.0)


# ---------------------------------------------------------------------------
# the classification index
# ---------------------------------------------------------------------------


def test_boeckx_index_values_and_guard():
    assert boeckx_index(0.0, 0.0) == 1.0
    assert_allclose(boeckx_index(0.75, 1.0), 1.0)
    with pytest.raises(SasakianDegeneracyError):
        boeckx_index(1.0, 0.0)


def test_index_invariant_under_rescaling(flat_bundle):
    base = fit_kappa_mu(flat_bundle, 30)
    i0 = boeckx_index(base.kappa, base.mu)
    for a in (0.5, 2.0, math.e):
        rep = fit_kappa_mu(d_homothety(flat_bundle, a), 30)
        assert abs(boeckx_index(rep.kappa, rep.mu) - i0) < 1e-6


# ---------------------------------------------------------------------------
# the six eigenspace curvature identities
# ---------------------------------------------------------------------------


def test_eigenspace_identities_on_flat_bundle(flat_bundle):
    rep6 = verify_kmu_curvature(*kmu_inputs(flat_bundle, flat_bundle.chart.samples(25)), 0.0, 0.0)
    assert sup_norm(*rep6.values()) < 1e-6


def test_eigenspace_identities_after_rescale(flat_bundle):
    S2 = d_homothety(flat_bundle, 2.0)
    rep = fit_kappa_mu(S2, 25)
    # lambda halves under the a = 2 rescale
    assert abs(rep.lam - 0.5) < 1e-9
    rep6 = verify_kmu_curvature(*kmu_inputs(S2, S2.chart.samples(20)), rep.kappa, rep.mu)
    assert sup_norm(*rep6.values()) < 1e-6


def test_plus_space_coefficient_value(flat_bundle):
    # [2(1 + lam) - mu] at (kappa, mu) = (0, 0), lam = 1
    rep = fit_kappa_mu(flat_bundle, 20)
    lam = rep.lam
    assert_allclose(2.0 * (1.0 + lam) - rep.mu, 4.0, atol=1e-9)


def test_eigenspace_identities_reject_sasakian(sasakian):
    with pytest.raises(SasakianDegeneracyError):
        verify_kmu_curvature(*kmu_inputs(sasakian, sasakian.chart.samples(5)), 1.0, 0.0)


# ---------------------------------------------------------------------------
# eta-Einstein fitting
# ---------------------------------------------------------------------------


def test_sasakian_model_is_eta_einstein(sasakian):
    alpha, beta, residual = eta_einstein_fit_reference(sasakian, 50)
    assert residual < 1e-6
    assert_allclose([alpha, beta], [-2.0, 4.0], atol=1e-9)
    # cross-check the fitted pair against a direct Ricci evaluation
    pts = sasakian.chart.samples(30)
    data = christoffel_batch(sasakian.g, pts)
    ric = ricci_components(riemann_components(data))
    ev = sasakian.eta.values(pts)
    model = alpha * data.g + beta * np.einsum("ni,nj->nij", ev, ev)
    assert np.max(np.abs(ric - model)) < 1e-9


def test_flat_bundle_is_eta_einstein_with_zero_coefficients(flat_bundle):
    alpha, beta, residual = eta_einstein_fit_reference(flat_bundle, 50)
    assert residual < 1e-6
    assert_allclose([alpha, beta], [0.0, 0.0], atol=1e-9)


def test_rescaled_flat_bundle_is_not_eta_einstein(flat_bundle):
    *_, residual = eta_einstein_fit_reference(d_homothety(flat_bundle, 2.0), 50)
    assert residual > 1e-3


# ---------------------------------------------------------------------------
# structure isomorphisms
# ---------------------------------------------------------------------------


def test_isomorphism_identity_map(sasakian):
    F = SmoothMap.identity(sasakian.chart)
    rep = verify_structure_isomorphism(F, sasakian, sasakian, sasakian.chart.samples(30))
    assert sup_norm(*rep.values()) == 0.0


def test_isomorphism_translation_symmetry(sasakian):
    """x and z translations preserve the R^3 model exactly."""
    chart = sasakian.chart
    x, y, z = (Coord(i, n) for i, n in enumerate(chart.coord_names))
    F = SmoothMap(chart, chart, (x + Const(0.4), y, z - Const(0.3)))
    rep = verify_structure_isomorphism(F, sasakian, sasakian, sasakian.chart.samples(50))
    assert sup_norm(*rep.values()) < 1e-12


def test_isomorphism_detects_scaling_mismatch(sasakian):
    F = SmoothMap.identity(sasakian.chart)
    S2 = ContactMetricStructure.build(
        sasakian.chart, sasakian.eta, sasakian.g.scale(Const(1.5)), sasakian.phi)
    rep = verify_structure_isomorphism(F, sasakian, S2, sasakian.chart.samples(20))
    assert rep["metric"] > 1e-3
    assert rep["eta"] < 1e-12


def test_h_norm_helper_matches_eigenvalues(flat_bundle):
    pts = flat_bundle.chart.samples(10)
    norms = contact._h_norms(flat_bundle.g.values(pts), flat_bundle.h.values(pts))
    # h has eigenvalues {0, 1, -1} and the frame norm is sqrt(2)
    assert_allclose(norms, math.sqrt(2.0), atol=1e-10)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_h_norms_match_the_einsum_definition(non_sasakian, sasakian):
    """The two matrix products against the four-operand einsum, on both
    kinds of structure and on random metrics and matrices; h made NaN at
    one sample gives NaN there and nowhere else."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(9, 5, 5))
    cases = [(rng.normal(size=(9, 5, 5)), A @ np.swapaxes(A, 1, 2) + np.eye(5))]
    for S in (non_sasakian, sasakian):
        pts = S.chart.samples(9, seed=4)
        cases.append((S.h.values(pts), S.g.values(pts)))
    for hv, gv in cases:
        assert_allclose(contact._h_norms(gv, hv), h_norms_reference(gv, hv), rtol=1e-13, atol=1e-15)
        hv = hv.copy()
        hv[3, 1, 0] = np.nan
        norms = contact._h_norms(gv, hv)
        assert np.isnan(norms[3])
        assert np.isfinite(np.delete(norms, 3)).all()


# ---------------------------------------------------------------------------
# batch paths against the per-point algorithm
# ---------------------------------------------------------------------------


def _reference_eigen(S, p):
    """The per-point eigenstructure of h: one evaluation and one Cholesky
    reduction per point, kept here as the reference for the batch.  h is
    the record's, from first partials of xi and phi at the one point."""
    gmat = S.g.values(p)
    hmat = structure_values(S, p[None]).h[0]
    xi = S.xi.values(p)
    sym = gmat @ hmat
    L = np.linalg.cholesky(gmat)
    Linv = np.linalg.inv(L)
    reduced = Linv @ sym @ Linv.T
    w, u = np.linalg.eigh(0.5 * (reduced + reduced.T))
    vectors = (Linv.T @ u).T
    lam = float(np.max(np.abs(w)))
    groups = {"plus": [], "minus": [], "zero": []}
    for i, val in enumerate(w):
        dplus, dminus, dzero = abs(val - lam), abs(val + lam), abs(val)
        best = min(dplus, dminus, dzero)
        key = "zero" if best == dzero else "plus" if best == dplus else "minus"
        groups[key].append(i)
    gram = vectors @ gmat @ vectors.T
    xin = xi / math.sqrt(float(xi @ gmat @ xi))
    xi_res = 1.0
    for i in groups["zero"]:
        v = vectors[i]
        xi_res = min(xi_res, float(np.max(np.abs(v - xin))), float(np.max(np.abs(v + xin))))
    return {
        "eigenvalues": w, "vectors": vectors,
        "plus": np.isin(np.arange(len(w)), groups["plus"]),
        "minus": np.isin(np.arange(len(w)), groups["minus"]),
        "orthonormality_residual": float(np.max(np.abs(gram - np.eye(len(w))))),
        "xi_alignment_residual": xi_res,
    }


@pytest.fixture(params=["flat_bundle", "curved", "curved_rescaled"])
def non_sasakian(request):
    if request.param == "curved_rescaled":
        return d_homothety(request.getfixturevalue("curved"), 0.3)
    return request.getfixturevalue(request.param)


def test_h_eigendecomposition_batch_is_bit_identical_to_the_per_point_reference(non_sasakian):
    S = non_sasakian
    pts = S.chart.samples(12, seed=5)
    rep = h_eigendecomposition_batch(structure_values(S, pts))
    assert [f.name for f in dataclasses.fields(rep)] == [
        "eigenvalues", "vectors", "plus", "minus", "orthonormality_residual",
        "xi_alignment_residual"]
    for k, p in enumerate(pts):
        one = h_eigendecomposition(S, p)
        for name, want in _reference_eigen(S, p).items():
            got = getattr(rep, name)
            assert got.shape[0] == len(pts), name
            assert np.asarray(got[k]).tobytes() == np.asarray(want).tobytes(), name
            assert getattr(one, name).tobytes() == got[k:k + 1].tobytes(), name


def test_solve_reeb_batch_is_bit_identical_to_per_point_lstsq(any_entry):
    S = any_entry.structure
    pts = S.chart.samples(12, seed=6)
    batch = _solve_reeb(S.eta, pts)
    deta = exterior_derivative(S.eta)
    rhs = np.zeros(S.chart.dim + 1)
    rhs[-1] = 1.0
    for p, got in zip(pts, batch):
        rows = np.vstack([deta.values(p).T, S.eta.values(p)[None, :]])
        want, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        assert got.tobytes() == want.tobytes()


def _vanishing_at(S, pts, k):
    """The scalar field x0 - pts[k, 0], exactly zero at sample k only."""
    return Coord(0, S.chart.coord_names[0]) - Const(float(pts[k, 0]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_batch_rejections_name_the_failing_sample(flat_bundle):
    S = flat_bundle
    pts = S.chart.samples(6, seed=8)
    k = int(np.argmin(pts[:, 0]))
    where = f"sample {k} {pts[k].tolist()}"

    # h scaled by a factor that is zero at sample k only
    values = structure_values(S, pts)

    def scaled_h(factor):
        return dataclasses.replace(values, h=values.h * evaluate([factor], pts)[0][:, None, None])

    with pytest.raises(SasakianDegeneracyError, match=re.escape(where)):
        h_eigendecomposition_batch(scaled_h(_vanishing_at(S, pts, k)))

    # g scaled by a factor that is negative, then zero, at sample k only;
    # |h|_g is unchanged elsewhere
    shift = Const(0.5 * float(np.partition(pts[:, 0], 1)[1] - pts[k, 0]))
    for factor in (_vanishing_at(S, pts, k) - shift, _vanishing_at(S, pts, k)):
        S_g = dataclasses.replace(S, g=S.g.scale(factor))
        with pytest.raises(DegenerateMetricError, match=re.escape(where)):
            h_eigendecomposition_batch(structure_values(S_g, pts))

    # g or h multiplied by sqrt(f) / sqrt(f), where f < 0 at sample k only:
    # the factor is NaN there and 1 elsewhere
    f = _vanishing_at(S, pts, k) - shift
    nan_at_k = sqrt(f) / sqrt(f)
    S_g = dataclasses.replace(S, g=S.g.scale(nan_at_k))
    with pytest.raises(DegenerateMetricError, match=re.escape(f"not finite at {where}")):
        h_eigendecomposition_batch(structure_values(S_g, pts))
    with pytest.raises(GeometryError, match=re.escape(f"h is not finite at {where}")):
        h_eigendecomposition_batch(scaled_h(nan_at_k))

    # the Martinet form dz - y^2 dx is contact except on y = 0
    chart = Chart(("x", "y", "z"), ((-1, 1),) * 3)
    y = Coord(1, "y")
    eta = TensorField.covector(chart, [-(y * y), Const(0.0), Const(1.0)])
    batch = np.array([[0.1, 0.5, 0.2], [0.3, 0.0, 0.1], [-0.2, 0.7, 0.4]])
    with pytest.raises(NotContactError, match=re.escape("sample 1 [0.3, 0.0, 0.1]")):
        _solve_reeb(eta, batch)


@pytest.mark.parametrize("coord", [5.0, math.nan])
def test_batch_points_outside_the_chart_are_named_by_sample(flat_bundle, coord):
    """A coordinate beyond the box, or NaN, is outside; the batch route names
    the first such sample by index and coordinates, and rejects a batch of
    the wrong shape."""
    S = flat_bundle
    pts = S.chart.samples(5, seed=2)
    pts[3, 1] = coord
    pts[4, 0] = coord
    where = re.escape(f"point outside the chart domain at sample 3 {pts[3].tolist()}")
    with pytest.raises(DomainError, match=where):
        h_eigendecomposition_batch(structure_values(S, pts))
    for bad in (pts[0], pts[:, :2]):
        with pytest.raises(DomainError, match=re.escape("expected points of shape (n, 3)")):
            h_eigendecomposition_batch(structure_values(S, bad))


# every verifier that reads a record of values, called on inputs built from
# base points, with a zero t column where it reads the symplectization
RECORD_READERS = {
    "verify_compatibility": lambda S, B, pts: verify_compatibility(structure_values(S, pts)),
    "h_eigendecomposition_batch":
        lambda S, B, pts: h_eigendecomposition_batch(structure_values(S, pts)),
    "verify_kmu_curvature": lambda S, B, pts: verify_kmu_curvature(*kmu_inputs(S, pts), 0.0, 0.0),
    "verify_symplectization_build":
        lambda S, B, pts: verify_symplectization_build(B, *product_inputs(B, _lifted(pts))),
    "verify_fundamental_tensors":
        lambda S, B, pts: verify_fundamental_tensors(B, *product_inputs(B, _lifted(pts))),
    "verify_currel": lambda S, B, pts: verify_currel(B, *product_inputs(B, _lifted(pts))),
    "fit_symplectization_kmu":
        lambda S, B, pts: fit_symplectization_kmu(B, *product_inputs(B, _lifted(pts))),
}


def _lifted(pts):
    return np.column_stack([pts, np.zeros(len(pts))])


@pytest.mark.parametrize("name", list(RECORD_READERS))
def test_every_record_reader_rejects_a_point_outside_the_chart(flat_bundle, flat_bundle_symp,
                                                               name):
    """A verifier that reads a record takes no points: the record's builder
    checks them, so one base point outside the flat bundle's chart is a
    DomainError that names that sample."""
    pts = flat_bundle.chart.samples(6, seed=3)
    pts[4, 2] = 40.0
    where = re.escape(f"point outside the chart domain at sample 4 {pts[4].tolist()}")
    with pytest.raises(DomainError, match=where):
        RECORD_READERS[name](flat_bundle, flat_bundle_symp, pts)


@pytest.mark.parametrize("coord", [5.0, math.nan])
def test_one_point_eigendecomposition_names_an_outside_point_as_sample_zero(flat_bundle, coord):
    """The one-point route is the batch of one, and rejects like it."""
    S = flat_bundle
    p = S.chart.samples(1, seed=2)[0]
    p[1] = coord
    where = re.escape(f"point outside the chart domain at sample 0 {p.tolist()}")
    with pytest.raises(DomainError, match=where):
        h_eigendecomposition(S, p)
    with pytest.raises(DomainError, match=re.escape("expected points of shape (n, 3)")):
        h_eigendecomposition(S, p[:2])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_reeb_solve_rejects_a_non_finite_sample_before_lapack(sasakian, capfd):
    # eta x sqrt(x) / sqrt(x) is NaN at x < 0, here at sample 1 only
    S = sasakian
    x = Coord(0, "x")
    eta = S.eta.scale(sqrt(x) / sqrt(x))
    pts = np.array([[0.3, 0.1, 0.2], [-0.4, 0.2, 0.1], [0.5, -0.3, 0.0]])
    capfd.readouterr()
    with pytest.raises(NotContactError,
                       match=re.escape("eta or d eta is not finite at sample 1 [-0.4, 0.2, 0.1]")):
        _solve_reeb(eta, pts)
    # LAPACK's "On entry to DLASCL ..." goes through C stdio, which is
    # buffered until flushed
    ctypes.CDLL(None).fflush(None)
    assert capfd.readouterr() == ("", "")


def test_kmu_identities_match_the_loop_reference(non_sasakian):
    S = non_sasakian
    fit = fit_kappa_mu(S, 20)
    for kappa, mu in ((fit.kappa, fit.mu), (0.0, 0.5)):
        inputs = kmu_inputs(S, S.chart.samples(12, seed=3))
        got = tuple(verify_kmu_curvature(*inputs, kappa, mu).values())
        want = kmu_curvature_reference(S, kappa, mu, 12, seed=3)
        assert_allclose(got, want, rtol=0, atol=1e-13)


def test_kmu_identities_on_uneven_vector_sets_match_the_loop_reference(curved, monkeypatch):
    """Vector sets of different sizes per sample, two vectors in some, so that
    every index slot of the batched contractions is exercised; a sample
    with fewer vectors contributes only its own triples."""
    real = contact.h_eigendecomposition_batch

    def uneven(values):
        rep = real(values)
        # row indices in eigh's ascending order: -lam, 0, +lam
        sets = [((0, 2), ()), ((), (0, 1)), ((1, 2), (0, 1)), ((0,), (0, 1, 2))]
        plus, minus = np.zeros_like(rep.plus), np.zeros_like(rep.minus)
        for k in range(len(values.points)):
            p, m = sets[k % len(sets)]
            plus[k, list(p)] = True
            minus[k, list(m)] = True
        return dataclasses.replace(rep, plus=plus, minus=minus)

    monkeypatch.setattr(contact, "h_eigendecomposition_batch", uneven)
    for kappa, mu in ((0.0, 0.0), (0.3, -0.7), (40.0, 0.0), (0.0, -40.0)):
        pts = curved.chart.samples(10, seed=3)
        got = tuple(verify_kmu_curvature(*kmu_inputs(curved, pts), kappa, mu).values())
        want = kmu_curvature_reference(curved, kappa, mu, 10, seed=3)
        assert min(want) > 1e-3
        assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_kmu_identities_reject_wrong_constants(flat_bundle):
    inputs = kmu_inputs(flat_bundle, flat_bundle.chart.samples(20, seed=3))
    rep = verify_kmu_curvature(*inputs, 0.0, 0.5)
    assert rep["pmm"] > 1e-3
    assert rep["pmp"] > 1e-3
