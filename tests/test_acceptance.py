"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every test prints one pass/fail line (run pytest with -s to see them all)
and then asserts.  Expected constants are the ones the package's built-in
structures are calibrated to realize: the R^3 model is the h = 0 entry
with kappa = 1 and the flat-plane bundle is the (0, 0) entry with
h eigenvalues {0, +1, -1}; n = 1 for both, so the line-line Ricci value
is -2n - 4 = -6.
"""

import math

import numpy as np
import pytest

from metsymp.catalog import catalog_load
from metsymp.contact import (
    boeckx_index,
    d_homothety,
    fit_kappa_mu,
    h_eigendecomposition,
    kappa_mu_after_rescale,
    structure_values,
    verify_compatibility,
    verify_kmu_curvature,
)
from metsymp.curvature import christoffel_batch, riemann_components
from metsymp.fields import TensorField, sup_norm
from metsymp.submersion import (
    fit_symplectization_kmu,
    verify_currel,
    verify_fundamental_tensors,
)
from metsymp.symplectization import (
    build_metric_symplectization,
    nijenhuis_norms,
    nijenhuis_values,
    slice_structure,
    translation_isomorphism_check,
    verify_liouville,
    verify_symplectization_build,
)

from fd_oracle import fd_christoffel, fd_riemann
from inputs import kmu_inputs, product_inputs, slice_inputs
from loop_references import natural_acs_reference

SASAKIAN = catalog_load("darboux-sasakian-r3")
FLAT = catalog_load("unit-tangent-flat-plane")
B_SAS = build_metric_symplectization(SASAKIAN.structure)
B_FLAT = build_metric_symplectization(FLAT.structure)
BOTH = ((SASAKIAN, B_SAS), (FLAT, B_FLAT))

# one line per criterion; echoed in the terminal summary by conftest
CRITERION_LINES: list[str] = []


def _report(number: int, label: str, residual: float, tol: float) -> None:
    ok = residual < tol
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {label} "
            f"(residual {residual:.3e}, tolerance {tol:.1e})")
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {number} failed: {label} residual {residual:.3e}"


def test_criterion_01_compatibility_axioms():
    records = [structure_values(e.structure, e.structure.chart.samples(100)) for e, _ in BOTH]
    residual = max(sup_norm(*verify_compatibility(values).values()) for values in records)
    _report(1, "structure axioms on both entries, 100 samples", residual, 1e-8)


def test_criterion_02_nullity_fit():
    rf = fit_kappa_mu(FLAT.structure, 50)
    rs = fit_kappa_mu(SASAKIAN.structure, 50)
    residual = max(abs(rf.kappa), abs(rf.mu), rf.residual,
                   abs(rs.kappa - 1.0), rs.residual)
    if rs.mu is not None or not rs.sasakian_flag:
        residual = float("inf")
    _report(2, "fit: flat bundle (0,0); R^3 model kappa=1, mu undefined",
            residual, 1e-6)


def test_criterion_03_rescale_covariance_and_index():
    S = FLAT.structure
    base = fit_kappa_mu(S, 40)
    residual = 0.0
    for a in (0.5, 2.0, math.e):
        rep = fit_kappa_mu(d_homothety(S, a), 40)
        kp, mp = kappa_mu_after_rescale(base.kappa, base.mu, a)
        residual = max(residual, abs(rep.kappa - kp), abs(rep.mu - mp),
                       abs(boeckx_index(rep.kappa, rep.mu)
                           - boeckx_index(base.kappa, base.mu)))
    spot = fit_kappa_mu(d_homothety(S, 2.0), 40)
    residual = max(residual, abs(spot.kappa - 0.75), abs(spot.mu - 1.0),
                   abs(boeckx_index(spot.kappa, spot.mu) - 1.0))
    _report(3, "rescale covariance for a in {1/2, 2, e}; spot (3/4, 1), index 1",
            residual, 1e-6)


def test_criterion_04_eigenspace_curvature_block():
    S = FLAT.structure
    rep = fit_kappa_mu(S, 30)
    residual = sup_norm(*verify_kmu_curvature(*kmu_inputs(S, S.chart.samples(30)),
                                              rep.kappa, rep.mu).values())
    a = float(np.random.default_rng(42).uniform(0.5, 3.0))
    S2 = d_homothety(S, a)
    rep2 = fit_kappa_mu(S2, 30)
    residual = max(residual, sup_norm(*verify_kmu_curvature(*kmu_inputs(S2, S2.chart.samples(30)),
                                                            rep2.kappa, rep2.mu).values()))
    _report(4, f"six eigenspace identities, flat bundle and its a={a:.3f} rescale",
            residual, 1e-6)


def test_criterion_05_h_identities():
    residual = 0.0
    for entry, _ in BOTH:
        S = entry.structure
        rep = fit_kappa_mu(S, 40)
        pts = S.chart.samples(40)
        hv = S.h.values(pts)
        pv = S.phi.values(pts)
        h2 = np.einsum("nia,naj->nij", hv, hv)
        p2 = np.einsum("nia,naj->nij", pv, pv)
        residual = max(residual, float(np.max(np.abs(h2 + (1.0 - rep.kappa) * p2))))
    lam = math.sqrt(1.0 - fit_kappa_mu(FLAT.structure, 40).kappa)
    for p in FLAT.structure.chart.samples(10):
        eig = h_eigendecomposition(FLAT.structure, p)
        target = np.array([-lam, 0.0, lam])
        residual = max(residual,
                       float(np.max(np.abs(np.sort(eig.eigenvalues) - target))))
    _report(5, "h^2 = -(1-kappa) phi^2 and spectrum {0, +-sqrt(1-kappa)}",
            residual, 1e-6)


def test_criterion_06_metric_symplectization():
    residual = 0.0
    for entry, B in BOTH:
        S = entry.structure
        res = verify_symplectization_build(B, *product_inputs(B, B.chart.samples(50)))
        residual = max(residual, res["J_xi_t"], res["J_d_t"], res["J_on_distribution"],
                       res["slice_block"], res["omega_pairing"])
        pts = S.chart.samples(30)
        for t0 in (-0.5, 0.3):
            sl = slice_structure(B, t0)
            dh = d_homothety(S, math.exp(2.0 * t0))
            for f1, f2 in ((sl.eta, dh.eta), (sl.g, dh.g), (sl.phi, dh.phi)):
                residual = max(residual,
                               float(np.max(np.abs(f1.values(pts) - f2.values(pts)))))
    _report(6, "acs table; gbar = g_t + dt^2 compatible with omega; slices are rescales",
            residual, 1e-10)


def test_criterion_07_liouville_property():
    residual = 0.0
    for _, B in BOTH:
        dt = TensorField.coordinate_vector(B.chart, B.chart.dim - 1)
        residual = max(residual, verify_liouville(B.omega, dt, B.chart.samples(50))["cartan"])
    _report(7, "expansion property of the line field (Cartan evaluation)",
            residual, 1e-9)


def test_criterion_08_fundamental_tensor_and_a_zero():
    residual = 0.0
    for _, B in BOTH:
        rep = verify_fundamental_tensors(B, *product_inputs(B, B.chart.samples(100)))
        residual = max(residual, sup_norm(*rep.values()))
    _report(8, "closed form of T and A = 0 at 100 samples", residual, 1e-7)


def test_criterion_09_curvature_relations():
    residual = 0.0
    for _, B in BOTH:
        rep = verify_currel(B, *product_inputs(B, B.chart.samples(50)))
        residual = max(residual, sup_norm(*list(rep.values())[:3]))
    _report(9, "the four curvature relations on both symplectizations",
            residual, 1e-6)


def test_criterion_10_ricci_table():
    residual = 0.0
    for _, B in BOTH:
        rep = verify_currel(B, *product_inputs(B, B.chart.samples(50)))
        residual = max(residual, sup_norm(*list(rep.values())[3:]))
    _report(10, "Ricci rows; line-line entry -6 on both entries (n = 1)",
            residual, 1e-6)


def test_criterion_11_slice_nullity_relation():
    base = fit_kappa_mu(FLAT.structure, 30)
    fit = fit_symplectization_kmu(B_FLAT, *slice_inputs(B_FLAT, (-0.5, 0.0, 0.5),
                                                        B_FLAT.base.chart.samples(30)))
    residual = max(fit.residual, abs(fit.kappa - base.kappa), abs(fit.mu - base.mu))
    _report(11, "slice nullity (kappa_t - 2, mu_t) at t in {-1/2, 0, 1/2}, one fit of the"
            " base (kappa, mu) through the D-homothety law", residual, 1e-5)


def test_criterion_12_integrability_dichotomy():
    pts_s = B_SAS.chart.samples(40)
    sas_norms = [nijenhuis_norms(nijenhuis_values(J, pts_s), B_SAS.gbar.values(pts_s))
                 for J in (B_SAS.J, natural_acs_reference(SASAKIAN.structure))]
    sas_max = max(float(np.max(n)) for n in sas_norms)
    pts_f = B_FLAT.chart.samples(40)
    flat_norms = [nijenhuis_norms(nijenhuis_values(J, pts_f), B_FLAT.gbar.values(pts_f))
                  for J in (B_FLAT.J, natural_acs_reference(FLAT.structure))]
    flat_min = min(float(np.min(n)) for n in flat_norms)
    ok = sas_max < 1e-8 and flat_min > 1e-2
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion 12: torsion < 1e-8 on the "
            f"h=0 entry ({sas_max:.3e}) and > 1e-2 off it ({flat_min:.3e})")
    CRITERION_LINES.append(line)
    print(line)
    assert ok


def test_criterion_13_translation_isomorphism():
    residual = 0.0
    for _, B in BOTH:
        rep = translation_isomorphism_check(B, 0.3, B.chart.samples(30))
        residual = max(residual, rep["omega"], rep["metric"])
    _report(13, "translation by 0.3 matches the rescaled symplectization data",
            residual, 1e-8)


def test_criterion_14_difference_oracle_equivalence():
    residual = 0.0
    metrics = [(e.structure.chart, e.structure.g) for e, _ in BOTH]
    metrics += [(B.chart, B.gbar) for _, B in BOTH]
    for chart, g in metrics:
        pts = chart.samples(3, seed=29)
        data = christoffel_batch(g, pts)
        riem = riemann_components(data)
        for k, p in enumerate(pts):
            residual = max(residual,
                           float(np.max(np.abs(data.gamma[k] - fd_christoffel(g, p)))))
            residual = max(residual, float(np.max(np.abs(riem[k] - fd_riemann(g, p)))))
    _report(14, "jet connection and curvature against the difference oracle",
            residual, 1e-5)
