"""Suite orchestration, the report schema, and determinism."""

import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest

from metsymp import contact, suite
from metsymp.catalog import catalog_load
from metsymp.contact import KmuReport, verify_compatibility, verify_kmu_curvature
from metsymp.errors import ConfigError
from metsymp.fields import TensorField
from metsymp.submersion import verify_currel, verify_fundamental_tensors, verify_ricci_relations
from metsymp.suite import (
    CHECK_ORDER,
    SuiteConfig,
    default_thresholds,
    report_emit,
    run_suite,
)
from metsymp.symplectization import translation_isomorphism_check, verify_symplectization_build


@pytest.fixture(scope="module")
def flat_report():
    return run_suite(catalog_load("unit-tangent-flat-plane"),
                     SuiteConfig(samples=25, seed=42))


@pytest.fixture(scope="module")
def sas_report():
    return run_suite(catalog_load("darboux-sasakian-r3"),
                     SuiteConfig(samples=25, seed=42))


def test_all_checks_pass(flat_report, sas_report):
    for rep in (flat_report, sas_report):
        failing = [c.id for c in rep.checks if not c.passed]
        assert failing == []
        assert rep.failed == 0 and rep.passed == len(CHECK_ORDER)


def test_check_order_and_anchor_coverage(flat_report):
    assert tuple(c.id for c in flat_report.checks) == CHECK_ORDER
    assert len(CHECK_ORDER) == 16
    for c in flat_report.checks:
        assert c.anchor.strip()
    # the headline identities each appear in exactly one anchor
    for needle, owner in [
        ("(kappa I + mu h)", "nullity_fit"),
        ("kappa'=(kappa+a^2-1)/a^2", "rescale_equivariance"),
        ("(1-mu/2)/sqrt(1-kappa)", "index_invariance"),
        ("2(1+lam)-mu", "eigenspace_curvature"),
        ("T_X Y=-(gbar(X,Y)+eta_t(X)eta_t(Y)) d_t", "fundamental_tensor"),
        ("gbar(R(d_t,X)d_t,Y)=g_t(X,Y)+3 eta_t(X)eta_t(Y)", "curvature_relations"),
        ("Ric(d_t,d_t)=-2n-4", "ricci_rows"),
        ("((kappa_t-2) I + mu_t h_t)", "symplectization_nullity"),
        ("(x,t)->(x,t+s)", "translation_isomorphism"),
        ("J xi_t=d_t", "symplectization_build"),
        ("d(i_Y omega)", "liouville"),
    ]:
        owners = [c.id for c in flat_report.checks if needle in c.anchor]
        assert owners == [owner], needle


def test_summary_constants(flat_report, sas_report):
    assert abs(flat_report.kappa) < 1e-9
    assert abs(flat_report.mu) < 1e-9
    assert abs(flat_report.index - 1.0) < 1e-9
    assert abs(sas_report.kappa - 1.0) < 1e-9
    assert sas_report.mu is None
    assert sas_report.index is None


def test_json_schema_fields_exact(flat_report):
    payload = json.loads(report_emit(flat_report, "json"))
    assert sorted(payload) == ["checks", "config", "entry", "summary"]
    assert sorted(payload["config"]) == ["samples", "seed", "t_range", "thresholds"]
    assert list(payload["config"]["thresholds"].items()) == list(default_thresholds().items())
    assert [c["threshold"] for c in payload["checks"]] == list(default_thresholds().values())
    assert sorted(payload["summary"]) == ["failed", "index", "kappa", "mu", "passed"]
    for check in payload["checks"]:
        assert sorted(check) == ["anchor", "id", "pass", "residual", "threshold"]
    assert payload["entry"] == "unit-tangent-flat-plane"
    assert payload["summary"]["passed"] == 16
    assert payload["summary"]["failed"] == 0


def test_json_round_trip_and_determinism(flat_report):
    raw1 = report_emit(flat_report, "json")
    raw2 = report_emit(flat_report, "json")
    assert raw1 == raw2
    payload = json.loads(raw1)
    assert json.dumps(payload, indent=2, ensure_ascii=True).encode() + b"\n" == raw1


def test_text_format_one_line_per_check(flat_report):
    text = report_emit(flat_report, "text").decode()
    lines = [l for l in text.splitlines() if l.startswith("[")]
    assert len(lines) == 16
    for line, check in zip(lines, flat_report.checks):
        assert check.id in line
        assert check.anchor in line
    assert "summary:" in text.splitlines()[-1]


def test_unknown_format_rejected(flat_report):
    with pytest.raises(ConfigError):
        report_emit(flat_report, "xml")


def test_reports_reproducible():
    entry = catalog_load("darboux-sasakian-r3")
    cfg = SuiteConfig(samples=10, seed=7)
    r1 = run_suite(entry, cfg)
    r2 = run_suite(entry, cfg)
    for c1, c2 in zip(r1.checks, r2.checks):
        assert c1.residual == c2.residual
        assert c1.passed == c2.passed
    assert report_emit(r1, "json") == report_emit(r2, "json")


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(samples=0)
    with pytest.raises(ConfigError):
        SuiteConfig(t_range=(1.0, -1.0))
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        SuiteConfig(seed=-1)


def test_check_errors_are_recorded_not_raised(monkeypatch):
    """A check that raises must not abort the run."""
    def sabotaged(run):
        raise RuntimeError("sabotaged")

    table = list(suite._TABLE)
    table[0] = dataclasses.replace(table[0], run=sabotaged)
    monkeypatch.setattr(suite, "_TABLE", tuple(table))
    rep = run_suite(catalog_load("darboux-sasakian-r3"), SuiteConfig(samples=8, seed=1))
    comp = rep.checks[0]
    assert comp.id == "compatibility"
    assert not comp.passed
    assert comp.residual == math.inf
    assert comp.error == "RuntimeError: sabotaged"
    assert rep.failed == 1
    # remaining checks still executed
    assert len(rep.checks) == 16


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_residuals_fail_and_are_reported_as_inf(nan_masked_sasakian_entry):
    rep = run_suite(nan_masked_sasakian_entry, SuiteConfig(samples=10, seed=42))
    by_id = {c.id: c for c in rep.checks}
    for check_id in ("compatibility", "rescale_equivariance"):
        assert by_id[check_id].residual == math.inf
        assert not by_id[check_id].passed
    assert not any(math.isnan(c.residual) for c in rep.checks)


@pytest.mark.parametrize("short_norms, expected", [
    ([0.5, 0.7], 0.0),
    ([0.5, 0.004], 1e-2 - 0.004),
    ([0.5, math.nan], math.inf),
])
def test_integrability_floor_off_the_sasakian_case(monkeypatch, sasakian_entry, sasakian_symp,
                                                   short_norms, expected):
    """Off h = 0 both torsion norms must clear 1e-2; a NaN norm fails."""
    norms = iter([np.array([0.9, 0.8]), np.array(short_norms)])
    monkeypatch.setattr(suite, "nijenhuis", lambda J: J)
    monkeypatch.setattr(suite, "nijenhuis_norms", lambda N, g, pts: next(norms))
    monkeypatch.setattr(suite, "build_metric_symplectization", lambda S, t_range: sasakian_symp)
    monkeypatch.setattr(suite, "fit_kappa_mu", lambda S, n, seed: KmuReport(
        kappa=0.0, mu=0.0, residual=0.0, sasakian_flag=False, lam=1.0))
    run = suite._Run(sasakian_entry, SuiteConfig(samples=2))
    residual = suite._check_integrability(run)
    assert residual == expected


def test_a_run_fits_and_rescales_each_structure_once(monkeypatch, flat_bundle_entry):
    """On the non-Sasakian flat bundle: one fit of the structure and one refit
    per rescale factor, which index_invariance reads from rescale_equivariance;
    one rescale per factor and the one the translation check compares with.
    Every name that binds either function in the package is counted."""
    counts = {"fit_kappa_mu": 0, "d_homothety": 0}
    reals = {name: getattr(contact, name) for name in counts}
    for module in [m for name, m in sys.modules.items() if name.startswith("metsymp")]:
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                def counted(*args, _real=real, _name=name, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    rep = run_suite(flat_bundle_entry, SuiteConfig(samples=10, seed=42))
    assert rep.all_passed
    assert counts == {"fit_kappa_mu": 4, "d_homothety": 4}


def test_rescaled_structures_are_built_once_per_run(monkeypatch):
    built = []
    real = suite.d_homothety
    monkeypatch.setattr(suite, "d_homothety", lambda S, a: built.append(a) or real(S, a))
    run_suite(catalog_load("unit-tangent-flat-plane"), SuiteConfig(samples=10, seed=42))
    assert sorted(a for a in built if a in suite._RESCALE_FACTORS) == sorted(suite._RESCALE_FACTORS)


def test_the_rescale_check_evaluates_xi_and_h_of_the_structure_once(flat_bundle_entry,
                                                                     monkeypatch):
    """Every factor reads the same samples, so xi and h of the structure are
    evaluated there once, not once per factor."""
    run = suite._Run(flat_bundle_entry, SuiteConfig(samples=20, seed=42))
    suite._check_nullity_fit(run)
    S = run.S
    evaluated = []
    real = TensorField.values

    def values(field, pts):
        if field is S.xi or field is S.h:
            evaluated.append(field)
        return real(field, pts)

    monkeypatch.setattr(TensorField, "values", values)
    assert suite._check_rescale_equivariance(run) < 1e-6
    assert len(evaluated) == 2 and evaluated[0] is not evaluated[1]


def test_index_invariance_on_shared_structures_is_bit_identical(flat_bundle_entry):
    """Structures already evaluated by the rescale check give the same bits as fresh ones."""
    cfg = SuiteConfig(samples=20, seed=42)
    factors = suite._RESCALE_FACTORS
    shared = suite._Run(flat_bundle_entry, cfg)
    suite._check_nullity_fit(shared)
    suite._check_rescale_equivariance(shared)
    warm = {a: shared.peek(("rescaled", a)) for a in factors}
    assert None not in warm.values()
    residual = suite._check_index_invariance(shared)
    assert all(shared.rescaled(a) is warm[a] for a in factors)
    fresh = suite._Run(flat_bundle_entry, cfg)
    suite._check_nullity_fit(fresh)
    assert suite._check_index_invariance(fresh) == residual
    assert all(fresh.rescaled(a) is not warm[a] for a in factors)


def test_index_invariance_builds_the_structures_when_the_rescale_check_raised(monkeypatch):
    def broken(run):
        raise RuntimeError("rescale check broke")

    monkeypatch.setattr(suite, "_TABLE", tuple(
        dataclasses.replace(c, run=broken) if c.id == "rescale_equivariance" else c
        for c in suite._TABLE))
    rep = run_suite(catalog_load("unit-tangent-flat-plane"), SuiteConfig(samples=10, seed=42))
    checks = {c.id: c for c in rep.checks}
    assert checks["rescale_equivariance"].error == "RuntimeError: rescale check broke"
    assert checks["index_invariance"].passed


def test_index_invariance_on_h_zero_fails_when_a_refit_has_h(monkeypatch, sasakian_entry):
    """Where h = 0 the index is undefined, and h' = h/a keeps it undefined on
    every rescale: the check reads the rescale check's refits, and one that
    reports h' != 0 fails it."""
    cfg = SuiteConfig(samples=10, seed=42)
    assert suite._check_index_invariance(suite._Run(sasakian_entry, cfg)) == 0.0
    run = suite._Run(sasakian_entry, cfg)
    S2 = run.rescaled(2.0)
    real = suite.fit_kappa_mu

    def fit(S, n, seed):
        rep = real(S, n, seed=seed)
        return dataclasses.replace(rep, sasakian_flag=False, mu=0.0, lam=0.0) if S is S2 else rep

    monkeypatch.setattr(suite, "fit_kappa_mu", fit)
    assert suite._check_index_invariance(run) == math.inf


# the named residuals of each verifier a check reduces, in order
VERIFIER_KEYS = [
    ("compatibility", lambda S, B: verify_compatibility(S, 4, seed=1),
     ["reeb_pairing", "phi_square", "deta_pairing"]),
    ("eigenspace_curvature", lambda S, B: verify_kmu_curvature(S, 0.0, 0.0, 4, seed=1),
     ["ppm", "mmp", "pmm", "pmp", "ppp", "mmm"]),
    ("symplectization_build", lambda S, B: verify_symplectization_build(B, 4, seed=1),
     ["J_xi_t", "J_d_t", "J_on_distribution", "slice_block", "omega_pairing", "unique_acs"]),
    ("fundamental_tensor", lambda S, B: verify_fundamental_tensors(B, 4, seed=1),
     ["vertical_pair", "mixed_pair"]),
    ("curvature_relations", lambda S, B: verify_currel(B, 4, seed=1),
     ["vertical_part", "horizontal_part", "radial_relation"]),
    ("ricci_rows", lambda S, B: verify_ricci_relations(B, 4, seed=1),
     ["distribution_block", "distribution_reeb", "distribution_line", "reeb_line",
      "reeb_reeb", "line_line"]),
    ("translation_isomorphism", lambda S, B: translation_isomorphism_check(B, 0.3, 4, seed=1),
     ["omega", "metric"]),
]


@pytest.mark.parametrize("check_id, verifier, keys", VERIFIER_KEYS,
                         ids=[row[0] for row in VERIFIER_KEYS])
def test_each_verifier_emits_its_keys_in_order(check_id, verifier, keys, flat_bundle,
                                               flat_bundle_symp):
    assert check_id in CHECK_ORDER
    assert list(verifier(flat_bundle, flat_bundle_symp)) == keys


KMU_READERS = ("nullity_fit", "h_eigenstructure", "eigenspace_curvature", "rescale_equivariance",
               "index_invariance", "symplectization_nullity", "integrability")
B_READERS = ("symplectization_build", "liouville", "fundamental_tensor", "curvature_relations",
             "ricci_rows", "symplectization_nullity", "integrability", "translation_isomorphism")


@pytest.mark.parametrize("artifact, readers", [
    ("fit_kappa_mu", KMU_READERS),
    ("build_metric_symplectization", B_READERS),
])
def test_a_raising_artifact_is_the_error_of_every_check_that_reads_it(monkeypatch, artifact,
                                                                      readers):
    """Each reader records the build's own error, and the build runs once."""
    entry = catalog_load("darboux-sasakian-r3")
    real, calls = getattr(suite, artifact), []

    def build(S, *args, **kwargs):
        if S is entry.structure:
            calls.append(S)
            raise RuntimeError(f"{artifact} broke")
        return real(S, *args, **kwargs)

    monkeypatch.setattr(suite, artifact, build)
    rep = run_suite(entry, SuiteConfig(samples=8, seed=1))
    assert len(calls) == 1
    for c in rep.checks:
        if c.id in readers:
            assert c.error == f"RuntimeError: {artifact} broke", c.id
            assert c.residual == math.inf and not c.passed
        else:
            assert c.error is None and c.passed, c.id
    if artifact == "fit_kappa_mu":
        assert rep.kappa is None and rep.mu is None and rep.index is None


def test_a_nan_structure_runs_the_suite_without_warnings(nan_masked_sasakian_entry):
    """The report records the NaN defects as inf; the library outside the suite still warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_suite(nan_masked_sasakian_entry, SuiteConfig(samples=10, seed=42))
    assert [str(w.message) for w in caught] == []
    assert rep.failed > 0
    with pytest.warns(RuntimeWarning, match="invalid value"):
        verify_compatibility(nan_masked_sasakian_entry.structure, 10)
