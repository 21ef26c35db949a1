"""Suite orchestration, the report schema, and determinism."""

import collections
import dataclasses
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import metsymp
from metsymp import contact, curvature, fields, suite, symplectization
from metsymp.catalog import CatalogEntry, catalog_load
from metsymp.charts import Chart
from metsymp.contact import (
    KmuReport,
    structure_values,
    verify_compatibility,
    verify_kmu_curvature,
)
from metsymp.errors import ConfigError, GeometryError, NotContactError
from metsymp.expressions import Const
from metsymp.fields import TensorField, sup_norm
from metsymp.structfile import load_structure_file
from metsymp.submersion import fit_symplectization_kmu, verify_currel, verify_fundamental_tensors
from metsymp.suite import (
    CHECK_ORDER,
    SuiteConfig,
    default_thresholds,
    report_emit,
    run_suite,
)
from metsymp.symplectization import (
    extend_to_product,
    extended_slice_form,
    translation_isomorphism_check,
    verify_symplectization_build,
)

from inputs import (
    evaluate_calls,
    field_walks,
    kmu_inputs,
    product_inputs,
    spy_everywhere,
    wrap_structure_fit,
)


DATA = Path(__file__).parent / "data"


def _file_entry(name):
    return CatalogEntry(name=name, structure=load_structure_file(DATA / name),
                        expected_kappa=None, expected_mu=None, description="structure file")


@pytest.fixture(scope="module")
def sasakian_r5_entry():
    """The standard Sasakian R^5 of test_dimension_five.py, as a structure file."""
    return _file_entry("sasakian_r5.txt")


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
        assert sorted(check) == ["anchor", "error", "id", "pass", "residual", "threshold"]
        assert check["error"] is None
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
    """Off h = 0 the torsion norm must clear 1e-2; a NaN norm fails."""
    monkeypatch.setattr(suite, "nijenhuis_values", lambda J, pts: J)
    monkeypatch.setattr(suite, "nijenhuis_norms", lambda nv, g: np.array(short_norms))
    monkeypatch.setattr(suite, "build_metric_symplectization", lambda S, t_range: sasakian_symp)
    wrap_structure_fit(monkeypatch, lambda fit: KmuReport(
        kappa=0.0, mu=0.0, residual=0.0, sasakian_flag=False, lam=1.0))
    run = suite._Run(sasakian_entry, SuiteConfig(samples=2))
    residual = suite._check_integrability(run)
    assert residual == expected


@pytest.mark.parametrize("entry", ["unit-tangent-flat-plane", "darboux-sasakian-r3"])
def test_a_suite_run_builds_one_torsion(monkeypatch, entry):
    """integrability reads the metric J's torsion only: the classical J is
    the metric one seen through F(x, t) = (x, -exp(-2t)/2), and the package
    no longer exports it.  The torsion's values come from one order-1 walk
    of the metric J."""
    built = []
    real = suite.nijenhuis_values
    monkeypatch.setattr(suite, "nijenhuis_values",
                        lambda J, pts: built.append(J) or real(J, pts))
    rep = run_suite(catalog_load(entry), SuiteConfig(samples=10, seed=42))
    assert rep.all_passed
    assert len(built) == 1
    assert not hasattr(metsymp, "natural_acs")


def test_no_run_or_refit_builds_a_symbolic_h_or_torsion(monkeypatch):
    """h and the torsion come from first partials of xi, phi and J: a suite
    run, and the fit of a rescaled structure, build no Lie derivative and
    no symbolic torsion.  Every name that binds either function in the
    package is counted; the symbolic h and N(J), read afterwards, are."""
    counts = {"lie_derivative": 0, "nijenhuis": 0}
    reals = {"lie_derivative": fields.lie_derivative, "nijenhuis": symplectization.nijenhuis}
    for module in [m for name, m in sys.modules.items() if name.startswith("metsymp")]:
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                def counted(*args, _real=real, _name=name, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    for name in ("unit-tangent-flat-plane", "darboux-sasakian-r3"):
        entry = catalog_load(name)
        assert run_suite(entry, SuiteConfig(samples=10, seed=42)).all_passed
        assert contact.fit_kappa_mu(contact.d_homothety(entry.structure, 2.0), 30,
                                    seed=42).residual < 1e-6
    assert counts == {"lie_derivative": 0, "nijenhuis": 0}
    entry.structure.h
    metsymp.nijenhuis(metsymp.build_metric_symplectization(entry.structure).J)
    assert counts == {"lie_derivative": 1, "nijenhuis": 1}


@pytest.mark.parametrize("entry", ["unit-tangent-flat-plane", "darboux-sasakian-r3"])
def test_a_suite_run_forms_one_riemann_tensor_per_connection(monkeypatch, entry):
    """Every connection record carries its curvature, formed when it is
    built, and no reader forms it again: as many riemann_components calls
    as connections (six christoffel_batch walks and gbar's slice).  Every
    name that binds either function in the package is counted."""
    counts = {"riemann_components": 0, "christoffel_from_blocks": 0}
    reals = {name: getattr(curvature, name) for name in counts}
    for module in [m for name, m in sys.modules.items() if name.startswith("metsymp")]:
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                def counted(*args, _real=real, _name=name, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    rep = run_suite(catalog_load(entry), SuiteConfig(samples=10, seed=42))
    assert rep.all_passed
    assert counts == {"riemann_components": 7, "christoffel_from_blocks": 7}


def test_a_run_fits_and_rescales_each_structure_once(monkeypatch, flat_bundle_entry):
    """On the non-Sasakian flat bundle: one fit of the structure from its
    record, with no call of fit_kappa_mu, which would draw and evaluate
    again, and one refit per rescale factor from the rescale's record, which
    index_invariance reads from rescale_equivariance; every fit runs kmu_fit
    once.  One rescale per factor and the one the
    translation check compares with.  Every name that binds one of the
    functions in the package is counted."""
    counts = {"fit_kappa_mu": 0, "kmu_fit": 0, "d_homothety": 0}
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
    assert counts == {"fit_kappa_mu": 0, "kmu_fit": 4, "d_homothety": 4}


def test_rescaled_structures_are_built_once_per_run(monkeypatch):
    built = []
    real = suite.d_homothety
    monkeypatch.setattr(suite, "d_homothety", lambda S, a: built.append(a) or real(S, a))
    run_suite(catalog_load("unit-tangent-flat-plane"), SuiteConfig(samples=10, seed=42))
    assert sorted(a for a in built if a in suite._RESCALE_FACTORS) == sorted(suite._RESCALE_FACTORS)


def test_the_rescale_check_evaluates_xi_and_h_of_the_structure_once(flat_bundle_entry,
                                                                     monkeypatch):
    """Every factor reads the same samples, so xi and h of the structure are
    formed there once, not once per factor.  The structure's record and the
    three rescale records come from one family walk per order: xi and phi
    of all four at order 1, for h, with phi, the tree d_homothety(S, a)
    shares with S, walked once; eta, d eta and g at order 0.  The
    structure's fit, which the rescale law reads, reads its record; its
    connection and the three refits' are the only other walks, at order 2."""
    run = suite._Run(flat_bundle_entry, SuiteConfig(samples=20, seed=42))
    S = run.S
    calls, walks = evaluate_calls(monkeypatch), field_walks(monkeypatch)
    suite._check_nullity_fit(run)
    assert suite._check_rescale_equivariance(run) < 1e-6
    factors = len(suite._RESCALE_FACTORS)
    assert sorted(calls) == [(20, 0), (20, 1)] + [(20, 2)] * (1 + factors)
    assert [order for field, order, _ in walks if field is S.xi] == [1]
    assert [order for field, order, _ in walks if field is S.phi] == [1]
    rescaled_xi = [f for f, order, _ in walks if f.r == 1 and f.s == 0 and f is not S.xi]
    assert len(rescaled_xi) == len({id(f) for f in rescaled_xi}) == factors


def test_index_invariance_on_shared_structures_is_bit_identical(flat_bundle_entry):
    """Structures already evaluated by the rescale check give the same bits as fresh ones."""
    cfg = SuiteConfig(samples=20, seed=42)
    factors = suite._RESCALE_FACTORS
    shared = suite._Run(flat_bundle_entry, cfg)
    suite._check_nullity_fit(shared)
    suite._check_rescale_equivariance(shared)
    warm = {a: shared.peek(("rescaled", a, 30)) for a in factors}
    assert None not in warm.values()
    residual = suite._check_index_invariance(shared)
    assert all(shared.rescaled(a, 30) is warm[a] for a in factors)
    fresh = suite._Run(flat_bundle_entry, cfg)
    suite._check_nullity_fit(fresh)
    assert suite._check_index_invariance(fresh) == residual
    assert all(fresh.rescaled(a, 30) is not warm[a] for a in factors)


def test_a_rescale_that_fails_to_build_fails_only_the_checks_that_read_it(monkeypatch,
                                                                          flat_bundle_entry):
    """The family walk leaves out a rescale whose build raised: the two
    rescale checks record its error with its factor, and every other check
    passes on the structure's record and the other rescales'."""
    real = suite.d_homothety

    def rescale(S, a):
        if a == 2.0:
            raise NotContactError("the form is contact nowhere")
        return real(S, a)

    monkeypatch.setattr(suite, "d_homothety", rescale)
    rep = run_suite(flat_bundle_entry, SuiteConfig(samples=10, seed=42))
    failed = {c.id: c.error for c in rep.checks if not c.passed}
    assert failed == dict.fromkeys(
        ["rescale_equivariance", "index_invariance"],
        "NotContactError: rescale by a=2: the form is contact nowhere")


def test_a_run_reads_only_the_rescales_of_its_factors():
    """A run whose commands read no rescale builds none, and one factor
    outside the run's family is refused rather than walked on its own."""
    run = suite._Run(catalog_load("unit-tangent-flat-plane"), SuiteConfig(samples=5, seed=1),
                     factors=())
    suite._check_compatibility(run)
    assert list(run._built) == ["records"]
    with pytest.raises(ValueError, match="not one of the run's"):
        run.rescaled(2.0, 5)


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
    _, record = run.rescaled(2.0, 30)
    real = suite.kmu_fit

    def fit(data, eta, xi, h):
        rep = real(data, eta, xi, h)
        return (dataclasses.replace(rep, sasakian_flag=False, mu=0.0, lam=0.0)
                if xi is record.xi else rep)

    monkeypatch.setattr(suite, "kmu_fit", fit)
    assert suite._check_index_invariance(run) == math.inf


def _inputs(B):
    return product_inputs(B, B.chart.samples(4, seed=1))


CURREL_KEYS = ["vertical_part", "horizontal_part", "radial_relation", "distribution_block",
               "distribution_reeb", "distribution_line", "reeb_line", "reeb_reeb", "line_line"]

# the named residuals of each verifier a check reduces, in order; the
# curvature_relations check reduces the first three keys of verify_currel
# and the ricci_rows check the last six
VERIFIER_KEYS = [
    ("compatibility",
     lambda S, B: verify_compatibility(structure_values(S, S.chart.samples(4, seed=1))),
     ["reeb_pairing", "phi_square", "deta_pairing"]),
    ("eigenspace_curvature",
     lambda S, B: verify_kmu_curvature(*kmu_inputs(S, S.chart.samples(4, seed=1)), 0.0, 0.0),
     ["ppm", "mmp", "pmm", "pmp", "ppp", "mmm"]),
    ("symplectization_build",
     lambda S, B: verify_symplectization_build(B, *_inputs(B)),
     ["J_xi_t", "J_d_t", "J_on_distribution", "slice_block", "omega_pairing", "unique_acs"]),
    ("fundamental_tensor", lambda S, B: verify_fundamental_tensors(B, *_inputs(B)),
     ["vertical_pair", "mixed_pair"]),
    ("curvature_relations", lambda S, B: verify_currel(B, *_inputs(B)), CURREL_KEYS),
    ("ricci_rows", lambda S, B: list(verify_currel(B, *_inputs(B)))[3:], CURREL_KEYS[3:]),
    ("translation_isomorphism",
     lambda S, B: translation_isomorphism_check(B, 0.3, B.chart.samples(4, seed=1)),
     ["omega", "metric"]),
]


@pytest.mark.parametrize("check_id, verifier, keys", VERIFIER_KEYS,
                         ids=[row[0] for row in VERIFIER_KEYS])
def test_each_verifier_emits_its_keys_in_order(check_id, verifier, keys, flat_bundle,
                                               flat_bundle_symp):
    assert check_id in CHECK_ORDER
    assert list(verifier(flat_bundle, flat_bundle_symp)) == keys


def _record_runs(monkeypatch) -> list:
    """The list of the suite runs built from here on, in order."""
    runs = []

    class Recorded(suite._Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(suite, "_Run", Recorded)
    return runs


def test_a_run_computes_the_connection_of_gbar_once(monkeypatch, flat_bundle_entry):
    """christoffel_batch meets gbar once per run, on the run's product
    points: the connection that fundamental_tensor, curvature_relations,
    ricci_rows and symplectization_nullity read.  The other five calls
    walk the structure's metric and its rescales: the (kappa, mu) fit, the
    eigenspace check and the three refits.  The four residuals are the
    verifiers' on that connection.  Every name that binds christoffel_batch
    in the package is counted."""
    built, walks, calls = [], [], []
    real_build, real_walk = suite.build_metric_symplectization, curvature.christoffel_batch

    def build(S, t_range):
        built.append(real_build(S, t_range))
        return built[-1]

    def walk(g, points):
        data = real_walk(g, points)
        calls.append(g)
        if any(g is B.gbar for B in built):
            walks.append(data)
        return data

    monkeypatch.setattr(suite, "build_metric_symplectization", build)
    for module in [m for name, m in sys.modules.items() if name.startswith("metsymp")]:
        if getattr(module, "christoffel_batch", None) is real_walk:
            monkeypatch.setattr(module, "christoffel_batch", walk)
    runs = _record_runs(monkeypatch)
    rep = run_suite(flat_bundle_entry, SuiteConfig(samples=25, seed=42))
    assert rep.all_passed and len(built) == 1 and len(walks) == 1 and len(calls) == 6
    B, (data,), run = built[0], walks, runs[0]
    assert data.points is run.product_points
    residual = {c.id: c.residual for c in rep.checks}
    values = structure_values(B.base, data.points[:, :-1])
    currel = list(verify_currel(B, data, values).values())
    assert residual["fundamental_tensor"] == sup_norm(
        *verify_fundamental_tensors(B, data, values).values())
    assert residual["curvature_relations"] == sup_norm(*currel[:3])
    assert residual["ricci_rows"] == sup_norm(*currel[3:])
    fit = fit_symplectization_kmu(B, data, values)
    assert residual["symplectization_nullity"] == sup_norm(
        fit.residual, fit.kappa - run.kmu.kappa, fit.mu - run.kmu.mu)


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
    """Each reader records the build's own error, and the build runs once.
    The structure's (kappa, mu) fit, the fit that fit_kappa_mu computes,
    is the kmu_fit of the structure's record."""
    entry = catalog_load("darboux-sasakian-r3")

    def broken(*args):
        raise RuntimeError(f"{artifact} broke")

    if artifact == "fit_kappa_mu":
        calls = wrap_structure_fit(monkeypatch, broken)
    else:
        real, calls = getattr(suite, artifact), []

        def build(S, *args, **kwargs):
            if S is entry.structure:
                calls.append(S)
                broken()
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


def test_a_run_evaluates_each_field_once_per_record(monkeypatch, flat_bundle_entry):
    """One run on the flat bundle walks each field of the structure once
    for the record of its values on the base draw, whose prefixes the
    product checks read: xi and phi at order 1, for h, and eta and g at
    order 0, each in one family walk with the fields of the three rescales,
    whose records hold their rows on the same draw; phi, which every
    d_homothety(S, a) shares, is walked once there.  The (kappa, mu) fit
    reads the structure's record and the refits the rescale records, and g
    reaches the fit and the eigenspace check as order-2 jets.  The base
    draw gets one order-0 and one order-1 family walk."""
    S = flat_bundle_entry.structure
    names = ("xi", "eta", "phi", "g")
    calls, walks = evaluate_calls(monkeypatch), field_walks(monkeypatch)
    assert run_suite(flat_bundle_entry, SuiteConfig(samples=50, seed=42)).all_passed
    counts = {n: sorted(order for field, order, _ in walks if field is getattr(S, n))
              for n in names}
    assert counts == {"xi": [1], "eta": [0], "phi": [1], "g": [0, 2, 2]}
    assert calls.count((50, 0)) == calls.count((50, 1)) == 1


@pytest.mark.parametrize("which", ["flat_bundle_entry", "sasakian7_entry"])
def test_a_suite_run_walks_each_point_set_once_per_order(monkeypatch, request, which):
    """The ``expressions.evaluate`` calls of one run, by (point count,
    order), on both structures of the benchmark's suites: 13 in all, on
    two draws, the base draw and the one on the product chart.

    - base draw (50): the family walks at orders 0 and 1, and g's jets for
      the connection of the (kappa, mu) fit, which reads the record;
    - eigenspace check (20): g's jets;
    - rescales (30): the three refits' connections; and the torsion of J
      (order 1) and the translation check's two point sets (order 0) on
      the first 30 product points;
    - product points (40): gbar's connection, J with omega in the build
      check, and the Cartan form with omega in the Liouville check.
    """
    entry = request.getfixturevalue(which)
    calls, draws, real_draw = evaluate_calls(monkeypatch), [], Chart.samples
    monkeypatch.setattr(Chart, "samples",
                        lambda chart, n, seed=None: draws.append(n) or real_draw(chart, n, seed))
    assert run_suite(entry, SuiteConfig(samples=50, seed=1)).all_passed
    assert draws == [50, 40]
    assert collections.Counter(calls) == {
        (50, 0): 1, (50, 1): 1, (50, 2): 1, (20, 2): 1,
        (30, 0): 2, (30, 1): 1, (30, 2): 3, (40, 0): 2, (40, 2): 1}


def test_a_run_takes_d_eta_once_per_structure(monkeypatch, flat_bundle_entry):
    """The records read each structure's own d eta tree: the exterior
    derivatives of one run are the one taken by each of the four rescales'
    builds, the two of omega (the symplectization and the translation
    check's), and the two of the Liouville check."""
    calls = []
    real = fields.exterior_derivative
    spy_everywhere(monkeypatch, real, lambda alpha: calls.append(alpha) or real(alpha))
    assert run_suite(flat_bundle_entry, SuiteConfig(samples=10, seed=42)).all_passed
    assert len(calls) == 8


def test_a_rejected_fit_reports_no_constants(monkeypatch, flat_bundle_entry):
    """A fit whose residual is not below FIT_TOL fails nullity_fit, and the
    summary reports no kappa, mu or index from it."""
    wrap_structure_fit(monkeypatch,
                       lambda fit: dataclasses.replace(fit(), residual=contact.FIT_TOL))
    rep = run_suite(flat_bundle_entry, SuiteConfig(samples=10, seed=42))
    assert [c.id for c in rep.checks if not c.passed] == ["nullity_fit"]
    assert (rep.kappa, rep.mu, rep.index) == (None, None, None)


def test_a_nan_structure_runs_the_suite_without_warnings(nan_masked_sasakian_entry):
    """The report records the NaN defects as inf; the library outside the suite still warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_suite(nan_masked_sasakian_entry, SuiteConfig(samples=10, seed=42))
    assert [str(w.message) for w in caught] == []
    assert rep.failed > 0
    with pytest.warns(RuntimeWarning, match="invalid value"):
        S = nan_masked_sasakian_entry.structure
        structure_values(S, S.chart.samples(10))


@pytest.mark.parametrize("which", ["flat_bundle_entry", "sasakian_r5_entry"])
def test_a_run_draws_its_samples_once(monkeypatch, request, which):
    """A run draws two sample arrays: its one draw on the structure's chart,
    which the (kappa, mu) fit reads through the structure's record, and a
    draw on the product chart whose t column, beside the first 40 base
    points, makes the product points."""
    entry = request.getfixturevalue(which)
    draws = []
    real = Chart.samples

    def samples(chart, n, seed=None):
        draws.append(real(chart, n, seed=seed))
        return draws[-1]

    runs = _record_runs(monkeypatch)
    monkeypatch.setattr(Chart, "samples", samples)
    rep = run_suite(entry, SuiteConfig(samples=50, seed=42))
    assert rep.all_passed
    (run,) = runs
    base, product = draws
    assert base is run.points is run.values.points and run.peek("kmu") is not None
    assert run.product_points.shape == (40, base.shape[1] + 1)
    assert np.array_equal(run.product_points[:, :-1], base[:40])
    assert np.array_equal(run.product_points[:, -1], product[:, -1])


@pytest.mark.parametrize("which", ["flat_bundle_entry", "curved", "sasakian_r5_entry"])
def test_each_refit_is_the_fit_of_the_rescaled_structure_bit_for_bit(request, which):
    """A refit reads the rescale's record on the first 30 base points; it
    equals fit_kappa_mu of d_homothety(S, a) at 30 samples and the run's seed,
    which draws those same points and evaluates the fields there itself."""
    entry = request.getfixturevalue(which)
    if which == "curved":
        entry = CatalogEntry(name="curved", structure=entry, expected_kappa=0.0,
                             expected_mu=-2.0, description="index-2 model")
    run = suite._Run(entry, SuiteConfig(samples=50, seed=7))
    for a in suite._RESCALE_FACTORS:
        assert run.refit(a, 30) == contact.fit_kappa_mu(contact.d_homothety(run.S, a), 30, seed=7)


def _kmu_bits(rep):
    """A (kappa, mu) report with its floats as hex strings."""
    return (rep.kappa.hex(), None if rep.mu is None else rep.mu.hex(), rep.residual.hex(),
            rep.sasakian_flag, None if rep.lam is None else rep.lam.hex())


@pytest.fixture(scope="module", params=["unit-tangent-flat-plane", "darboux-sasakian-r3",
                                        "sasakian_r5.txt", "sasakian_r7.txt", "curved"])
def fitted_entry(request):
    name = request.param
    if name == "curved":
        return CatalogEntry(name=name, structure=request.getfixturevalue("curved"),
                            expected_kappa=0.0, expected_mu=-2.0, description="index-2 model")
    return _file_entry(name) if name.endswith(".txt") else catalog_load(name)


@pytest.mark.parametrize("samples", [12, 50])
@pytest.mark.parametrize("seed", [1, 42])
def test_the_fit_of_a_run_is_fit_kappa_mu_bit_for_bit(fitted_entry, seed, samples):
    """A run fits its structure from its own record, the values of eta, xi
    and h on its one draw, and g's connection there.  The report equals
    fit_kappa_mu at the run's sample count and seed, which draws the same
    points and walks the fields again itself, and which suite re-exports
    but no run calls."""
    run = suite._Run(fitted_entry, SuiteConfig(samples=samples, seed=seed))
    assert suite.fit_kappa_mu is contact.fit_kappa_mu
    assert _kmu_bits(run.kmu) == _kmu_bits(
        contact.fit_kappa_mu(fitted_entry.structure, samples, seed=seed))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("name, raises", [("nan_phi_r3.txt", False), ("nan_eta_r3.txt", True)])
def test_the_fit_of_a_nan_structure_is_the_error_or_the_report_of_fit_kappa_mu(
        monkeypatch, name, raises, seed):
    """Where fit_kappa_mu raises, every check that reads the run's fit
    records its ``"<Type>: message"``; where it fits, the run's fit is its
    report, bit for bit, and no reader of the fit records an error."""
    entry = _file_entry(name)
    runs = _record_runs(monkeypatch)
    rep = run_suite(entry, SuiteConfig(samples=50, seed=seed))
    errors = {c.id: c.error for c in rep.checks if c.id in KMU_READERS}
    try:
        want = contact.fit_kappa_mu(entry.structure, 50, seed=seed)
    except GeometryError as exc:
        assert raises
        assert errors == dict.fromkeys(KMU_READERS, f"{type(exc).__name__}: {exc}")
    else:
        assert not raises
        assert _kmu_bits(runs[0].kmu) == _kmu_bits(want)
        assert errors == dict.fromkeys(KMU_READERS)


@pytest.mark.parametrize("t_range", [(-1.0, 1.0), (2.0, 3.0), (0.6, 0.7)])
@pytest.mark.parametrize("which", ["flat_bundle_entry", "sasakian_entry"])
def test_the_slices_and_the_shift_follow_the_t_range(monkeypatch, request, which, t_range):
    """symplectization_nullity fits one family over the run's product
    points, whose t column is drawn on the t range, and
    translation_isomorphism shifts by 0.15 of its width, 0.3 at the
    default range.  On a range off zero, and on one narrower than that
    shift, both pass."""
    fitted, shifts = [], []
    real_fit, real_shift = suite.fit_symplectization_kmu, suite.translation_isomorphism_check

    def fit(B, data, values):
        fitted.append((data, values))
        return real_fit(B, data, values)

    def shift(B, t_shift, points):
        shifts.append(t_shift)
        return real_shift(B, t_shift, points)

    monkeypatch.setattr(suite, "fit_symplectization_kmu", fit)
    monkeypatch.setattr(suite, "translation_isomorphism_check", shift)
    runs = _record_runs(monkeypatch)
    rep = run_suite(request.getfixturevalue(which),
                    SuiteConfig(samples=20, seed=42, t_range=t_range))
    assert [c.id for c in rep.checks if not c.passed] == []
    lo, hi = t_range
    ((data, values),) = fitted
    assert data.points is runs[0].product_points
    assert np.array_equal(values.points, data.points[:, :-1])
    t = data.points[:, -1]
    assert len(np.unique(t)) == len(t) and lo <= t.min() and t.max() <= hi
    assert shifts == [0.15 * (hi - lo)]
    if t_range == (-1.0, 1.0):
        assert shifts == [0.3]


def _perturbed_slice_law(B):
    """B with gbar's slice block a g + a(a - 0.999) eta (x) eta, a = exp(2t),
    in place of the slice law's a g + a(a - 1) eta (x) eta."""
    eta_t = extended_slice_form(B.base, B.chart).components        # a eta
    eta = extend_to_product(B.base.eta, B.chart).components
    comps = B.gbar.components.copy()
    for i, j in itertools.product(range(B.t_index), repeat=2):
        comps[i, j] = comps[i, j] + Const(1e-3) * eta_t[i] * eta[j]
    return dataclasses.replace(B, gbar=TensorField(B.chart, 0, 2, comps, "symmetric"))


@pytest.mark.parametrize("which", ["flat_bundle_entry", "sasakian_entry"])
@pytest.mark.parametrize("perturbation", ["slice law", "base kappa"])
def test_symplectization_nullity_fails_on_a_perturbed_slice_law_or_base_fit(
        monkeypatch, request, which, perturbation):
    """The one-family fit reads the D-homothety law of the slices: with
    gbar's slice law a(a - 0.999) in place of a(a - 1), or a base fit
    off by 1e-3 in kappa, symplectization_nullity fails on both entries."""
    entry = request.getfixturevalue(which)
    if perturbation == "slice law":
        real = suite.build_metric_symplectization
        monkeypatch.setattr(suite, "build_metric_symplectization",
                            lambda S, t_range: _perturbed_slice_law(real(S, t_range)))
    else:
        def fit(real):
            rep = real()
            return dataclasses.replace(rep, kappa=rep.kappa + 1e-3)

        wrap_structure_fit(monkeypatch, fit)
    rep = run_suite(entry, SuiteConfig(samples=20, seed=42))
    check = rep.checks[CHECK_ORDER.index("symplectization_nullity")]
    assert check.error is None and not check.passed
    assert check.residual > 10 * check.threshold


# (kappa, mu, index) of each entry; the structure file has no expected constants
ENTRY_CONSTANTS = {"sasakian_entry": (1.0, None, None), "flat_bundle_entry": (0.0, 0.0, 1.0),
                   "sasakian_r5_entry": (1.0, None, None)}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("which", list(ENTRY_CONSTANTS))
def test_every_seed_of_one_draw_keeps_the_verdicts(request, which, seed):
    """One draw covers less of the chart than a draw per check would; on
    each committed (kappa, mu) structure every seed still passes all sixteen
    checks and reports the structure's constants."""
    rep = run_suite(request.getfixturevalue(which), SuiteConfig(samples=20, seed=seed))
    assert [c.id for c in rep.checks if not c.passed] == []
    for got, want in zip((rep.kappa, rep.mu, rep.index), ENTRY_CONSTANTS[which]):
        assert (got is None) == (want is None)
        assert want is None or abs(got - want) < 1e-9
