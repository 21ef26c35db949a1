"""Shared fixtures and the acceptance-criteria terminal summary."""

import math

import pytest

from metsymp.catalog import CatalogEntry, catalog_load
from metsymp.charts import Chart
from metsymp.contact import ContactMetricStructure
from metsymp.expressions import Const, Coord, cos, sin, sqrt
from metsymp.fields import TensorField
from metsymp.symplectization import build_metric_symplectization


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line-per-criterion acceptance results after the run."""
    import sys

    lines = []
    for name, module in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(module, "CRITERION_LINES", [])
            break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def sasakian_entry():
    return catalog_load("darboux-sasakian-r3")


@pytest.fixture(scope="session")
def flat_bundle_entry():
    return catalog_load("unit-tangent-flat-plane")


@pytest.fixture(scope="session")
def sasakian(sasakian_entry):
    return sasakian_entry.structure


@pytest.fixture(scope="session")
def flat_bundle(flat_bundle_entry):
    return flat_bundle_entry.structure


@pytest.fixture(scope="session")
def sasakian_symp(sasakian):
    return build_metric_symplectization(sasakian)


@pytest.fixture(scope="session")
def flat_bundle_symp(flat_bundle):
    return build_metric_symplectization(flat_bundle)


@pytest.fixture(scope="session", params=["darboux-sasakian-r3", "unit-tangent-flat-plane"])
def any_entry(request):
    return catalog_load(request.param)


@pytest.fixture(scope="session")
def curved():
    """The index-2 nullity structure (kappa, mu) = (0, -2) of ``test_curved_model``.

    g is orthonormal on the rescaled rotation-invariant frame
    E1 = sqrt(2) X1, E2 = sqrt(6) X2, E3 = sqrt(3) d_w of an Euler-angle
    chart, with eta dual to E3 and phi E1 = E2.
    """
    chart = Chart(("u", "v", "w"),
                  ((-2.8, 2.8), (0.5, 2.6), (-2.8, 2.8)), sampler_seed=37)
    u, v, w = (Coord(i, n) for i, n in enumerate(chart.coord_names))
    zero = Const(0.0)
    sv, cv, sw, cw = sin(v), cos(v), sin(w), cos(w)

    sigma1 = TensorField.covector(chart, [sw * sv, cw, zero])
    sigma2 = TensorField.covector(chart, [cw * sv, -sw, zero])
    sigma3 = TensorField.covector(chart, [cv, zero, Const(1.0)])
    X1 = TensorField.vector(chart, [sw / sv, cw, -(sw * cv) / sv])
    X2 = TensorField.vector(chart, [cw / sv, -sw, -(cw * cv) / sv])

    r3 = math.sqrt(3.0)
    eta = sigma3.scale(Const(1.0 / r3))
    g_raw = (sigma1.outer(sigma1).scale(Const(0.5))
             + sigma2.outer(sigma2).scale(Const(1.0 / 6.0))
             + sigma3.outer(sigma3).scale(Const(1.0 / 3.0)))
    g = TensorField(chart, 0, 2, g_raw.components, "symmetric")
    phi = X2.outer(sigma1).scale(Const(r3)) - X1.outer(sigma2).scale(Const(1.0 / r3))
    return ContactMetricStructure.build(chart, eta, g, phi)


@pytest.fixture(scope="session")
def nan_masked_sasakian_entry(sasakian_entry):
    """The R^3 model with phi[0, 1] multiplied by sqrt(x)/sqrt(x).

    The factor is 1 for x > 0 and NaN for x < 0, so every identity that
    reads this component is NaN on about half of the samples.
    """
    S = sasakian_entry.structure
    x = Coord(0, "x")
    comps = S.phi.components.copy()
    comps[0, 1] = comps[0, 1] * (sqrt(x) / sqrt(x))
    phi = TensorField(S.chart, 1, 1, comps)
    return CatalogEntry(
        name="nan-masked-sasakian-r3",
        structure=ContactMetricStructure.build(S.chart, S.eta, S.g, phi),
        expected_kappa=sasakian_entry.expected_kappa,
        expected_mu=sasakian_entry.expected_mu,
        description="R^3 model whose phi is NaN where x < 0.",
    )
