"""Shared fixtures and the acceptance-criteria terminal summary."""

import math

import numpy as np
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
def sasakian7_symp():
    """The symplectization (dimension 8) of the standard Sasakian R^7.

    The n = 3 member of the family of ``test_dimension_five``: form
    (dz - sum y_i dx_i)/2, metric (sum dx_i^2 + dy_i^2)/4 + eta (x) eta, and
    phi(d_y) = d_x + y d_z, phi(d_x) = -d_y, phi(d_z) = 0 in each block.
    """
    n, d = 3, 7
    names = ("x1", "x2", "x3", "y1", "y2", "y3", "z")
    chart = Chart(names, ((-1.2, 1.2),) * d, sampler_seed=19)
    ys = [Coord(n + i, names[n + i]) for i in range(n)]
    zero = Const(0.0)
    eta_c = [Const(-0.5) * y for y in ys] + [zero] * n + [Const(0.5)]
    g_c = np.empty((d, d), dtype=object)
    g_c[...] = zero
    for i in range(2 * n):
        g_c[i, i] = Const(0.25)
    for i in range(d):
        for j in range(d):
            g_c[i, j] = g_c[i, j] + eta_c[i] * eta_c[j]
    phi_c = np.empty((d, d), dtype=object)
    phi_c[...] = zero
    for i in range(n):
        phi_c[i, n + i] = Const(1.0)
        phi_c[d - 1, n + i] = ys[i]
        phi_c[n + i, i] = Const(-1.0)
    S = ContactMetricStructure.build(chart, TensorField.covector(chart, eta_c),
                                     TensorField(chart, 0, 2, g_c, "symmetric"),
                                     TensorField(chart, 1, 1, phi_c))
    return build_metric_symplectization(S)


@pytest.fixture(scope="session")
def sasakian7_entry(sasakian7_symp):
    """The standard Sasakian R^7 as an entry, (kappa, mu) = (1, undefined)."""
    return CatalogEntry(name="standard-sasakian-r7", structure=sasakian7_symp.base,
                        expected_kappa=1.0, expected_mu=None,
                        description="the standard Sasakian R^7")


@pytest.fixture(scope="session")
def curved_symp(curved):
    return build_metric_symplectization(curved)


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
