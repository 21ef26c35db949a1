"""Shared fixtures and the acceptance-criteria terminal summary."""

import pytest

from metsymp.catalog import CatalogEntry, catalog_load
from metsymp.contact import ContactMetricStructure
from metsymp.expressions import Coord, sqrt
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
