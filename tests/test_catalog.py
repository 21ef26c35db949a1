"""Catalog entries and the frozen-normalization regeneration scan."""

import pytest

from metsymp.catalog import catalog_load, catalog_names
from metsymp.contact import (
    COMPAT_TOL,
    ContactMetricStructure,
    structure_values,
    verify_compatibility,
)
from metsymp.errors import UnknownEntryError
from metsymp.expressions import Const
from metsymp.fields import sup_norm


def test_names_and_load():
    names = catalog_names()
    assert names == ("darboux-sasakian-r3", "unit-tangent-flat-plane")
    for name in names:
        entry = catalog_load(name)
        assert entry.name == name
        assert entry.description
        S = entry.structure
        values = structure_values(S, S.chart.samples(50))
        assert sup_norm(*verify_compatibility(values).values()) < COMPAT_TOL


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        catalog_load("nope")


def test_expected_constants_recorded():
    e1 = catalog_load("darboux-sasakian-r3")
    assert e1.expected_kappa == 1.0 and e1.expected_mu is None
    e2 = catalog_load("unit-tangent-flat-plane")
    assert e2.expected_kappa == 0.0 and e2.expected_mu == 0.0


@pytest.mark.parametrize("name", ["darboux-sasakian-r3", "unit-tangent-flat-plane"])
def test_frozen_normalization_is_the_unique_scan_survivor(name):
    """Re-running the power-of-two scan must single out the shipped scaling.

    Rescaling the form forces the metric through the pairing axiom and
    rescaling the metric forces the form through the Reeb pairing, so only
    the identity pair can satisfy all axioms at once; this pins the frozen
    coefficients against convention drift.
    """
    S = catalog_load(name).structure
    scales = (0.25, 0.5, 1.0, 2.0, 4.0)
    pts = S.chart.samples(25)
    survivors = [
        (a, b) for a in scales for b in scales
        if sup_norm(*verify_compatibility(structure_values(ContactMetricStructure.build(
            S.chart, S.eta.scale(Const(a)), S.g.scale(Const(b)), S.phi), pts)).values())
        < COMPAT_TOL
    ]
    assert survivors == [(1.0, 1.0)]
