"""The declarative structure file format."""

import numpy as np
import pytest

from metsymp.contact import fit_kappa_mu, verify_compatibility
from metsymp.structfile import StructureFileError, load_structure_file, parse_structure_text

RESCALED_R3 = """
# the R^3 model rescaled by a = 2
chart x [-1.5, 1.5]
chart y [-1.5, 1.5]
chart z [-1.5, 1.5]
seed 7

eta x = -y
eta z = 1

g x x = 1/2 + y^2
g x z = -y
g y y = 1/2
g z z = 1

phi x y = 1
phi y x = -1
phi z y = y
"""


def test_parse_and_fit_rescaled_model():
    S = parse_structure_text(RESCALED_R3)
    assert S.chart.coord_names == ("x", "y", "z")
    assert S.chart.sampler_seed == 7
    assert verify_compatibility(S, 60).passed
    rep = fit_kappa_mu(S, 40)
    assert abs(rep.kappa - 1.0) < 1e-9
    assert rep.mu is None


def test_trig_components_parse():
    text = """
chart x [-2, 2]
chart y [-2, 2]
chart theta [-3.14159, 3.14159]
eta x = cos(theta)
eta y = sin(theta)
g x x = 1
g y y = 1
g theta theta = 1/4
phi x theta = sin(theta)/2
phi y theta = -cos(theta)/2
phi theta x = -2*sin(theta)
phi theta y = 2*cos(theta)
"""
    S = parse_structure_text(text)
    rep = fit_kappa_mu(S, 30)
    assert abs(rep.kappa) < 1e-9 and abs(rep.mu) < 1e-9


def test_load_from_disk(tmp_path):
    path = tmp_path / "structure.txt"
    path.write_text(RESCALED_R3, encoding="utf-8")
    S = load_structure_file(path)
    assert verify_compatibility(S, 20).passed


def _expect_error(text, needle, line=None):
    with pytest.raises(StructureFileError) as err:
        parse_structure_text(text)
    assert needle in str(err.value)
    if line is not None:
        assert err.value.line == line
    return err.value


def test_parse_errors_carry_positions():
    err = _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                        "eta x = 1 + $\n", "unexpected character", line=4)
    assert err.column is not None

    _expect_error("eta x = 1\n", "component before any chart", line=1)
    _expect_error("chart x [-1, 1]\nchart x [-1, 1]\n", "duplicate coordinate", line=2)
    _expect_error("chart x [2, 1]\n", "empty interval", line=1)
    _expect_error("chart x [-1, 1]\nwhatever\n", "unrecognized line", line=2)
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\n"
                  "eta x = 1\ng x x = 1\n", "dimension 2 is even")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta w = 1\n", "unknown coordinate")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\neta z = 2\n", "duplicate eta", line=5)
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\ng x x = 1\ng x x = 2\n", "duplicate metric", line=6)
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\n", "no metric components")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "g x x = 1\n", "no eta components")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z 1 = 1\n", "takes one coordinate")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\ng x = 1\n", "takes two coordinates")


def test_indefinite_metric_rejected():
    text = RESCALED_R3.replace("g y y = 1/2", "g y y = -1/2")
    with pytest.raises(StructureFileError) as err:
        parse_structure_text(text)
    assert "positive definite" in str(err.value)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_metric_rejected():
    text = RESCALED_R3.replace("g y y = 1/2", "g y y = 1/2*sqrt(x)/sqrt(x)")
    with pytest.raises(StructureFileError) as err:
        parse_structure_text(text)
    assert "not finite" in str(err.value)


def test_symmetric_mirror_fill():
    text = """
chart x [-1.5, 1.5]
chart y [-1.5, 1.5]
chart z [-1.5, 1.5]
eta x = -y
eta z = 1
g x x = 1/2 + y^2
g z x = -y     # given in the flipped order on purpose
g y y = 1/2
g z z = 1
phi x y = 1
phi y x = -1
phi z y = y
"""
    S = parse_structure_text(text)
    pts = S.chart.samples(10)
    gv = S.g.values(pts)
    assert np.array_equal(gv, np.swapaxes(gv, 1, 2))
    assert verify_compatibility(S, 20).passed
