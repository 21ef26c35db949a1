"""The declarative structure file format."""

import re

import numpy as np
import pytest

from metsymp.contact import COMPAT_TOL, fit_kappa_mu, structure_values, verify_compatibility
from metsymp.fields import sup_norm
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
    values = structure_values(S, S.chart.samples(60))
    assert sup_norm(*verify_compatibility(values).values()) < COMPAT_TOL
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
    values = structure_values(S, S.chart.samples(20))
    assert sup_norm(*verify_compatibility(values).values()) < COMPAT_TOL


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
    assert err.column == 13

    _expect_error("eta x = 1\n", "component before any chart", line=1)
    _expect_error("chart x [-1, 1]\nchart x [-1, 1]\n", "duplicate coordinate", line=2)
    _expect_error("chart x [2, 1]\n", "empty interval", line=1)
    _expect_error("chart x [-1, 1]\nchart x1 [-1e999, 1e999]\n", "finite ends", line=2)
    _expect_error("chart x [-1e308, 1e308]\n", "finite ends and width", line=1)
    _expect_error("chart x [-1, 1]\nchart y [1e, 2]\n", "interval for 'y': could not convert string to float: '1e'",
                  line=2)
    _expect_error("chart x [-1.5.2, 2]\n", "interval for 'x': could not convert string to float: '-1.5.2'",
                  line=1)
    _expect_error("chart x [-1, 1]\nwhatever\n", "unrecognized line", line=2)
    _expect_error("chart x [-1, 1]\nseed 3\nseed 9\n", "duplicate seed line", line=3)
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\n"
                  "eta x = 1\ng x x = 1\n", "dimension 2 is even")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta w = 1\n", "unknown coordinate")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\neta z = 2\n", "duplicate eta", line=5)
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\ng x x = 1\ng x x = 2\n", "duplicate metric", line=6)
    # a mirrored pair repeats the component even when the expressions agree
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\ng x z = -0.25*y\ng z x = -0.25*y\n",
                  "duplicate metric component z x", line=6)
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\n", "no metric components")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "g x x = 1\n", "no eta components")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z 1 = 1\n", "takes one coordinate")
    _expect_error("chart x [-1, 1]\nchart y [-1, 1]\nchart z [-1, 1]\n"
                  "eta z = 1\ng x = 1\n", "takes two coordinates")


@pytest.mark.parametrize("rhs, column, reason", [
    ("1 + 0*exp(1000)", 15, "math range error"),           # at exp
    ("1 + 0*10^400", 17, "math range error"),              # at ^
    ("  1 + 0/0", 16, "division by the zero expression"),  # at /
    ("1 + 0*sqrt(-1)", 15, "math domain error"),
    ("1 + 0*(-8)^0.5", 19, "math domain error"),
])
def test_a_constant_without_a_finite_real_value_is_a_parse_error(rhs, column, reason):
    text = RESCALED_R3.replace("g z z = 1", f"g z z = {rhs}")
    line = text.splitlines().index(f"g z z = {rhs}") + 1
    err = _expect_error(text, reason, line=line)
    assert err.column == column
    assert "no finite real value" in str(err)


def test_indefinite_metric_rejected():
    text = RESCALED_R3.replace("g y y = 1/2", "g y y = -1/2")
    with pytest.raises(StructureFileError) as err:
        parse_structure_text(text)
    assert "positive definite" in str(err.value)
    assert re.search(r"at sample \d+ \[", str(err.value))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_metric_rejected():
    text = RESCALED_R3.replace("g y y = 1/2", "g y y = 1/2*sqrt(x)/sqrt(x)")
    with pytest.raises(StructureFileError) as err:
        parse_structure_text(text)
    assert "not finite" in str(err.value)
    assert re.search(r"at sample \d+ \[", str(err.value))


def test_a_negative_seed_names_its_line():
    """numpy takes only non-negative seeds; the file says which line is bad."""
    text = RESCALED_R3.replace("seed 7", "seed -5")
    with pytest.raises(StructureFileError, match="line 6: seed must be non-negative, got -5"):
        parse_structure_text(text)
    assert parse_structure_text(RESCALED_R3.replace("seed 7", "seed 0")).chart.sampler_seed == 0


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
    values = structure_values(S, S.chart.samples(20))
    assert sup_norm(*verify_compatibility(values).values()) < COMPAT_TOL
