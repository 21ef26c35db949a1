"""Chart invariants and sampling behaviour."""

import math

import numpy as np
import pytest

from metsymp.charts import Chart, product_with_line
from metsymp.errors import GeometryError


def test_chart_validation():
    with pytest.raises(GeometryError):
        Chart(("x", "x"), ((-1, 1), (-1, 1)))
    with pytest.raises(GeometryError):
        Chart(("x",), ((1.0, 1.0),))
    with pytest.raises(GeometryError):
        Chart(("x", "y"), ((-1, 1),))
    with pytest.raises(GeometryError):
        Chart((), ())
    assert Chart(("x", "y"), ((-1, 1), (0, 2))).dim == 2


@pytest.mark.parametrize("interval", [(-math.inf, math.inf), (0.0, math.inf),
                                      (-1e308, 1e308)])
def test_a_non_finite_end_or_width_is_rejected(interval):
    with pytest.raises(GeometryError, match="finite ends and width"):
        Chart(("x", "y"), ((-1, 1), interval))
    with pytest.raises(GeometryError, match="finite ends and width"):
        product_with_line(Chart(("x",), ((-1, 1),)), "t", interval)


def test_samples_avoid_boundary_and_are_reproducible():
    chart = Chart(("x", "y"), ((0.0, 1.0), (-2.0, 0.0)), sampler_seed=5)
    pts = chart.samples(200)
    assert pts.shape == (200, 2)
    assert np.all(pts[:, 0] >= 0.05) and np.all(pts[:, 0] <= 0.95)
    assert np.all(pts[:, 1] >= -1.9) and np.all(pts[:, 1] <= -0.1)
    assert np.array_equal(pts, chart.samples(200))
    assert not np.array_equal(pts, chart.samples(200, seed=6))


def test_a_negative_seed_is_rejected():
    """numpy's generators take only non-negative seeds; the chart says so first."""
    with pytest.raises(GeometryError, match="sample seed must be non-negative, got -1"):
        Chart(("x",), ((-1, 1),), sampler_seed=-1)
    chart = Chart(("x",), ((-1, 1),))
    with pytest.raises(GeometryError, match="sample seed must be non-negative, got -3"):
        chart.samples(4, seed=-3)
    assert chart.samples(4, seed=0).shape == (4, 1)


def test_product_with_line():
    base = Chart(("x", "y", "z"), ((-1, 1),) * 3)
    prod = product_with_line(base, "t", (-2.0, 2.0))
    assert prod.coord_names == ("x", "y", "z", "t")
    assert prod.domain[-1] == (-2.0, 2.0)
    with pytest.raises(GeometryError):
        product_with_line(prod, "t")
