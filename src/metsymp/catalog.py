"""Built-in example structures.

Two calibrated models ship with the package:

``darboux-sasakian-r3``
    The structure on an R^3 chart whose form is half of (dz - y dx).  In
    the frame {2 dy, 2(dx + y dz), 2 dz} the metric is the identity and the
    nullity fit returns kappa = 1 with h = 0, the K-contact and Sasakian
    case.

``unit-tangent-flat-plane``
    The unit tangent bundle of the flat plane on an (x, y, theta) chart,
    with the angle coordinate parametrizing the fibre direction.  Its form
    is cos(theta) dx + sin(theta) dy, the metric is the flat
    diag(1, 1, 1/4), and the curvature of the structure annihilates the
    Reeb field, so the fit returns (kappa, mu) = (0, 0) with h eigenvalues
    {0, +1, -1}.

The normalizations are frozen: among the power-of-two rescalings of the
form and the metric, only the shipped pair satisfies the compatibility
axioms, because any rescaling of the form forces the companion metric
through them.  ``tests/test_catalog.py`` re-runs that scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import Chart
from .contact import ContactMetricStructure
from .errors import UnknownEntryError
from .expressions import Const, Coord, cos, sin
from .fields import TensorField

__all__ = ["CatalogEntry", "catalog_load", "catalog_names"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    structure: ContactMetricStructure
    expected_kappa: float | None
    expected_mu: float | None
    description: str


def _darboux_sasakian_r3() -> CatalogEntry:
    chart = Chart(("x", "y", "z"), ((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)),
                  sampler_seed=11)
    y = Coord(1, "y")
    zero = Const(0.0)
    eta = TensorField.covector(chart, [Const(-0.5) * y, zero, Const(0.5)])
    g = TensorField(
        chart, 0, 2,
        [
            [Const(0.25) * (Const(1.0) + y * y), zero, Const(-0.25) * y],
            [zero, Const(0.25), zero],
            [Const(-0.25) * y, zero, Const(0.25)],
        ],
        "symmetric",
    )
    phi = TensorField(
        chart, 1, 1,
        [
            [zero, Const(1.0), zero],
            [Const(-1.0), zero, zero],
            [zero, y, zero],
        ],
    )
    S = ContactMetricStructure.build(chart, eta, g, phi)
    return CatalogEntry(
        name="darboux-sasakian-r3",
        structure=S,
        expected_kappa=1.0,
        expected_mu=None,
        description="Sasakian structure on an R^3 chart; h = 0, kappa = 1.",
    )


def _unit_tangent_flat_plane() -> CatalogEntry:
    chart = Chart(("x", "y", "theta"),
                  ((-2.0, 2.0), (-2.0, 2.0), (-np.pi, np.pi)),
                  sampler_seed=13)
    th = Coord(2, "theta")
    zero = Const(0.0)
    eta = TensorField.covector(chart, [cos(th), sin(th), zero])
    g = TensorField(
        chart, 0, 2,
        [
            [Const(1.0), zero, zero],
            [zero, Const(1.0), zero],
            [zero, zero, Const(0.25)],
        ],
        "symmetric",
    )
    phi = TensorField(
        chart, 1, 1,
        [
            [zero, zero, Const(0.5) * sin(th)],
            [zero, zero, Const(-0.5) * cos(th)],
            [Const(-2.0) * sin(th), Const(2.0) * cos(th), zero],
        ],
    )
    S = ContactMetricStructure.build(chart, eta, g, phi)
    return CatalogEntry(
        name="unit-tangent-flat-plane",
        structure=S,
        expected_kappa=0.0,
        expected_mu=0.0,
        description=(
            "Unit tangent bundle of the flat plane; curvature annihilates "
            "the Reeb field, (kappa, mu) = (0, 0)."
        ),
    )


_BUILDERS = {
    "darboux-sasakian-r3": _darboux_sasakian_r3,
    "unit-tangent-flat-plane": _unit_tangent_flat_plane,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def catalog_load(name: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise UnknownEntryError(f"unknown entry {name!r}; known entries: {known}") from None
    return builder()

