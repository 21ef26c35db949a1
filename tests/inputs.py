"""The inputs of the verifiers that read a record of values, built from
points, and spies that record the package's walks."""

import sys

import numpy as np

from metsymp import expressions, fields
from metsymp.contact import structure_values
from metsymp.curvature import christoffel_batch


def kmu_inputs(S, points):
    """The record of S at ``points`` and g's connection there: the first two
    arguments of ``verify_kmu_curvature``."""
    return structure_values(S, points), christoffel_batch(S.g, points)


def product_inputs(B, points):
    """gbar's connection at product ``points`` and the base structure's record
    at their base coordinates: the arguments after B of the symplectization
    and submersion verifiers."""
    return christoffel_batch(B.gbar, points), structure_values(B.base, points[:, :-1])


def slice_inputs(B, ts, base_points):
    """``product_inputs`` at ``base_points`` lifted to each slice t in ``ts``,
    one block of rows per slice."""
    return product_inputs(B, np.concatenate(
        [np.column_stack([base_points, np.full(len(base_points), float(t))]) for t in ts]))


def spy_everywhere(monkeypatch, real, spy):
    """Put ``spy`` in for ``real`` under every name that binds it in a
    metsymp module, so that a call through any of them is seen."""
    for module in [m for name, m in sys.modules.items() if name.startswith("metsymp")]:
        if getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, spy)


def evaluate_calls(monkeypatch) -> list:
    """(point count, order) of every ``expressions.evaluate`` call from here on."""
    calls = []
    real = expressions.evaluate

    def counting(roots, points, order=0):
        calls.append((len(np.atleast_2d(points)), order))
        return real(roots, points, order)

    spy_everywhere(monkeypatch, real, counting)
    return calls


def field_walks(monkeypatch) -> list:
    """(field, order, points) for each field of every ``fields.evaluate_fields``
    call from here on, the one-field calls of ``TensorField.values`` and
    ``TensorField.jet_blocks`` included; the fields of one call are one walk."""
    walks = []
    real = fields.evaluate_fields

    def recording(tensor_fields, points, order=0):
        walks.extend((T, order, np.asarray(points)) for T in tensor_fields)
        return real(tensor_fields, points, order)

    spy_everywhere(monkeypatch, real, recording)
    return walks
