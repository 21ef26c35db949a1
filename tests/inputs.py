"""The inputs of the verifiers that read a record of values, built from points."""

import numpy as np

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
