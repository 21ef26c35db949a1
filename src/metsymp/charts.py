"""Coordinate charts: named coordinates on a closed box, with sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

__all__ = ["Chart", "product_with_line"]

# the fraction of each side's width that sample sweeps keep clear of
_SAMPLE_MARGIN = 0.05


@dataclass(frozen=True)
class Chart:
    """A coordinate box with named coordinates.

    ``domain`` holds one closed interval per coordinate, with finite ends
    and width; ``dim`` is the number of coordinates.  ``sampler_seed``
    makes sample sweeps reproducible per chart; callers may override the
    seed per sweep.  Seeds are non-negative, as numpy's are.
    """

    coord_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    sampler_seed: int = 0
    dim: int = field(init=False)

    def __post_init__(self):
        names = tuple(self.coord_names)
        dom = tuple((float(a), float(b)) for a, b in self.domain)
        object.__setattr__(self, "coord_names", names)
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "dim", len(names))
        if not names:
            raise GeometryError("chart dimension must be positive")
        if len(names) != len(dom):
            raise GeometryError("coord_names and domain lengths must agree")
        if len(set(names)) != len(names):
            raise GeometryError(f"duplicate coordinate names in {names}")
        for name, (lo, hi) in zip(names, dom):
            if not lo < hi:
                raise GeometryError(f"empty interval for coordinate {name!r}: [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise GeometryError(f"interval for coordinate {name!r} needs finite ends"
                                    f" and width, got [{lo}, {hi}]")
        if self.sampler_seed < 0:
            raise GeometryError(f"sample seed must be non-negative, got {self.sampler_seed}")

    def samples(self, n: int, seed: int | None = None) -> np.ndarray:
        """Uniform samples over the box shrunk by 5% of its width per side.

        The shrink keeps sweeps away from the boundary where derived
        quantities such as inverse metrics can degrade.
        """
        if n <= 0:
            raise GeometryError("sample count must be positive")
        if seed is None:
            seed = self.sampler_seed
        elif seed < 0:   # numpy's generators take only non-negative seeds
            raise GeometryError(f"sample seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.domain])
        hi = np.array([b for _, b in self.domain])
        width = hi - lo
        lo_eff = lo + _SAMPLE_MARGIN * width
        hi_eff = hi - _SAMPLE_MARGIN * width
        return rng.uniform(lo_eff, hi_eff, size=(n, self.dim))


def product_with_line(base: Chart, coord_name: str = "t",
                      interval: tuple[float, float] = (-1.0, 1.0)) -> Chart:
    """The product of ``base`` with one extra line coordinate, appended last,
    sampled with the base's seed."""
    if coord_name in base.coord_names:
        raise GeometryError(f"coordinate {coord_name!r} already exists on the base chart")
    return Chart(coord_names=base.coord_names + (coord_name,),
                 domain=base.domain + ((float(interval[0]), float(interval[1])),),
                 sampler_seed=base.sampler_seed)
