"""Exception types shared across the package, and the one way a batch
rejection names the sample it failed at."""


def at_sample(pts, k: int) -> str:
    """Where a batch check failed: the sample index and its coordinates."""
    return f"sample {k} {pts[k].tolist()}"


class GeometryError(ValueError):
    """Base class for contract violations in geometric operations."""


class ChartMismatchError(GeometryError):
    """Two objects that must live on the same chart do not."""


class RankError(GeometryError):
    """Tensor ranks incompatible with the requested operation."""


class DomainError(GeometryError):
    """A point falls outside the chart's coordinate box."""


class DegenerateMetricError(GeometryError):
    """The metric is singular at the evaluation point."""


class NotContactError(GeometryError):
    """The 1-form fails the contact condition where it was needed."""


class SasakianDegeneracyError(GeometryError):
    """An operation that needs a nonvanishing h tensor met h = 0."""


class ConfigError(ValueError):
    """Invalid suite or CLI configuration."""


class UnknownEntryError(LookupError):
    """Requested catalog entry does not exist."""
