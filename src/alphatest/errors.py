"""Exception hierarchy shared across the package."""


class AlphatestError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(AlphatestError):
    """Array shapes are incompatible with the requested operation."""


class SingularDesign(AlphatestError):
    """The factor Gram matrix F'F is numerically singular."""


class DegenerateDesign(AlphatestError):
    """The intercept is (numerically) collinear with the factor columns."""


class ZeroResidualVariance(AlphatestError):
    """A residual variance is too close to zero for a t-ratio."""


class NonPositiveDiagonal(AlphatestError):
    """A covariance matrix has a non-positive diagonal entry."""


class DegenerateDof(AlphatestError):
    """Residual degrees of freedom too small for the sum-type statistic."""


class NegativeInput(AlphatestError):
    """A nonnegative argument was negative."""


class NotPositiveDefinite(AlphatestError):
    """A constructed covariance matrix failed its positive-definiteness check."""


class EmptyTable(AlphatestError):
    """A result table has no rows to summarize."""


class ParseError(AlphatestError):
    """An input could not be parsed or is out of range: a CSV cell, a scenario key,
    `ALPHATEST_SEED`, `--workers` or `--m-grid`; the message names which."""


class ShapeMismatch(DimensionError):
    """A panel's returns and factors disagree on the number of time periods."""


class TooFewObservations(DimensionError):
    """A panel has fewer than 3 securities, or too few time periods for its factors."""
