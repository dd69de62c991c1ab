"""Exception hierarchy shared across the package."""

__all__ = [
    "AugustError", "SampleTooSmall", "NonFiniteInput", "TiesPresent",
    "DepthOutOfRange", "LengthNotPowerOfTwo", "DegenerateVector",
    "QuadratureFailure", "SingularCovariance", "DimensionMismatch",
    "EmptySample", "IOFailure", "ParseError", "InvalidParameter",
]


class AugustError(Exception):
    """Base class for all errors raised by this package."""


class SampleTooSmall(AugustError):
    """A sample size is not an integer, or is below the operation's minimum."""


class NonFiniteInput(AugustError):
    """A sample holds NaN or an infinite value."""


class TiesPresent(AugustError):
    """Duplicate values in the combined sample under the 'error' tie policy."""


class DepthOutOfRange(AugustError, ValueError):
    """Binary depth that is not an integer in the supported range.

    It is also a ``ValueError``, so a caller that catches a bad argument
    value as one catches a bad depth too.
    """


class LengthNotPowerOfTwo(AugustError):
    """Vector length is not a power of two."""


class DegenerateVector(AugustError):
    """A symmetry vector has zero norm (exactly uniform cell probabilities)."""


class QuadratureFailure(AugustError):
    """Quadrature did not stabilize under node doubling."""


class SingularCovariance(AugustError):
    """Sample covariance is singular or too ill-conditioned to factor."""


class DimensionMismatch(AugustError):
    """Multivariate shapes do not agree."""


class EmptySample(AugustError):
    """An operation received an empty sample."""


class IOFailure(AugustError):
    """A report or cache file could not be written or read."""


class ParseError(AugustError):
    """Input data file could not be parsed."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class InvalidParameter(AugustError, ValueError):
    """A named choice or a parameter value that the operation does not accept.

    An unknown family, a family parameter out of its range, or a test that
    a family has no form for.  It is also a ``ValueError``, so a caller that
    catches a bad argument value as one catches these too.
    """
