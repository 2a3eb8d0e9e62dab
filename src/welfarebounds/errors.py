"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError-family -> 2, DataError-family
-> 3, NumericalError-family -> 4.  An empty confidence set is a result, not an
error: the interval functions return it as an empty Interval.
EmptyConfidenceSet is raised only when a library caller asks a ConstraintSet
for the corners of a box that holds such an interval.
"""


class WelfareBoundsError(Exception):
    """Base class for all library errors."""


class ConfigError(WelfareBoundsError):
    """A run parameter is missing, malformed, or out of range."""


class DataError(WelfareBoundsError):
    """Input data is malformed or insufficient."""


class NumericalError(WelfareBoundsError):
    """A computation cannot proceed on otherwise well-formed input."""


class InvalidLevel(ConfigError):
    """Confidence level or alpha outside (0, 1), or too near an end for a finite quantile."""


class InvalidGrid(ConfigError):
    """Grid bounds or node count do not describe a usable grid."""


class InvalidSample(DataError):
    """Arrays of mismatched length, too few rows, or non-finite entries."""


class DegenerateResponse(DataError):
    """All response values are equal, so rank-based dependence is undefined."""


class SchemaError(DataError):
    """A required CSV column is missing."""


class ParseError(DataError):
    """A CSV cell could not be parsed; carries row and column."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class InvalidQuery(DataError):
    """A query row has a negative or non-finite delta, or a nonpositive or non-finite ystar."""


class TooFewObservations(DataError):
    """A good has fewer usable rows than the estimators need."""


class SingularDesign(NumericalError):
    """The regressor is constant; no slope can be identified."""


class WeakFirstStage(NumericalError):
    """The instrument has exactly zero first-stage covariance with price."""


class NonpositiveSlope(NumericalError):
    """The fitted slope is not positive, so theta = 1/slope has no positive value."""


class NearZeroSlope(NumericalError):
    """The fitted slope is so near zero that theta = 1/slope has no finite interval."""


class InvalidTheta(NumericalError):
    """A theta vector violates positivity or shape requirements."""


class NegativePriceChange(NumericalError):
    """Price decreases are outside the model's domain."""


class InfeasibleConstraint(NumericalError):
    """The sum constraint cannot be met inside the box."""


class EmptyConfidenceSet(WelfareBoundsError):
    """A welfare box was asked for its corners but one of its intervals is empty.

    An interval counts as empty when it accepted no parameter value or lies
    wholly below the positivity floor; ConstraintSet.empty tells in advance.
    """
