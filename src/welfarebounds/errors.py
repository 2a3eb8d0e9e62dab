"""Exception types shared across the package.

The type or function that owns a range rule raises one of these, and the
CLI maps them onto exit codes: ConfigError-family -> 2, DataError-family
-> 3, NumericalError-family -> 4.  An empty confidence set is a result, not an
error: the interval functions return it as an empty Interval, and
ConstraintSet.empty flags a welfare constraint set that no theta meets (such
an interval, or a sum target outside the box), whose welfare bounds are NaN.
"""


class WelfareBoundsError(Exception):
    """Base class for all library errors."""


class ConfigError(WelfareBoundsError):
    """A run parameter is missing, malformed, or out of range; `params` names
    the parameters the rule reads, as the CLI's attributes ("grid_hi")."""

    def __init__(self, message: str = "", params: tuple = ()):
        super().__init__(message)
        self.params = params


class DataError(WelfareBoundsError):
    """Input data is malformed or insufficient."""


class NumericalError(WelfareBoundsError):
    """A computation cannot proceed on otherwise well-formed input."""


class InvalidLevel(ConfigError):
    """Confidence level or alpha outside (0, 1), or too near an end for a finite quantile."""


class InvalidSample(DataError):
    """A sample's arrays differ in length, hold too few rows or non-finite entries,
    or a data file has no usable row."""


class DegenerateResponse(DataError):
    """All response values are equal, so rank-based dependence is undefined."""


class SchemaError(DataError):
    """A required CSV column is missing."""


class ParseError(DataError):
    """A CSV row or cell could not be read; the message names the file and row, and the column of a bad cell."""


class InvalidQuery(DataError):
    """A query's delta and ystar differ in shape; a delta is negative, a ystar nonpositive,
    or either or their product not finite; or a row has an empty id, an unknown or missing good, or a repeat."""


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


class WorkerLost(NumericalError):
    """A worker process ended without returning its units' results (killed
    by the out-of-memory killer, say)."""

