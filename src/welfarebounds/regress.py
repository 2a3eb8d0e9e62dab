"""Inverse-demand least squares and the delta-method interval for theta.

The structural relation 1/quantity = intercept + beta * price + error is fit
by OLS or, when an instrument is available, by just-identified 2SLS.  The
intercept is not optional: the structural error has nonzero mean, so the
no-intercept regression is inconsistent even under the model's own data
generating process.  Slope standard errors are HC1 sandwich estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidLevel,
    InvalidSample,
    NearZeroSlope,
    NonpositiveSlope,
    SingularDesign,
    WeakFirstStage,
)

OLS = "OLS"
TSLS = "TSLS"


@dataclass(frozen=True)
class GoodSample:
    """Observations for one good: prices, quantities, optional instrument."""

    price: np.ndarray
    quantity: np.ndarray
    instrument: np.ndarray | None = None
    good_id: str = "good"

    def __post_init__(self):
        price = np.asarray(self.price, dtype=float)
        quantity = np.asarray(self.quantity, dtype=float)
        if price.ndim != 1 or quantity.ndim != 1:
            raise InvalidSample(f"{self.good_id}: arrays must be one-dimensional")
        if price.shape[0] != quantity.shape[0]:
            raise InvalidSample(
                f"{self.good_id}: price has {price.shape[0]} rows, "
                f"quantity has {quantity.shape[0]}"
            )
        if price.shape[0] < 3:
            raise InvalidSample(f"{self.good_id}: need at least three observations")
        if not np.all(np.isfinite(price)) or not np.all(np.isfinite(quantity)):
            raise InvalidSample(f"{self.good_id}: non-finite price or quantity")
        if np.any(price <= 0) or np.any(quantity <= 0):
            raise InvalidSample(f"{self.good_id}: price and quantity must be positive")
        with np.errstate(over="ignore"):
            inverse_finite = np.all(np.isfinite(1.0 / quantity))
        if not inverse_finite:
            raise InvalidSample(
                f"{self.good_id}: a quantity is so small that its reciprocal overflows"
            )
        object.__setattr__(self, "price", price)
        object.__setattr__(self, "quantity", quantity)
        if self.instrument is not None:
            z = np.asarray(self.instrument, dtype=float)
            if z.ndim != 1 or z.shape[0] != price.shape[0]:
                raise InvalidSample(f"{self.good_id}: instrument length mismatch")
            if not np.all(np.isfinite(z)):
                raise InvalidSample(f"{self.good_id}: non-finite instrument")
            object.__setattr__(self, "instrument", z)

    @property
    def n(self) -> int:
        return self.price.shape[0]


@dataclass(frozen=True)
class LsFit:
    """Linear fit of 1/quantity on price with intercept; se_beta is HC1-robust."""

    beta_hat: float
    intercept_hat: float
    se_beta: float
    n: int
    mode: str


@dataclass(frozen=True)
class Interval:
    """Closed interval with a confidence level and a provenance tag.

    `source` is one of XI, LS, INTERSECT, BOX, or FAILED (the CLI's empty
    stand-in for a good whose interval could not be computed).  Empty
    intervals carry NaN endpoints and `empty=True`; any other interval has
    finite endpoints, lower <= upper, and every level lies in [0, 1].
    """

    lower: float
    upper: float
    level: float
    source: str
    empty: bool = False

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"level {self.level} lies outside [0, 1]")
        if self.empty:
            return
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"endpoints {self.lower}, {self.upper} must be finite")
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @classmethod
    def make_empty(cls, level: float, source: str) -> "Interval":
        return cls(math.nan, math.nan, level, source, empty=True)

    @property
    def length(self) -> float:
        return math.nan if self.empty else self.upper - self.lower

    def contains(self, x: float) -> bool:
        return (not self.empty) and self.lower <= x <= self.upper


def fit_inverse_demand(sample: GoodSample, mode: str = OLS) -> LsFit:
    """Regress 1/quantity on price with intercept; TSLS instruments price.

    mode is OLS, TSLS or AUTO (any case); AUTO picks TSLS when the sample
    has an instrument and OLS otherwise.  Raises SingularDesign on a
    constant price column and WeakFirstStage when the instrument-price
    covariance is exactly zero (the slope is then not identified by these
    moments; rank-based inversion remains available).  Raises InvalidSample
    when the slope, intercept or standard error overflows.
    """
    kind = mode.upper()
    if kind == "AUTO":
        kind = TSLS if sample.instrument is not None else OLS
    if kind not in (OLS, TSLS):
        raise ValueError(f"mode must be auto, ols, or tsls, got {mode!r}")
    x = sample.price
    y = 1.0 / sample.quantity
    n = sample.n
    if np.ptp(x) == 0:
        raise SingularDesign(f"{sample.good_id}: price is constant")
    if kind == TSLS:
        if sample.instrument is None:
            raise InvalidSample(f"{sample.good_id}: TSLS requires an instrument")
        w = sample.instrument
    else:
        w = x
    # an overflow (a tiny quantity, a huge price) leaves a non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        xt = x - x.mean()
        yt = y - y.mean()
        wt = w - w.mean()
        swx = float(wt @ xt)
        if swx == 0.0:
            raise WeakFirstStage(
                f"{sample.good_id}: instrument has zero covariance with price"
            )
        beta = float(wt @ yt) / swx
        intercept = float(y.mean() - beta * x.mean())
        resid = y - intercept - beta * x
        meat = float(np.sum((wt * resid) ** 2))
        se = math.sqrt(n / (n - 2) * meat) / abs(swx)
    if not all(map(math.isfinite, (beta, intercept, se))):
        raise InvalidSample(f"{sample.good_id}: the least-squares fit overflows (slope {beta:g})")
    return LsFit(beta_hat=beta, intercept_hat=intercept, se_beta=se, n=n, mode=kind)


def theta_interval_delta(fit: LsFit, level: float) -> Interval:
    """Two-sided delta-method interval for theta = 1/beta, clipped at zero.

    se_theta = se_beta / beta^2 by first-order variance propagation; z is the
    standard normal quantile (statistics.NormalDist) at p = 0.5 + level/2,
    and InvalidLevel is raised unless p, as rounded, lies strictly in (0.5, 1).
    """
    p = 0.5 + level / 2.0
    if not 0.5 < p < 1.0:
        raise InvalidLevel(f"level must leave 0.5 + level/2 strictly inside (0.5, 1), got {level}")
    if fit.beta_hat <= 0:
        raise NonpositiveSlope(
            f"slope {fit.beta_hat:g} admits no positive theta; "
            "the inverse-demand model does not fit this data"
        )
    theta = 1.0 / fit.beta_hat
    try:
        # beta^2 underflows to 0 for a slope below ~1e-162
        beta_sq = fit.beta_hat**2
        se_theta = fit.se_beta / beta_sq if beta_sq > 0.0 else math.inf
    except OverflowError:
        # beta^2 overflows for a slope above ~1.3e154; divide by beta twice
        se_theta = fit.se_beta / fit.beta_hat / fit.beta_hat
    from statistics import NormalDist
    z = NormalDist().inv_cdf(p)
    lower = max(0.0, theta - z * se_theta)
    upper = theta + z * se_theta
    if not math.isfinite(upper):
        raise NearZeroSlope(
            f"slope {fit.beta_hat:g} is so near zero that theta = 1/slope "
            "has no finite delta-method interval"
        )
    return Interval(lower=lower, upper=upper, level=level, source="LS")
