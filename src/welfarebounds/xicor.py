"""Rank-based dependence statistic with full tie handling.

The statistic sorts the sample by a conditioning variable and measures how
erratically the ranks of the response jump between neighbouring positions.
Smooth rank paths indicate the response is close to a function of the
conditioning variable; under independence (with a continuous response)
sqrt(n) times the statistic is asymptotically N(0, 0.4), which is what the
critical values here are built from.

Ties are handled in two distinct ways:
  * ties in the conditioning variable are broken uniformly at random from a
    caller-supplied seed (never global RNG state), and the number of
    randomized orderings is reported so callers can detect accidental
    discreteness;
  * ties in the response switch the denominator to a tie-aware form built
    from l_i, the count of response values weakly above the i-th one.

Response ranks use the max-rank convention, so r_i and l_i come out of a
single counting pass over the sorted response values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateResponse, InvalidLevel, InvalidSample

# Asymptotic variance of sqrt(n) * xi under independence.
NULL_VARIANCE = 0.4


def _as_finite_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidSample(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InvalidSample(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PairedSample:
    """A conditioning variable paired with a response, equal lengths n >= 2."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        first = _as_finite_1d(self.first, "first")
        second = _as_finite_1d(self.second, "second")
        if first.shape[0] != second.shape[0]:
            raise InvalidSample(
                f"length mismatch: first has {first.shape[0]} rows, "
                f"second has {second.shape[0]}"
            )
        if first.shape[0] < 2:
            raise InvalidSample("need at least two observations")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @property
    def n(self) -> int:
        return self.first.shape[0]


@dataclass(frozen=True)
class XiReport:
    """One evaluation of the dependence statistic.

    `normalized` is exactly sqrt(n) * xi; `ties_broken` counts how many
    orderings of the conditioning variable were decided by the seeded RNG.
    """

    xi: float
    n: int
    normalized: float
    ties_broken: int


def response_rank_scale(second: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-ranks of the response plus the factor turning rank jumps into xi.

    Returns (ranks, scale) with xi = 1 - jump_sum * scale, where scale is
    3/(n^2 - 1) for a tie-free response and n / (2 * sum l_i*(n - l_i)) when
    the response has ties.  Both depend only on the multiset of response
    values, so grid evaluators can reuse them across reorderings of the
    conditioning variable.
    """
    n = second.shape[0]
    s = np.sort(second)
    if s[0] == s[-1]:
        raise DegenerateResponse("all response values are equal")
    ranks = np.searchsorted(s, second, side="right")
    if np.any(s[1:] == s[:-1]):
        l = n - np.searchsorted(s, second, side="left")
        scale = n / (2.0 * float(np.sum(l * (n - l))))
    else:
        scale = 3.0 / (float(n) * n - 1.0)
    return ranks, scale


def xi(sample: PairedSample, rng_seed: int) -> XiReport:
    """Dependence of `second` on `first`, computed in O(n log n).

    The value lies in [-1/2, 1] and cannot exceed 1 - 3/(n+1) on tie-free
    data.  Raises DegenerateResponse when every response value is equal.
    """
    ranks, scale = response_rank_scale(sample.second)
    # ascending order of `first`; exact ties are broken uniformly at random
    u = np.random.default_rng(rng_seed).random(sample.n)
    order = np.lexsort((u, sample.first))
    jumps = int(np.abs(np.diff(ranks[order])).sum())
    value = 1.0 - jumps * scale
    n = sample.n
    ties_broken = n - int(np.unique(sample.first).shape[0])
    return XiReport(
        xi=value,
        n=n,
        normalized=math.sqrt(n) * value,
        ties_broken=ties_broken,
    )


def critical_value(alpha: float) -> float:
    """Upper critical value for sqrt(n) * xi under independence.

    sqrt(0.4) times the standard normal quantile (statistics.NormalDist) at
    p = 1 - alpha; InvalidLevel unless p, as rounded, lies strictly in (0, 1).
    """
    p = 1.0 - alpha
    if not 0.0 < p < 1.0:
        raise InvalidLevel(f"alpha must leave 1 - alpha strictly inside (0, 1), got {alpha}")
    return math.sqrt(NULL_VARIANCE) * NormalDist().inv_cdf(p)
