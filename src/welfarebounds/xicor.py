"""Rank-based dependence statistic with full tie handling.

The statistic sorts the sample by a conditioning variable and measures how
erratically the ranks of the response jump between neighbouring positions.
Smooth rank paths indicate the response is close to a function of the
conditioning variable; under independence (with a continuous response)
sqrt(n) times the statistic is asymptotically N(0, 0.4), which is what the
critical values here are built from.

Ties are handled in two distinct ways:
  * ties in the conditioning variable are broken uniformly at random from a
    caller-supplied seed (never global RNG state), so a seed fixes the value.
    `jump_sum` owns this one tie order, for the package: by value, then by
    the seed's `tie_uniforms`, then by index.  confset's grid calls it for
    every node whose residuals it cannot order by its packed sort;
  * ties in the response switch the denominator to a tie-aware form built
    from l_i, the count of response values weakly above the i-th one.

Response ranks use the max-rank convention, so r_i and l_i come out of a
single counting pass over the sorted response values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def tie_uniforms(rng_seed: int, n: int) -> np.ndarray:
    """The n uniforms that order observations tied in the conditioning variable.

    Observation k sorts by its value, then by the k-th uniform, then by k.
    confset._tie_uniform_rows draws the same uniforms for many seeds at
    once, so a change here must be made there too.
    """
    return np.random.default_rng(rng_seed).random(n)


def jump_sum(first: np.ndarray, ranks: np.ndarray, rng_seed: int) -> int:
    """Sum of |ranks[k'] - ranks[k]| over neighbours k, k' in the ascending order of `first`.

    Observations tied in `first` are ordered by tie_uniforms(rng_seed, n),
    then by index: the tie order of `xi`, and of every grid node that
    confset evaluates.
    """
    order = np.lexsort((tie_uniforms(rng_seed, first.shape[0]), first))
    return int(np.abs(np.diff(ranks[order])).sum())


def xi(sample: PairedSample, rng_seed: int) -> float:
    """Dependence of `second` on `first`, computed in O(n log n).

    The value lies in [-1/2, 1] and cannot exceed 1 - 3/(n+1) on tie-free
    data; sqrt(n) times it is the statistic the critical values are for.
    Raises DegenerateResponse when every response value is equal.
    """
    ranks, scale = response_rank_scale(sample.second)
    return 1.0 - jump_sum(sample.first, ranks, rng_seed) * scale


def critical_value(alpha: float) -> float:
    """Upper critical value for sqrt(n) * xi under independence.

    sqrt(0.4) times the standard normal quantile (statistics.NormalDist) at
    p = 1 - alpha; InvalidLevel unless p, as rounded, lies strictly in (0, 1).
    """
    p = 1.0 - alpha
    if not 0.0 < p < 1.0:
        raise InvalidLevel(f"alpha must leave 1 - alpha strictly inside (0, 1), got {alpha}")
    from statistics import NormalDist
    return math.sqrt(NULL_VARIANCE) * NormalDist().inv_cdf(p)
