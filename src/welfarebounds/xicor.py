"""Rank-based dependence statistic with full tie handling.

The statistic sorts the sample by a conditioning variable and measures how
erratically the ranks of the response jump between neighbouring positions.
Smooth rank paths indicate the response is close to a function of the
conditioning variable; under independence (with a continuous response)
sqrt(n) times the statistic is asymptotically N(0, 0.4), which is what the
critical values here are built from.

Ties are handled in two distinct ways:
  * ties in the conditioning variable are broken uniformly at random from a
    caller-supplied seed (never global RNG state), so a seed fixes the value:
    by value, then by the seed's `tie_uniforms`, then by index.  confset's
    grid draws the same uniforms once per good and orders the residuals of
    every node by them;
  * ties in the response switch the denominator to a tie-aware form built
    from l_i, the count of response values weakly above the i-th one.

Response ranks use the max-rank convention, so r_i and l_i come out of a
single counting pass over the sorted response values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DegenerateResponse, InvalidLevel, InvalidSample

# Asymptotic variance of sqrt(n) * xi under independence.
NULL_VARIANCE = 0.4


def response_rank_scale(second: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-ranks of the response plus the factor turning rank jumps into xi.

    Returns (ranks, scale) with xi = 1 - (sum of rank jumps) * scale, where scale is
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


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """The SeedSequence of `seed` and a spawn path: the package's one seed rule.

    Every seeded generator is built from one, and a negative seed raises
    ConfigError naming the parameter "seed".  Generator(PCG64(seed_sequence(s)))
    is numpy's default_rng(s).
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}", ("seed",))
    return np.random.SeedSequence(entropy=seed, spawn_key=path)


def tie_uniforms(rng_seed: int, n: int) -> np.ndarray:
    """The n uniforms that order observations tied in the conditioning variable.

    Observation k sorts by its value, then by the k-th uniform, then by k,
    in `xi` and at every node of confset's grid.
    """
    return np.random.Generator(np.random.PCG64(seed_sequence(rng_seed))).random(n)


def xi(first, second, rng_seed: int) -> float:
    """Dependence of `second` on `first`, computed in O(n log n).

    Raises InvalidSample unless both are 1-d and finite, of one length n >= 2,
    and DegenerateResponse when every response value is equal.  The value
    lies in [-1/2, 1] and cannot exceed 1 - 3/(n+1) on tie-free data;
    sqrt(n) times it is the statistic the critical values are for.
    """
    first, second = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    for name, values in (("first", first), ("second", second)):
        if values.ndim != 1:
            raise InvalidSample(f"{name} must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise InvalidSample(f"{name} contains non-finite entries")
    n = first.shape[0]
    if n != second.shape[0]:
        raise InvalidSample(f"length mismatch: first has {n} rows, second has {second.shape[0]}")
    if n < 2:
        raise InvalidSample("need at least two observations")
    ranks, scale = response_rank_scale(second)
    # rank jumps between neighbours in the ascending order of `first`,
    # ties ordered by tie_uniforms, then by index
    order = np.lexsort((tie_uniforms(rng_seed, n), first))
    return 1.0 - int(np.abs(np.diff(ranks[order])).sum()) * scale


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
