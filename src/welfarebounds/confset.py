"""Confidence sets for theta by test inversion, intersection, and diagnostics.

The rank-dependence statistic of the residual price - theta/quantity against
the instrument is evaluated on a grid of theta values; the nodes where
sqrt(n) times the statistic stays below its critical value form the
acceptance region, and the reported interval is its hull (minimum to
maximum accepted node).  The full profile is kept for diagnostics, including
a segment count that flags disconnected acceptance regions.

Intersection with the delta-method interval follows the usual error-budget
split: each piece runs at half the per-good share, and the grid is laid over
the bounded least-squares interval (clipped below at the positivity floor),
which also supplies the parameter space that pure grid search lacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyConfidenceSet, InvalidGrid, InvalidLevel
from .regress import GoodSample, Interval, OLS, TSLS, fit_inverse_demand, theta_interval_delta
from .welfare import POSITIVITY_FLOOR
from .xicor import PairedSample, critical_value, response_rank_scale, xi

# Default cap of the xi-only search space when no least-squares interval
# bounds it; a config value, not a structural constant.
DEFAULT_GRID_HI = 6.0
DEFAULT_GRID_NODES = 1000

CASE_BOUNDED = "BOUNDED_AB"
CASE_UNBOUNDED_ABOVE = "UNBOUNDED_ABOVE"
CASE_CONTAINS_ZERO = "CONTAINS_ZERO"
CASE_WHOLE_SPACE = "WHOLE_SPACE"

_CHUNK = 128


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced grid of candidate theta values on [lo, hi]."""

    lo: float
    hi: float
    nodes: int

    def __post_init__(self):
        if self.nodes < 2:
            raise InvalidGrid(f"need at least 2 nodes, got {self.nodes}")
        if self.lo < 0:
            raise InvalidGrid(f"grid lower bound must be nonnegative, got {self.lo}")
        if not self.hi > self.lo:
            raise InvalidGrid(
                f"grid upper bound {self.hi} must exceed lower bound {self.lo}"
            )

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nodes)


@dataclass(frozen=True)
class XiProfile:
    """Normalized statistic at every grid node plus the critical value."""

    thetas: np.ndarray
    stats: np.ndarray
    critical: float

    def accepted(self) -> np.ndarray:
        return self.stats <= self.critical

    @property
    def n_segments(self) -> int:
        """Number of contiguous accepted runs; > 1 flags a disconnected region."""
        acc = self.accepted()
        if not acc.any():
            return 0
        starts = acc & ~np.concatenate(([False], acc[:-1]))
        return int(starts.sum())


@dataclass(frozen=True)
class ShapeDiagnostic:
    """Endpoint statistics that classify the shape of the inverted set.

    stat_at_zero is the normalized statistic of price against the instrument
    (the profile's value at theta = 0); stat_at_inf is the quantity version
    (its large-theta limit).  Comparing both against the critical value
    separates bounded, one-sided, and trivial confidence sets.
    """

    stat_at_zero: float
    stat_at_inf: float
    critical: float
    case_id: str


def child_seed(seed: int, *path: int) -> int:
    """Deterministic integer seed derived from a spawn path."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return int(ss.generate_state(1)[0])


def _effective_instrument(sample: GoodSample) -> np.ndarray:
    # Exogenous-price designs pass price as its own instrument.
    return sample.instrument if sample.instrument is not None else sample.price


def profile_stats(
    price: np.ndarray,
    quantity: np.ndarray,
    z: np.ndarray,
    thetas: np.ndarray,
    rng_seed: int,
) -> np.ndarray:
    """sqrt(n) * xi(price - theta/quantity, z) at every theta.

    Ranks are recomputed from scratch at each node (one sort per node,
    vectorized in chunks).  Nodes whose transformed variable has exact ties
    are redone through `xi` with a child seed of (rng_seed, node index), so
    serial and parallel evaluation orders give identical results.
    """
    n = price.shape[0]
    ranks, scale = response_rank_scale(z)
    root = math.sqrt(n)
    inv_y = 1.0 / quantity
    stats = np.empty(thetas.shape[0])
    for start in range(0, thetas.shape[0], _CHUNK):
        chunk = thetas[start : start + _CHUNK]
        fm = price[None, :] - chunk[:, None] * inv_y[None, :]
        # Unstable sort is fine: rows with exact ties are redone below, and
        # on distinct keys every sort kind yields the same order.
        order = np.argsort(fm, axis=1)
        sorted_first = np.take_along_axis(fm, order, axis=1)
        jumps = np.abs(np.diff(ranks[order], axis=1)).sum(axis=1)
        vals = 1.0 - jumps * scale
        tied = np.any(sorted_first[:, 1:] == sorted_first[:, :-1], axis=1)
        for i in np.nonzero(tied)[0]:
            node = start + int(i)
            rep = xi(PairedSample(fm[i], z), child_seed(rng_seed, node))
            vals[i] = rep.xi
        stats[start : start + chunk.shape[0]] = root * vals
    return stats


def cs_xi(
    sample: GoodSample,
    alpha: float,
    grid: GridSpec,
    rng_seed: int,
) -> tuple[Interval, XiProfile]:
    """Invert the dependence statistic over the grid at level 1 - alpha.

    Returns the hull of accepted nodes plus the full profile.  Raises
    EmptyConfidenceSet (carrying the profile) when no node is accepted.
    """
    c = critical_value(alpha)
    z = _effective_instrument(sample)
    thetas = grid.values()
    stats = profile_stats(sample.price, sample.quantity, z, thetas, rng_seed)
    profile = XiProfile(thetas=thetas, stats=stats, critical=c)
    acc = profile.accepted()
    level = 1.0 - alpha
    if not acc.any():
        raise EmptyConfidenceSet(
            f"{sample.good_id}: no grid node accepted at level {level:g}",
            level=level,
            interval=Interval.make_empty(level, "XI"),
            profile=profile,
        )
    accepted_thetas = thetas[acc]
    interval = Interval(
        lower=float(accepted_thetas.min()),
        upper=float(accepted_thetas.max()),
        level=level,
        source="XI",
    )
    return interval, profile


def intersect(a: Interval, b: Interval) -> Interval:
    """Intersection with union-bound level bookkeeping; empty is a valid result."""
    level = max(0.0, 1.0 - (1.0 - a.level) - (1.0 - b.level))
    if a.empty or b.empty:
        return Interval.make_empty(level, "INTERSECT")
    lower = max(a.lower, b.lower)
    upper = min(a.upper, b.upper)
    if lower > upper:
        return Interval.make_empty(level, "INTERSECT")
    return Interval(lower=lower, upper=upper, level=level, source="INTERSECT")


def bonferroni_share(alpha: float, K: int) -> float:
    """Error budget per good (alpha/K); cs_combined halves it again for an intersection."""
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must lie strictly in (0, 1), got {alpha}")
    if K < 1:
        raise ValueError(f"need at least one good, got K={K}")
    return alpha / K


def _resolve_ls_mode(sample: GoodSample, ls_mode: str) -> str:
    kind = ls_mode.lower()
    if kind == "auto":
        return TSLS if sample.instrument is not None else OLS
    if kind == "ols":
        return OLS
    if kind == "tsls":
        return TSLS
    raise ValueError(f"ls_mode must be auto, ols, or tsls, got {ls_mode!r}")


def cs_combined(
    sample: GoodSample,
    alpha_share: float,
    grid_nodes: int = DEFAULT_GRID_NODES,
    mode: str = "intersect",
    rng_seed: int = 0,
    grid_lo: float = POSITIVITY_FLOOR,
    grid_hi: float = DEFAULT_GRID_HI,
    floor: float = POSITIVITY_FLOOR,
    ls_mode: str = "auto",
) -> Interval:
    """One good's interval at per-good error share alpha_share.

    mode "xi":        grid inversion over [grid_lo, grid_hi] at 1 - alpha_share.
    mode "ls":        delta-method interval at 1 - alpha_share (TSLS when an
                      instrument is present, OLS otherwise, unless ls_mode
                      forces one).
    mode "intersect": both pieces at 1 - alpha_share/2, the grid laid over
                      the bounded least-squares interval, then intersected.
    """
    if not 0.0 < alpha_share < 1.0:
        raise InvalidLevel(
            f"alpha share must lie strictly in (0, 1), got {alpha_share}"
        )
    kind = mode.lower()
    if kind == "xi":
        interval, _ = cs_xi(
            sample, alpha_share, GridSpec(grid_lo, grid_hi, grid_nodes), rng_seed
        )
        return interval
    if kind == "ls":
        fit = fit_inverse_demand(sample, _resolve_ls_mode(sample, ls_mode))
        return theta_interval_delta(fit, 1.0 - alpha_share)
    if kind != "intersect":
        raise ValueError(f"mode must be xi, ls, or intersect, got {mode!r}")

    half = alpha_share / 2.0
    fit = fit_inverse_demand(sample, _resolve_ls_mode(sample, ls_mode))
    ls = theta_interval_delta(fit, 1.0 - half)
    lo = max(ls.lower, floor)
    hi = ls.upper
    level = 1.0 - alpha_share
    if hi < lo:
        raise EmptyConfidenceSet(
            f"{sample.good_id}: least-squares interval sits below the positivity floor",
            level=level,
            interval=Interval.make_empty(level, "INTERSECT"),
        )
    if hi - lo < 1e-12:
        # Degenerate least-squares interval: check the single point.
        z = _effective_instrument(sample)
        stat = profile_stats(
            sample.price, sample.quantity, z, np.array([lo]), rng_seed
        )[0]
        if stat > critical_value(half):
            raise EmptyConfidenceSet(
                f"{sample.good_id}: degenerate point rejected by the rank test",
                level=level,
                interval=Interval.make_empty(level, "INTERSECT"),
            )
        point = Interval(lo, lo, 1.0 - half, "XI")
        return intersect(point, ls)
    xi_part, _ = cs_xi(sample, half, GridSpec(lo, hi, grid_nodes), rng_seed)
    return intersect(xi_part, ls)


def shape_diagnostic(sample: GoodSample, alpha: float, rng_seed: int) -> ShapeDiagnostic:
    """Classify the inverted set's shape from its two endpoint statistics.

    A large price statistic pushes the lower bound up; a large quantity
    statistic pulls the upper bound down.  Both small means the data cannot
    rule out any theta at this level.
    """
    c = critical_value(alpha)
    z = _effective_instrument(sample)
    s0 = xi(PairedSample(sample.price, z), child_seed(rng_seed, 0)).normalized
    s1 = xi(PairedSample(sample.quantity, z), child_seed(rng_seed, 1)).normalized
    if s0 > c and s1 > c:
        case = CASE_BOUNDED
    elif s0 > c:
        case = CASE_UNBOUNDED_ABOVE
    elif s1 > c:
        case = CASE_CONTAINS_ZERO
    else:
        case = CASE_WHOLE_SPACE
    return ShapeDiagnostic(stat_at_zero=s0, stat_at_inf=s1, critical=c, case_id=case)


def smooth_instrument(z, half_width: float, rng_seed: int) -> np.ndarray:
    """Add seeded Uniform[-half_width, half_width] noise to a discrete instrument.

    Restores the continuity the inversion theory needs; independent noise
    keeps the instrument valid.
    """
    z = np.asarray(z, dtype=float)
    if half_width < 0:
        raise ValueError(f"half width must be nonnegative, got {half_width}")
    if half_width == 0:
        return z.copy()
    rng = np.random.default_rng(rng_seed)
    return z + rng.uniform(-half_width, half_width, z.shape[0])
