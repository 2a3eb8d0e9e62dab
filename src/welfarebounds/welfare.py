"""Welfare-loss evaluation and its extremes over constrained parameter boxes.

The loss of a consumer with reference consumption ystar under price increases
delta is sum_k theta_k * log(1 + delta_k * ystar_k / theta_k).  The function
is strictly increasing and strictly concave in each theta_k wherever
delta_k * ystar_k > 0, which drives both solvers here:

  * over a plain box the extremes sit at the corners;
  * with an added sum(theta) = s constraint the maximum has a closed form.
    The marginal log1p(c/theta) - c/(c+theta) depends on theta/c alone, so
    every coordinate with c > 0 is clip(g * c_k, lo_k, hi_k) for one common
    ratio g, read off the piecewise-linear sum(theta(g)) between two of its
    sorted breakpoints;
  * the minimum of the concave objective over the same slice is found by
    Falk-Soland branch-and-bound (Falk & Soland 1969, Management Science
    15:550), exact to a relative 1e-12 at any number of goods.

bounds_box is the one entry point for both, for one individual or for N at
once (a query holds one row per individual).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

import numpy as np

from .errors import DataError, EmptyConfidenceSet, InvalidQuery, InvalidTheta

# Lower edge of the admissible theta space, and the default grid_lo.
POSITIVITY_FLOOR = 1e-6

# Below this (far under the positivity floor) a loss term takes its analytic
# limit theta * log(1 + c/theta) -> 0 instead of risking c/theta overflow.
_THETA_TINY = 1e-12

# Branch-and-bound stops once no open node's lower bound lies more than this
# relative distance below the best value found.
_BNB_RTOL = 1e-12


def _total(values) -> float:
    """The values added left to right from 0.0 (sum() compensates its float sums from Python 3.12)."""
    return reduce(add, values, 0.0)


def value_faults(delta: np.ndarray, y_star: np.ndarray) -> tuple:
    """A query's value rules: one (mask, need) pair each for delta, y_star and
    delta * y_star (float arrays of one shape), where mask flags the entries
    that are not `need`, the rule's words."""
    with np.errstate(over="ignore", invalid="ignore"):
        spend = delta * y_star
    return (
        (~(np.isfinite(delta) & (delta >= 0)), "finite and nonnegative"),
        (~(np.isfinite(y_star) & (y_star > 0)), "finite and positive"),
        (~np.isfinite(spend), "finite"),
    )


@dataclass(frozen=True)
class WelfareQuery:
    """Counterfactual price increases and reference consumption.

    delta and y_star have shape (K,) for one individual or (N, K) for N,
    one row each; the goods run along the last axis.
    """

    delta: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        y_star = np.asarray(self.y_star, dtype=float)
        if delta.ndim not in (1, 2) or delta.shape != y_star.shape:
            raise InvalidQuery("delta and y_star must be 1-d or 2-d arrays of equal shape")
        messages = (
            "price changes must be {}; price drops are outside the model's domain",
            "reference consumption must be {}",
            "delta * y_star must be {}",
        )
        for (bad, need), message in zip(value_faults(delta, y_star), messages):
            if bad.any():
                raise InvalidQuery(message.format(need))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "y_star", y_star)

    @property
    def K(self) -> int:
        return self.delta.shape[-1]

    @property
    def spend_change(self) -> np.ndarray:
        """Per-good extra expenditure delta_k * ystar_k at fixed consumption."""
        return self.delta * self.y_star


@dataclass(frozen=True)
class ConstraintSet:
    """Per-good theta intervals and an optional sum(theta) target.

    Theta lives on [POSITIVITY_FLOOR, inf): each lower endpoint is floored there.
    """

    box: tuple
    sum_to: float | None = None

    def __post_init__(self):
        box = tuple(self.box)
        if not box:
            raise DataError("constraint box must contain at least one interval")
        object.__setattr__(self, "box", box)

    @property
    def K(self) -> int:
        return len(self.box)

    @cached_property
    def empty(self) -> bool:
        """True when some interval is empty or lies wholly below the floor, or when
        sum_to lies outside [sum of floored lowers, sum of uppers] beyond a relative 1e-12."""
        if any(iv.empty or iv.upper < POSITIVITY_FLOOR for iv in self.box):
            return True
        if self.sum_to is None:
            return False
        lowers, uppers = self._endpoints()
        eps = 1e-12 * max(1.0, abs(self.sum_to))
        return not lowers.sum() - eps <= self.sum_to <= uppers.sum() + eps

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        lowers = np.array([max(iv.lower, POSITIVITY_FLOOR) for iv in self.box], dtype=float)
        return lowers, np.array([iv.upper for iv in self.box], dtype=float)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Floored lower and raw upper endpoints; raises EmptyConfidenceSet if empty."""
        if self.empty:
            raise EmptyConfidenceSet(
                "a box interval is empty or lies below the positivity floor,"
                " or the sum target lies outside the box"
            )
        return self._endpoints()

    def joint_level(self) -> float:
        """Union-bound confidence level of the whole box."""
        return max(0.0, 1.0 - _total(1.0 - iv.level for iv in self.box))


@dataclass(frozen=True)
class WelfareBounds:
    """Extremes of the loss over a constraint set, with the level they hold at.

    wl_min and wl_max are floats for a one-individual query and N-arrays
    for an N-row query.  Both extremes are exact.
    """

    wl_min: float | np.ndarray
    wl_max: float | np.ndarray
    level: float


def _loss_terms(theta, c) -> np.ndarray:
    """Terms theta * log1p(c/theta), broadcast over theta and c.

    A term is exactly 0 where c is 0, and where theta is below _THETA_TINY.
    Where c/theta overflows, the term is theta * (log c - log theta +
    log1p(theta/c)), the same value without the overflow.
    """
    live = (c > 0) & (theta >= _THETA_TINY)
    t = np.where(live, theta, 1.0)
    try:
        with np.errstate(over="raise"):
            return np.where(live, t * np.log1p(c / t), 0.0)
    except FloatingPointError:
        with np.errstate(all="ignore"):  # every value it spoils is masked out below
            ratio = c / t
            wide = t * (np.log(c) - np.log(t) + np.log1p(t / c))
        return np.where(live, np.where(np.isinf(ratio), wide, t * np.log1p(ratio)), 0.0)


def welfare_loss(theta, query: WelfareQuery) -> float | np.ndarray:
    """Loss sum_k theta_k * log(1 + delta_k * ystar_k / theta_k).

    A float for a one-individual query, an (N,) array for an N-row query;
    theta is one K-vector either way.  Goods with zero price change
    contribute exactly 0.  Raises InvalidTheta unless every theta_k is
    finite and positive.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (query.K,):
        raise InvalidTheta(
            f"theta has shape {theta.shape}, query expects ({query.K},)"
        )
    if not np.all(np.isfinite(theta)) or np.any(theta <= 0):
        raise InvalidTheta("theta entries must be finite and positive")
    loss = _loss_terms(theta, query.spend_change).sum(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def _fill(room: np.ndarray, budget: float) -> np.ndarray:
    """Shares of `budget` poured into `room` front to back, each capped at its room."""
    return np.clip(budget - (np.cumsum(room) - room), 0.0, room)


def _common_ratio_fill(c, lo, hi, budget: float) -> np.ndarray:
    """clip(g * c, lo, hi) for the g whose sum is budget, for c > 0 and sum(lo) <= budget <= sum(hi).

    The sum is piecewise linear and nondecreasing in g, with breakpoints at
    lo/c and hi/c: locate the segment that holds the budget by bisection over
    the sorted breakpoints, taken as logs so that none overflows.  On that
    segment the goods inside their bounds share what the others leave in
    proportion to c, so g itself (which overflows for a subnormal c) is
    never formed.
    """
    log_c, log_hi = np.log(c), np.log(hi)
    lo_ratio, hi_ratio = np.log(lo) - log_c, log_hi - log_c
    points = np.sort(np.concatenate((lo_ratio, hi_ratio)))

    def total(t):
        return float(np.clip(np.exp(np.minimum(t + log_c, log_hi)), lo, hi).sum())

    i = min(max(bisect.bisect_right(points, budget, key=total) - 1, 0), points.shape[0] - 2)
    left, right = points[i], points[i + 1]
    theta = np.where(hi_ratio <= left, hi, lo)
    free = (lo_ratio <= left) & (hi_ratio >= right)
    if np.any(free):
        theta[free] = (budget - theta[~free].sum()) * (c[free] / c[free].sum())
    return np.clip(theta, lo, hi)


def _solve_max(c, lo, hi, target) -> np.ndarray:
    """Maximizer of the loss on the box with sum(theta) = target.

    Goods with c > 0 share one ratio theta_k / c_k wherever they are inside
    their bounds; goods with c = 0 add nothing and take what the others
    leave of the target, filled front to back.
    """
    active = c > 0
    free = ~active
    theta = lo.astype(float)
    if np.any(active):
        ca, loa, hia = c[active], lo[active], hi[active]
        rest = float(target - lo[free].sum())
        theta[active] = _common_ratio_fill(ca, loa, hia, float(np.clip(rest, loa.sum(), hia.sum())))
    theta[free] += _fill(hi[free] - lo[free], target - theta.sum())
    return theta


def _solve_min(c, lo, hi, target) -> np.ndarray:
    """Global minimizer of the loss on the box with sum(theta) = target.

    Falk-Soland branch-and-bound.  On a sub-box the secant of each concave
    term is its convex envelope, so the relaxation is a continuous knapsack,
    solved by filling the cheapest secant slopes first.  Its solution is
    feasible (an upper bound) and its envelope value is a lower bound.
    Nodes are taken lowest bound first and split on the coordinate whose
    term lies furthest above its secant, at its relaxed value.
    """

    def relax(lo_n, hi_n):
        f_lo = _loss_terms(lo_n, c)
        width = hi_n - lo_n
        slope = np.divide(
            _loss_terms(hi_n, c) - f_lo, width, out=np.zeros_like(width), where=width > 0
        )
        order = np.argsort(slope, kind="stable")
        room = width[order]
        theta = lo_n.copy()
        theta[order] += _fill(room, target - lo_n.sum())
        envelope = f_lo + slope * (theta - lo_n)
        return float(envelope.sum()), theta, envelope

    best_val, best_theta = math.inf, None
    bound, theta, envelope = relax(lo, hi)
    heap = [(bound, 0, theta, envelope, lo, hi)]
    tick = 0
    while heap:
        bound, _, theta, envelope, lo_n, hi_n = heapq.heappop(heap)
        if bound >= best_val - _BNB_RTOL * abs(best_val):
            break
        terms = _loss_terms(theta, c)
        value = float(terms.sum())
        if value < best_val:
            best_val, best_theta = value, theta
        gap = terms - envelope
        k = int(np.argmax(gap))
        if gap[k] <= _BNB_RTOL * abs(best_val):
            continue
        cut_hi, cut_lo = hi_n.copy(), lo_n.copy()
        cut_hi[k] = cut_lo[k] = theta[k]
        for lo_c, hi_c in ((lo_n, cut_hi), (cut_lo, hi_n)):
            bound, theta_c, envelope_c = relax(lo_c, hi_c)
            if bound < best_val - _BNB_RTOL * abs(best_val):
                tick += 1
                heapq.heappush(heap, (bound, tick, theta_c, envelope_c, lo_c, hi_c))
    return best_theta


def bounds_box(constraints: ConstraintSet, query: WelfareQuery) -> WelfareBounds:
    """Loss extremes over the box, or over its slice sum(theta) = sum_to.

    Over the box they sit at the corners.  On the slice the maximizer has a
    closed form (every coordinate with delta_k * ystar_k > 0 is
    clip(g * c_k, lo_k, hi_k) for the common ratio g that meets the sum)
    and the minimum, at a vertex of the feasible polytope, comes from
    Falk-Soland branch-and-bound, one individual at a time.  On an N-row
    query wl_min and wl_max are N-arrays, and row i equals the
    one-individual call on row i bit for bit.  Raises EmptyConfidenceSet
    when constraints.empty.
    """
    lowers, uppers = constraints.bounds()
    if constraints.K != query.K:
        raise InvalidTheta(f"box has {constraints.K} goods, query has {query.K}")
    c = query.spend_change
    if constraints.sum_to is None:
        theta_min, theta_max = lowers, uppers
    else:
        target, rows = float(constraints.sum_to), c.reshape(-1, query.K)
        theta_min = np.array([_solve_min(r, lowers, uppers, target) for r in rows]).reshape(c.shape)
        theta_max = np.array([_solve_max(r, lowers, uppers, target) for r in rows]).reshape(c.shape)
    wl_max = _loss_terms(theta_max, c).sum(axis=-1)
    wl_min = np.minimum(_loss_terms(theta_min, c).sum(axis=-1), wl_max)
    if c.ndim == 1:
        wl_min, wl_max = float(wl_min), float(wl_max)
    return WelfareBounds(wl_min=wl_min, wl_max=wl_max, level=constraints.joint_level())
