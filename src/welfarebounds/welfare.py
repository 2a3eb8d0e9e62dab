"""Welfare-loss evaluation and its extremes over constrained parameter boxes.

The loss of a consumer with reference consumption ystar under price increases
delta is sum_k theta_k * log(1 + delta_k * ystar_k / theta_k).  The function
is strictly increasing and strictly concave in each theta_k wherever
delta_k * ystar_k > 0, which drives both solvers here:

  * over a plain box the extremes sit at the corners (bounds_box, for one
    individual or for N at once: a query holds one row per individual);
  * with an added sum(theta) = s constraint the maximum has a closed form.
    The marginal log1p(c/theta) - c/(c+theta) depends on theta/c alone, so
    every coordinate with c > 0 is clip(g * c_k, lo_k, hi_k) for one common
    ratio g, read off the piecewise-linear sum(theta(g)) between two of its
    sorted breakpoints;
  * the minimum of the concave objective over the same slice is found by
    Falk-Soland branch-and-bound (Falk & Soland 1969, Management Science
    15:550), exact to a relative 1e-12 at any number of goods.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyConfidenceSet, InvalidTheta, NegativePriceChange

# Lower edge of the admissible theta space; also the default grid floor.
POSITIVITY_FLOOR = 1e-6

# Below this (far under the positivity floor) a loss term takes its analytic
# limit theta * log(1 + c/theta) -> 0 instead of risking c/theta overflow.
_THETA_TINY = 1e-12

# Branch-and-bound stops once no open node's lower bound lies more than this
# relative distance below the best value found.
_BNB_RTOL = 1e-12


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
            raise ValueError("delta and y_star must be 1-d or 2-d arrays of equal shape")
        if not np.all(np.isfinite(delta)) or np.any(delta < 0):
            raise NegativePriceChange(
                "price changes must be finite and nonnegative; "
                "price drops are outside the model's domain"
            )
        if not np.all(np.isfinite(y_star)) or np.any(y_star <= 0):
            raise ValueError("reference consumption must be finite and positive")
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
    """Per-good theta intervals, an optional sum(theta) target, and a floor."""

    box: tuple
    sum_to: float | None = None
    positivity_floor: float = POSITIVITY_FLOOR

    def __post_init__(self):
        box = tuple(self.box)
        if not box:
            raise ValueError("constraint box must contain at least one interval")
        if self.positivity_floor <= 0:
            raise ValueError("positivity floor must be positive")
        object.__setattr__(self, "box", box)

    @property
    def K(self) -> int:
        return len(self.box)

    @cached_property
    def empty(self) -> bool:
        """True when some interval is empty or lies wholly below the floor, or when
        sum_to lies outside [sum of floored lowers, sum of uppers] beyond a relative 1e-12."""
        if any(iv.empty or iv.upper < self.positivity_floor for iv in self.box):
            return True
        if self.sum_to is None:
            return False
        lowers, uppers = self._endpoints()
        eps = 1e-12 * max(1.0, abs(self.sum_to))
        return not lowers.sum() - eps <= self.sum_to <= uppers.sum() + eps

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        lowers = np.array([max(iv.lower, self.positivity_floor) for iv in self.box], dtype=float)
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
        return max(0.0, 1.0 - sum(1.0 - iv.level for iv in self.box))


@dataclass(frozen=True)
class WelfareBounds:
    """Extremes of the loss over a constraint set, with the level they hold at.

    wl_min and wl_max are N-arrays for an N-row box query.  Both extremes
    are exact, so min_certified is always True; only perfbench's traced
    run reads it.
    """

    wl_min: float | np.ndarray
    wl_max: float | np.ndarray
    level: float
    min_certified: bool = True


def _loss_terms(theta, c) -> np.ndarray:
    """Terms theta * log1p(c/theta), broadcast over theta and c.

    A term is exactly 0 where c is 0, and where theta is below _THETA_TINY.
    """
    live = (c > 0) & (theta >= _THETA_TINY)
    t = np.where(live, theta, 1.0)
    return np.where(live, t * np.log1p(c / t), 0.0)


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


def bounds_box(constraints: ConstraintSet, query: WelfareQuery) -> WelfareBounds:
    """Loss extremes over a box: monotonicity puts them at the corners.

    On an N-row query wl_min and wl_max are N-arrays; row i equals the
    one-individual call on row i bit for bit.
    """
    if constraints.sum_to is not None:
        raise ValueError("constraint set has a sum target; use max_constrained")
    lowers, uppers = constraints.bounds()
    if constraints.K != query.K:
        raise InvalidTheta(f"box has {constraints.K} goods, query has {query.K}")
    return WelfareBounds(
        wl_min=welfare_loss(lowers, query),
        wl_max=welfare_loss(uppers, query),
        level=constraints.joint_level(),
    )


def _waterfill(lo: np.ndarray, hi: np.ndarray, total: float) -> np.ndarray:
    """Any feasible split of `total` over [lo, hi]; deterministic front-fill."""
    theta = lo.astype(float).copy()
    slack = total - float(lo.sum())
    for k in range(theta.shape[0]):
        if slack <= 0:
            break
        add = min(slack, hi[k] - lo[k])
        theta[k] += add
        slack -= add
    return theta


def _common_ratio(c, lo, hi, budget: float) -> float:
    """The g with sum(clip(g * c, lo, hi)) = budget, for c > 0 and sum(lo) <= budget <= sum(hi).

    The sum is piecewise linear and nondecreasing in g, with breakpoints at
    lo/c and hi/c: locate the segment that holds the budget by bisection over
    the sorted breakpoints, then interpolate on it.
    """
    points = np.sort(np.concatenate((lo / c, hi / c)))

    def total(g):
        return float(np.clip(g * c, lo, hi).sum())

    i = bisect.bisect_right(points, budget, key=total) - 1
    if i < 0:
        return float(points[0])
    if i == points.shape[0] - 1:
        return float(points[-1])
    left, right = float(points[i]), float(points[i + 1])
    s_left = total(left)
    return left + (budget - s_left) * (right - left) / (total(right) - s_left)


def _solve_max(c, lo, hi, target) -> np.ndarray:
    """Maximizer of the loss on the box with sum(theta) = target.

    Goods with c > 0 share one ratio theta_k / c_k wherever they are inside
    their bounds; goods with c = 0 add nothing and take what the others
    leave of the target, filled front to back.
    """
    active = c > 0
    if not np.any(active):
        return _waterfill(lo, hi, target)
    free = ~active
    ca, loa, hia = c[active], lo[active], hi[active]
    rest = float(target - lo[free].sum())
    g = _common_ratio(ca, loa, hia, float(np.clip(rest, loa.sum(), hia.sum())))
    theta = lo.astype(float).copy()
    theta[active] = np.clip(g * ca, loa, hia)
    if np.any(free):
        theta[free] = _waterfill(lo[free], hi[free], target - float(theta[active].sum()))
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
        theta[order] += np.clip(target - lo_n.sum() - (np.cumsum(room) - room), 0.0, room)
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


def max_constrained(constraints: ConstraintSet, query: WelfareQuery) -> WelfareBounds:
    """Loss extremes under the box plus sum(theta) = sum_to, for one individual.

    Raises ValueError on an N-row query, and EmptyConfidenceSet when
    constraints.empty (an empty or below-floor interval, or a sum_to no
    theta in the box meets).  Both extremes are exact.  The
    maximizer has a closed form: every coordinate with delta_k * ystar_k > 0
    is clip(g * c_k, lo_k, hi_k) for the common ratio g that meets the sum.
    The minimum, which sits at a vertex of the feasible polytope, comes from
    Falk-Soland branch-and-bound.
    """
    if constraints.sum_to is None:
        raise ValueError("constraint set has no sum target; use bounds_box")
    if query.delta.ndim != 1:
        raise ValueError("max_constrained takes one individual; pass one query row")
    lowers, uppers = constraints.bounds()
    if constraints.K != query.K:
        raise InvalidTheta(
            f"box has {constraints.K} goods, query has {query.K}"
        )
    target = float(constraints.sum_to)
    c = query.spend_change
    wl_max = welfare_loss(_solve_max(c, lowers, uppers, target), query)
    wl_min = welfare_loss(_solve_min(c, lowers, uppers, target), query)
    return WelfareBounds(
        wl_min=min(wl_min, wl_max),
        wl_max=wl_max,
        level=constraints.joint_level(),
    )
