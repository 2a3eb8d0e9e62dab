import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import kl_div

from welfarebounds.errors import DataError, InvalidQuery, InvalidTheta
from welfarebounds.regress import Interval
from welfarebounds.welfare import (
    POSITIVITY_FLOOR,
    ConstraintSet,
    WelfareQuery,
    _solve_max,
    bounds_box,
    welfare_loss,
)

THREE_GOOD_QUERY = WelfareQuery(
    delta=np.array([0.5, 0.8, 0.2]), y_star=np.array([0.2, 0.6, 0.8])
)


def _box(lo, hi, K, level=1.0):
    return tuple(Interval(lo, hi, level, "BOX") for _ in range(K))


def kkt_gap(theta, c, lo, hi, target) -> float:
    """How far theta is from a KKT point of the sum-constrained maximum.

    With g the marginal of the loss, a multiplier exists iff max g over the
    coordinates below their upper bound is at most min g over those above
    their lower bound.  The gap is the larger of that shortfall and the
    miss of the sum target.
    """
    safe = np.maximum(theta, 1e-300)
    g = np.where(c > 0, np.log1p(c / safe) - c / (c + safe), 0.0)
    spread = g[theta < hi - 1e-11].max(initial=-np.inf) - g[theta > lo + 1e-11].min(initial=np.inf)
    return max(abs(float(theta.sum()) - target), float(spread), 0.0)


def max_with_argmax(constraints, q):
    """bounds_box's slice bounds, the closed-form maximizer and its KKT gap.

    The maximizer is welfare._solve_max on the floored bounds that
    ConstraintSet.bounds() returns, and its loss is wl_max bit for bit.
    """
    wb = bounds_box(constraints, q)
    lo, hi = constraints.bounds()
    target = float(constraints.sum_to)
    theta = _solve_max(q.spend_change, lo, hi, target)
    assert welfare_loss(theta, q) == wb.wl_max
    return wb, theta, kkt_gap(theta, q.spend_change, lo, hi, target)


def brute_force_max(c, lo, hi, target, step=1e-3):
    """Dense grid search over the sum-constrained slice.

    Besides the raw step grid, each axis also gets the points where another
    coordinate lands exactly on one of its bounds; otherwise bound-activated
    optima are only approached linearly and the grid undershoots by O(step).
    """

    def axis(k, extra):
        pts = np.concatenate([np.arange(lo[k], hi[k], step), [hi[k]], extra])
        pts = pts[(pts >= lo[k] - 1e-12) & (pts <= hi[k] + 1e-12)]
        return np.unique(np.clip(pts, lo[k], hi[k]))

    def terms(t, ck):
        return np.where(ck > 0, t * np.log1p(ck / np.maximum(t, 1e-300)), 0.0)

    if len(lo) == 2:
        t1 = axis(0, np.array([target - lo[1], target - hi[1]]))
        t2 = target - t1
        ok = (t2 >= lo[1] - 1e-12) & (t2 <= hi[1] + 1e-12)
        vals = terms(t1[ok], c[0]) + terms(np.clip(t2[ok], lo[1], hi[1]), c[1])
        return float(vals.max()), float(vals.min())
    corners = [target - b2 - b3 for b2 in (lo[1], hi[1]) for b3 in (lo[2], hi[2])]
    best_max, best_min = -math.inf, math.inf
    for t1 in axis(0, np.asarray(corners)):
        t2 = axis(1, np.array([target - t1 - lo[2], target - t1 - hi[2]]))
        t3 = target - t1 - t2
        ok = (t3 >= lo[2] - 1e-12) & (t3 <= hi[2] + 1e-12)
        if not ok.any():
            continue
        vals = (
            terms(np.full(int(ok.sum()), t1), c[0])
            + terms(t2[ok], c[1])
            + terms(np.clip(t3[ok], lo[2], hi[2]), c[2])
        )
        best_max = max(best_max, float(vals.max()))
        best_min = min(best_min, float(vals.min()))
    return best_max, best_min


def test_point_value_three_goods():
    wl = welfare_loss(np.array([0.2, 0.3, 0.5]), THREE_GOOD_QUERY)
    assert_allclose(wl, 0.5065623234290035, atol=1e-12)
    assert round(wl, 3) == 0.507


def test_zero_price_change_contributes_nothing():
    q = WelfareQuery(delta=np.zeros(3), y_star=np.array([0.2, 0.6, 0.8]))
    assert welfare_loss(np.array([0.2, 0.3, 0.5]), q) == 0.0
    q2 = WelfareQuery(delta=np.array([0.5, 0.0]), y_star=np.array([1.0, 1.0]))
    assert welfare_loss(np.array([0.4, 0.6]), q2) == pytest.approx(
        0.4 * math.log1p(0.5 / 0.4), abs=1e-15
    )


def test_all_ones_theta():
    wl = welfare_loss(np.ones(3), THREE_GOOD_QUERY)
    assert_allclose(wl, math.log(1.1) + math.log(1.48) + math.log(1.16), atol=1e-12)
    assert_allclose(wl, 0.6357722726986219, atol=1e-12)


def test_invalid_inputs():
    with pytest.raises(InvalidTheta):
        welfare_loss(np.array([0.2, -0.3, 0.5]), THREE_GOOD_QUERY)
    with pytest.raises(InvalidTheta):
        welfare_loss(np.array([0.2, 0.3]), THREE_GOOD_QUERY)
    with pytest.raises(InvalidQuery):
        WelfareQuery(delta=np.array([-0.1, 0.2]), y_star=np.ones(2))
    with pytest.raises(InvalidQuery):
        WelfareQuery(delta=np.array([0.1, 0.2]), y_star=np.array([1.0, 0.0]))
    with pytest.raises(InvalidQuery, match="must be finite"):  # each finite, the product not
        WelfareQuery(delta=np.array([1e200, 0.2]), y_star=np.array([1e200, 1.0]))
    with pytest.raises(DataError, match="at least one interval"):
        ConstraintSet(())


def test_kl_div_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(1, 7))
        theta = rng.uniform(1e-3, 2.0, K)
        q = WelfareQuery(rng.uniform(0, 2, K), rng.uniform(0.1, 2, K))
        gamma = theta + q.spend_change
        mask = q.spend_change > 0
        lhs = -kl_div(theta[mask], gamma[mask]).sum() + q.spend_change.sum()
        worst = max(worst, abs(lhs - welfare_loss(theta, q)))
    assert worst <= 1e-12


def test_bounds_box_degenerate():
    theta = np.array([0.2, 0.3, 0.5])
    box = tuple(Interval(t, t, 1 - 0.1 / 3, "BOX") for t in theta)
    wb = bounds_box(ConstraintSet(box), THREE_GOOD_QUERY)
    true_wl = welfare_loss(theta, THREE_GOOD_QUERY)
    assert wb.wl_min == wb.wl_max == true_wl
    assert wb.level == pytest.approx(0.9)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_joint_level_is_exact(levels):
    # Each 1 - level is a multiple of 2**-53 no larger than 1, so a partial
    # sum below 1 is exact and one at 1 or above clips the level to 0: the
    # left-to-right total and Python 3.12's compensated sum() agree on it.
    box = tuple(Interval(0.1, 0.2, level, "BOX") for level in levels)
    exact = 1 - sum(Fraction(1.0 - level) for level in levels)
    assert Fraction(ConstraintSet(box).joint_level()) == max(exact, 0)


def test_bounds_box_fixed_unit_box():
    wb = bounds_box(ConstraintSet(_box(POSITIVITY_FLOOR, 1.0, 3)), THREE_GOOD_QUERY)
    assert_allclose(wb.wl_max, 0.6357722726986219, atol=1e-12)
    assert wb.wl_min < 1e-4  # theta*log(1 + c/theta) vanishes at the floor
    assert wb.level == 1.0


def _assert_nan_bounds(wb, rows=None):
    """wl_min, wl_max and level are NaN: floats for one individual, rows-arrays for rows."""
    assert math.isnan(wb.level)
    for bound in (wb.wl_min, wb.wl_max):
        if rows is None:
            assert isinstance(bound, float) and math.isnan(bound)
        else:
            assert bound.shape == (rows,) and np.isnan(bound).all()


def test_bounds_box_on_sum_target_and_empty_interval():
    # a sum target the box cannot meet leaves no theta to bound, and the
    # bounds are NaN; one it can meet narrows the box bounds
    _assert_nan_bounds(bounds_box(ConstraintSet(_box(0.1, 0.2, 3), sum_to=1.0), THREE_GOOD_QUERY))
    on_box = bounds_box(ConstraintSet(_box(0.1, 0.9, 3)), THREE_GOOD_QUERY)
    on_slice = bounds_box(ConstraintSet(_box(0.1, 0.9, 3), sum_to=1.0), THREE_GOOD_QUERY)
    assert on_box.wl_min < on_slice.wl_min <= on_slice.wl_max < on_box.wl_max
    box = (Interval.make_empty(0.9, "XI"),) + _box(0.1, 0.9, 2)
    _assert_nan_bounds(bounds_box(ConstraintSet(box), THREE_GOOD_QUERY))


def test_empty_set_gives_nan_bounds_for_every_row():
    # an empty interval, one below the floor, or an unmet sum target: NaN
    # bounds on a one-row and an N-row query; a K mismatch still raises
    rows = WelfareQuery(np.tile(THREE_GOOD_QUERY.delta, (4, 1)), np.tile(THREE_GOOD_QUERY.y_star, (4, 1)))
    for constraints in (
        ConstraintSet((Interval.make_empty(0.9, "XI"),) + _box(0.1, 0.9, 2)),
        ConstraintSet((Interval(1e-9, 1e-8, 0.9, "LS"),) + _box(0.1, 0.9, 2)),
        ConstraintSet(_box(0.4, 0.9, 3), sum_to=1.0),
    ):
        assert constraints.empty
        _assert_nan_bounds(bounds_box(constraints, THREE_GOOD_QUERY))
        _assert_nan_bounds(bounds_box(constraints, rows), 4)
        _assert_nan_bounds(bounds_box(constraints, WelfareQuery(np.empty((0, 3)), np.empty((0, 3)))), 0)
        with pytest.raises(InvalidTheta, match="box has 3 goods, query has 2"):
            bounds_box(constraints, WelfareQuery(np.array([0.5, 0.8]), np.array([0.2, 0.6])))


def test_bounds_where_c_over_theta_overflows():
    # c = 1e305 over theta = 1e-6 overflows; the term is then
    # theta * (log c - log theta + log1p(theta / c)), and the bounds are the
    # loss at the corners (box) and at the slice's two vertices (sum 0.9)
    box = (Interval(1e-7, 0.6, 0.95, "LS"), Interval(0.3, 0.7, 0.95, "LS"))
    q = WelfareQuery(np.array([1e305, 0.2]), np.array([1.0, 0.8]))

    def loss(theta):
        return sum(t * (math.log(c) - math.log(t) + math.log1p(t / c))
                   for t, c in zip(theta, q.spend_change))

    assert welfare_loss(np.array([1e-6, 0.3]), q) == pytest.approx(loss([1e-6, 0.3]), rel=1e-14)
    wb = bounds_box(ConstraintSet(box), q)
    assert wb.wl_min == pytest.approx(0.128949, abs=1e-6)
    assert wb.wl_min == pytest.approx(loss([1e-6, 0.3]), rel=1e-14)
    assert wb.wl_max == pytest.approx(loss([0.6, 0.7]), rel=1e-14)
    on_slice = bounds_box(ConstraintSet(box, sum_to=0.9), q)
    assert on_slice.wl_min == pytest.approx(loss([0.2, 0.7]), rel=1e-12)
    assert on_slice.wl_max == pytest.approx(loss([0.6, 0.3]), rel=1e-12)


def test_simplex_max_matches_analytic_solution():
    # interior optimum: all coordinates share c_k/theta_k, so the value is
    # log(1 + sum(c)) with sum(c) = 0.74
    constraints = ConstraintSet(_box(POSITIVITY_FLOOR, 1.0, 3), sum_to=1.0)
    wb, theta, gap = max_with_argmax(constraints, THREE_GOOD_QUERY)
    assert_allclose(wb.wl_max, math.log(1.74), atol=1e-9)
    assert_allclose(theta, THREE_GOOD_QUERY.spend_change / 0.74, atol=1e-7)
    assert abs(theta.sum() - 1.0) < 1e-10
    assert gap <= 1e-8


def test_symmetric_two_goods():
    q = WelfareQuery(delta=np.array([0.3, 0.3]), y_star=np.array([1.0, 1.0]))
    wb, theta, _ = max_with_argmax(ConstraintSet(_box(0.1, 0.9, 2), sum_to=1.0), q)
    assert_allclose(theta, [0.5, 0.5], atol=1e-8)
    assert_allclose(wb.wl_max, math.log(1.6), atol=1e-10)


def test_tight_box_with_sum():
    theta = np.array([0.2, 0.3, 0.5])
    box = tuple(Interval(t, t, 1.0, "BOX") for t in theta)
    wb = bounds_box(ConstraintSet(box, sum_to=1.0), THREE_GOOD_QUERY)
    true_wl = welfare_loss(theta, THREE_GOOD_QUERY)
    assert_allclose(wb.wl_max, true_wl, atol=1e-12)
    assert_allclose(wb.wl_min, true_wl, atol=1e-12)


def test_infeasible_sum_gives_nan_bounds():
    # a sum target outside [sum of lowers, sum of uppers] leaves the set empty
    for lo, hi in ((0.1, 0.2), (0.4, 0.9)):
        constraints = ConstraintSet(_box(lo, hi, 3), sum_to=1.0)
        assert constraints.empty
        assert not ConstraintSet(constraints.box).empty
        _assert_nan_bounds(bounds_box(constraints, THREE_GOOD_QUERY))


def _random_instance(rng, K):
    lo = rng.uniform(0.05, 0.3, K)
    hi = lo + rng.uniform(0.2, 0.7, K)
    target = float(rng.uniform(lo.sum(), hi.sum()))
    q = WelfareQuery(rng.uniform(0.05, 1.5, K), rng.uniform(0.1, 2.0, K))
    box = tuple(Interval(l, h, 1.0, "BOX") for l, h in zip(lo, hi))
    return ConstraintSet(box, sum_to=target), q, lo, hi, target


@pytest.mark.parametrize("K", [2, 3])
def test_solver_matches_brute_force(K):
    rng = np.random.default_rng(100 + K)
    for _ in range(20):
        constraints, q, lo, hi, target = _random_instance(rng, K)
        wb, _, gap = max_with_argmax(constraints, q)
        ref_max, ref_min = brute_force_max(q.spend_change, lo, hi, target)
        assert abs(wb.wl_max - ref_max) <= 1e-4
        # the closed form is exact, so no grid point may beat it
        assert wb.wl_max >= ref_max - 1e-12
        assert abs(wb.wl_min - ref_min) <= 1e-4
        assert gap <= 1e-8


def test_zero_delta_with_sum_constraint():
    q = WelfareQuery(delta=np.zeros(3), y_star=np.ones(3))
    wb, theta, _ = max_with_argmax(ConstraintSet(_box(0.1, 0.9, 3), sum_to=1.0), q)
    assert wb.wl_max == 0.0 and wb.wl_min == 0.0
    assert abs(theta.sum() - 1.0) < 1e-12


def test_dropping_sum_constraint_cannot_shrink_max():
    rng = np.random.default_rng(77)
    for _ in range(20):
        constraints, q, lo, hi, target = _random_instance(rng, 3)
        with_sum = bounds_box(constraints, q)
        box_only = bounds_box(ConstraintSet(constraints.box), q)
        assert box_only.wl_max >= with_sum.wl_max - 1e-12


def _loss(theta, c):
    """Row-wise loss of theta (..., K) for spend changes c, zero terms where c = 0."""
    safe = np.where(c > 0, theta, 1.0)
    return np.where(c > 0, theta * np.log1p(c / safe), 0.0).sum(axis=-1)


def vertex_enumeration_min(c, lo, hi, target):
    """Minimum over the vertices of the slice: all coordinates but one at a bound."""
    K = lo.shape[0]
    best = math.inf
    for corner in itertools.product((0, 1), repeat=K):
        pts = np.where(np.array(corner, dtype=bool), hi, lo)
        for j in range(K):
            tj = target - (pts.sum() - pts[j])
            if lo[j] - 1e-12 <= tj <= hi[j] + 1e-12:
                vertex = pts.copy()
                vertex[j] = min(max(tj, lo[j]), hi[j])
                best = min(best, float(_loss(vertex, c)))
    return best


def _sampled_slice(rng, lo, hi, target, count):
    """Vertices of the slice (front-fill in random orders) and random mixes of them."""
    K = lo.shape[0]
    vertices = np.empty((count, K))
    for i in range(count):
        order = rng.permutation(K)
        fill = np.clip(target - lo.sum() - (np.cumsum((hi - lo)[order]) - (hi - lo)[order]),
                       0.0, (hi - lo)[order])
        vertices[i] = lo
        vertices[i, order] += fill
    weights = rng.dirichlet(np.ones(count), size=count)
    return vertices, weights @ vertices


def test_branch_and_bound_matches_vertex_enumeration():
    rng = np.random.default_rng(21)
    for K in range(2, 13):
        for _ in range(4):
            constraints, q, lo, hi, target = _random_instance(rng, K)
            delta = q.delta * (rng.random(K) > 0.2)  # some goods without a price change
            q = WelfareQuery(delta, q.y_star)
            wb = bounds_box(constraints, q)
            ref = vertex_enumeration_min(q.spend_change, lo, hi, target)
            assert abs(wb.wl_min - ref) <= 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("K", [25, 100])
def test_large_k_bounds_hold_at_sampled_points(K):
    rng = np.random.default_rng(K)
    for _ in range(3):
        lo = rng.uniform(0.01, 0.3, K)
        hi = lo + rng.uniform(0.05, 0.6, K)
        target = float(lo.sum() + rng.uniform(0.25, 0.75) * (hi.sum() - lo.sum()))
        q = WelfareQuery(rng.uniform(0.1, 1.0, K) * (rng.random(K) > 0.1),
                         rng.uniform(0.2, 1.2, K))
        box = tuple(Interval(l, h, 1.0, "BOX") for l, h in zip(lo, hi))
        wb, _, gap = max_with_argmax(ConstraintSet(box, sum_to=target), q)
        vertices, mixes = _sampled_slice(rng, lo, hi, target, 400)
        c = q.spend_change
        assert wb.wl_min <= _loss(vertices, c).min() * (1 + 1e-12)
        assert wb.wl_max >= np.concatenate((_loss(vertices, c), _loss(mixes, c))).max() * (1 - 1e-12)
        assert gap <= 1e-10


def _sum_bounds(lo, hi, delta, y_star, target):
    """max_with_argmax on a unit-level box, with the query it built."""
    box = tuple(Interval(l, h, 1.0, "BOX") for l, h in zip(lo, hi))
    q = WelfareQuery(np.asarray(delta, float), np.asarray(y_star, float))
    return *max_with_argmax(ConstraintSet(box, sum_to=target), q), q


def test_closed_form_max_edge_cases():
    # K = 1: the sum pins theta
    wb, theta, _, q = _sum_bounds([0.2], [0.9], [0.5], [0.8], 0.6)
    assert_allclose(theta, [0.6], rtol=1e-15)
    assert_allclose([wb.wl_min, wb.wl_max], welfare_loss(np.array([0.6]), q), rtol=1e-15)
    # every c = 0: nothing to lose, any feasible split
    wb, theta, gap, _ = _sum_bounds([0.1, 0.2, 0.3], [0.5, 0.6, 0.7], [0, 0, 0], [1, 1, 1], 1.2)
    assert wb.wl_max == wb.wl_min == 0.0 and gap <= 1e-12
    assert abs(theta.sum() - 1.2) <= 1e-12
    # budget at either end of the slice: the only feasible point is a corner
    lo, hi = np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.4, 0.9])
    for target, corner in ((lo.sum(), lo), (hi.sum(), hi)):
        wb, theta, gap, q = _sum_bounds(lo, hi, [0.5, 0.8, 0.2], [0.2, 0.6, 0.8], float(target))
        assert_allclose(theta, corner, rtol=0, atol=1e-15)
        assert_allclose([wb.wl_min, wb.wl_max], welfare_loss(corner, q), rtol=1e-14)
        assert gap <= 1e-12
    # repeated lo/c ratios (all 0.5): an interior optimum proportional to c
    c = np.array([0.2, 0.4, 0.6])
    wb, theta, _, q = _sum_bounds(0.5 * c, 0.5 * c + 0.5, c, np.ones(3), 1.5)
    assert_allclose(theta, 1.5 * c / c.sum(), rtol=1e-14)
    assert_allclose(wb.wl_max, 1.5 * math.log1p(c.sum() / 1.5), rtol=1e-14)
    ref_max, ref_min = brute_force_max(c, 0.5 * c, 0.5 * c + 0.5, 1.5)
    assert ref_max - 1e-12 <= wb.wl_max <= ref_max + 1e-4
    assert abs(wb.wl_min - ref_min) <= 1e-4
    # lo == hi after the floor: [1e-9, 1e-6] floors to the point 1e-6
    box = (Interval(1e-9, POSITIVITY_FLOOR, 1.0, "BOX"), Interval(0.1, 0.8, 1.0, "BOX"),
           Interval(0.2, 0.6, 1.0, "BOX"))
    q = WelfareQuery(np.array([0.5, 0.8, 0.2]), np.array([0.2, 0.6, 0.8]))
    wb, theta, gap = max_with_argmax(ConstraintSet(box, sum_to=0.9), q)
    assert theta[0] == POSITIVITY_FLOOR
    lo = np.array([POSITIVITY_FLOOR, 0.1, 0.2])
    hi = np.array([POSITIVITY_FLOOR, 0.8, 0.6])
    ref_max, ref_min = brute_force_max(q.spend_change, lo, hi, 0.9)
    assert ref_max - 1e-12 <= wb.wl_max <= ref_max + 1e-4
    assert abs(wb.wl_min - ref_min) <= 1e-4
    assert gap <= 1e-12


def test_closed_form_max_with_subnormal_spend_change():
    # hi/c (and with c = 5e-324 lo/c too) overflows for a subnormal c, and so
    # would the common ratio: b sits at its upper end and the subnormal goods
    # share the rest of the target in proportion to c, with no overflow warning
    lo, hi = np.array([POSITIVITY_FLOOR, 0.3]), np.array([0.6, 0.7])
    theta = _solve_max(np.array([1e-310, 0.16]), lo, hi, 0.9)
    assert_allclose(theta, [0.2, 0.7], rtol=1e-12)
    assert abs(theta.sum() - 0.9) <= 1e-12 * 0.9
    c = np.array([5e-324, 1e-323, 0.16])
    theta = _solve_max(c, np.array([POSITIVITY_FLOOR, POSITIVITY_FLOOR, 0.3]),
                       np.array([0.6, 0.6, 0.7]), 0.9)
    assert_allclose(theta, [0.2 / 3, 0.4 / 3, 0.7], rtol=1e-12)


def test_batched_box_equals_single_queries_bit_for_bit():
    # on the box and on a sum slice, row i of an N-row query is the
    # one-individual call on row i bit for bit; a 0-row query gives empty arrays
    rng = np.random.default_rng(9)
    N, K = 500, 10
    lo = rng.uniform(0.0, 0.6, K)
    lo[0] = 0.0  # floored to POSITIVITY_FLOOR
    box = tuple(Interval(l, l + w, 0.99, "BOX") for l, w in zip(lo, rng.uniform(0.02, 0.4, K)))
    delta = rng.uniform(0.0, 1.0, (N, K)) * (rng.random((N, K)) > 0.1)
    y_star = rng.uniform(0.1, 2.0, (N, K))
    floored, hi = ConstraintSet(box).bounds()
    on_slice = ConstraintSet(box, sum_to=float(floored.sum() + 0.4 * (hi.sum() - floored.sum())))
    for constraints, rows in ((ConstraintSet(box), N), (on_slice, 60)):
        d, y = delta[:rows], y_star[:rows]
        batch = bounds_box(constraints, WelfareQuery(d, y))
        single = [bounds_box(constraints, WelfareQuery(*row)) for row in zip(d, y)]
        assert batch.wl_min.shape == batch.wl_max.shape == (rows,)
        assert batch.wl_min.tolist() == [wb.wl_min for wb in single]
        assert batch.wl_max.tolist() == [wb.wl_max for wb in single]
        assert isinstance(single[0].wl_min, float) and isinstance(single[0].wl_max, float)
        assert batch.level == single[0].level
        none = bounds_box(constraints, WelfareQuery(delta[:0], y_star[:0]))
        assert none.wl_min.shape == none.wl_max.shape == (0,)
    constraints = ConstraintSet(box)
    with pytest.raises(InvalidQuery):
        WelfareQuery(-delta, y_star)
    with pytest.raises(InvalidTheta):
        bounds_box(constraints, WelfareQuery(delta[:, :3], y_star[:, :3]))
    with pytest.raises(InvalidQuery):
        WelfareQuery(delta[None], y_star[None])  # 3-d


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 8),
    N=st.integers(1, 30),
    below_floor=st.floats(0.0, 1.0),
)
def test_box_bounds_hold_at_sampled_points(seed, K, N, below_floor):
    # wl_min <= welfare_loss(theta) <= wl_max on every row for theta anywhere
    # in the floored box, lowers below the floor included
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 0.5, K)
    under = rng.random(K) < below_floor
    lo[under] = rng.choice([0.0, 1e-9, 0.5 * POSITIVITY_FLOOR], int(under.sum()))
    hi = np.maximum(lo, POSITIVITY_FLOOR) + rng.uniform(0.0, 1.0, K) * (rng.random(K) > 0.1)
    box = tuple(Interval(l, h, 0.99, "BOX") for l, h in zip(lo, hi))
    query = WelfareQuery(rng.uniform(0.0, 3.0, (N, K)) * (rng.random((N, K)) > 0.2),
                         rng.uniform(0.05, 2.0, (N, K)))
    wb = bounds_box(ConstraintSet(box), query)
    floored = np.maximum(lo, POSITIVITY_FLOOR)
    for theta in floored + rng.random((40, K)) * (hi - floored):
        loss = welfare_loss(theta, query)
        assert loss.shape == (N,)
        assert np.all(wb.wl_min <= loss * (1 + 1e-12))
        assert np.all(loss <= wb.wl_max * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 8),
    N=st.integers(1, 4),
    below_floor=st.floats(0.0, 1.0),
    side=st.sampled_from(["below", "inside", "above"]),
    frac=st.floats(0.0, 1.0),
    gap=st.floats(1e-9, 1.0),
)
def test_sum_slice_bounds_hold_at_sampled_points(seed, K, N, below_floor, side, frac, gap):
    # the slice is empty exactly when the target leaves [sum lo, sum hi] of the
    # floored box; otherwise wl_min <= welfare_loss(theta) <= wl_max on every
    # row for every theta on it, lowers below the floor included
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 0.5, K)
    under = rng.random(K) < below_floor
    lo[under] = rng.choice([0.0, 1e-9, 0.5 * POSITIVITY_FLOOR], int(under.sum()))
    floored = np.maximum(lo, POSITIVITY_FLOOR)
    hi = floored + rng.uniform(0.0, 1.0, K) * (rng.random(K) > 0.1)
    s_lo, s_hi = float(floored.sum()), float(hi.sum())
    target = {"below": s_lo - gap, "inside": s_lo + frac * (s_hi - s_lo), "above": s_hi + gap}[side]
    box = tuple(Interval(l, h, 0.99, "BOX") for l, h in zip(lo, hi))
    constraints = ConstraintSet(box, sum_to=target)
    query = WelfareQuery(rng.uniform(0.0, 3.0, (N, K)) * (rng.random((N, K)) > 0.2),
                         rng.uniform(0.05, 2.0, (N, K)))
    assert constraints.empty == (side != "inside")
    if constraints.empty:
        _assert_nan_bounds(bounds_box(constraints, query), N)
        return
    wb = bounds_box(constraints, query)
    vertices, mixes = _sampled_slice(rng, floored, hi, target, 20)
    for theta in np.concatenate((vertices, mixes)):
        loss = welfare_loss(theta, query)
        assert loss.shape == (N,)
        assert np.all(wb.wl_min <= loss * (1 + 1e-12))
        assert np.all(loss <= wb.wl_max * (1 + 1e-12))


def test_monotonicity_and_concavity_by_finite_differences():
    rng = np.random.default_rng(50)
    for _ in range(20):
        K = int(rng.integers(1, 5))
        theta = rng.uniform(0.2, 1.5, K)
        q = WelfareQuery(rng.uniform(0.3, 1.5, K), rng.uniform(0.3, 1.5, K))
        for k in range(K):
            h = 5e-3 * theta[k]

            def at(t):
                shifted = theta.copy()
                shifted[k] = t
                return welfare_loss(shifted, q)

            t = theta[k]
            first = (at(t + h) - at(t - h)) / (2 * h)
            second = (
                -at(t + 2 * h) + 16 * at(t + h) - 30 * at(t) + 16 * at(t - h) - at(t - 2 * h)
            ) / (12 * h * h)
            assert first > 0
            c = q.spend_change[k]
            analytic = -(c**2) / (t * (c + t) ** 2)
            assert abs(second - analytic) / abs(analytic) < 1e-5
