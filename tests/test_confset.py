import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from welfarebounds import confset, xicor
from welfarebounds.confset import (
    GridSpec,
    XiProfile,
    bonferroni_share,
    child_seed,
    cs_combined,
    cs_xi,
    intersect,
    profile_stats,
    shape_diagnostic,
    smooth_instrument,
)
from welfarebounds.errors import InvalidGrid, InvalidLevel
from welfarebounds.regress import GoodSample, Interval, fit_inverse_demand, theta_interval_delta
from welfarebounds.simulate import DgpConfig, draw_sample
from welfarebounds.xicor import PairedSample, critical_value, xi


def _case2_sample(n=1500, seed=6):
    """Price tracks the instrument tightly; quantity noise is heavy-tailed.

    Gives a wide least-squares interval while the rank test still rejects
    small theta, with the quantity statistic below its critical value.
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.361, 3.391, n)
    w = rng.uniform(0, 1, n)
    p = 1.02 + 0.06 * z + rng.uniform(0, 0.005, n)
    inv_y = (p - w) / 4.0
    eps = rng.uniform(0, 0.05, n)
    outlier = rng.random(n) < 0.08
    eps[outlier] = rng.uniform(0, 2.5, outlier.sum())
    return GoodSample(p, 1.0 / (inv_y + eps), instrument=z, good_id="case2")


def test_grid_spec_validation():
    with pytest.raises(InvalidGrid):
        GridSpec(0.5, 0.5, 100)
    with pytest.raises(InvalidGrid):
        GridSpec(-0.1, 1.0, 100)
    with pytest.raises(InvalidGrid):
        GridSpec(0.0, 1.0, 1)
    vals = GridSpec(0.0, 1.0, 11).values()
    assert vals[0] == 0.0 and vals[-1] == 1.0 and len(vals) == 11


def test_profile_at_zero_matches_price_statistic_exactly():
    sample = draw_sample(DgpConfig(theta=np.array([0.3]), n=400, seed=2))[0]
    _, prof = cs_xi(sample, 0.1, GridSpec(0.0, 1.0, 25), rng_seed=7)
    direct = xi(PairedSample(sample.price, sample.instrument), rng_seed=99)
    assert prof.stats[0] == math.sqrt(sample.n) * direct


def test_profile_large_theta_matches_quantity_statistic():
    for seed in range(5):
        sample = draw_sample(DgpConfig(theta=np.array([0.4]), n=600, seed=seed))[0]
        theta_big = 1e6 * float(np.max(sample.price * sample.quantity))
        stat = profile_stats(
            sample.price, sample.quantity, sample.instrument, np.array([theta_big]), 1
        )[0]
        ref = math.sqrt(sample.n) * xi(PairedSample(sample.quantity, sample.instrument), 1)
        assert abs(stat - ref) < 0.05


def test_cs_xi_covers_truth_on_model_data():
    sample = draw_sample(DgpConfig(theta=np.array([0.5]), n=1000, seed=3))[0]
    iv, prof = cs_xi(sample, 0.1 / 3, GridSpec(1e-6, 1.0, 1000), rng_seed=5)
    assert iv.contains(0.5)
    assert iv.source == "XI"
    assert iv.level == pytest.approx(1 - 0.1 / 3)
    assert prof.critical == critical_value(0.1 / 3)
    assert prof.n_segments >= 1


def test_cs_xi_empty_when_grid_misses_truth():
    sample = draw_sample(DgpConfig(theta=np.array([0.5]), n=2000, seed=77))[0]
    iv, prof = cs_xi(sample, 0.1, GridSpec(0.8, 0.9, 200), rng_seed=3)
    assert iv.empty and iv.source == "XI"
    assert iv.level == pytest.approx(0.9)
    assert prof.stats.min() > prof.critical
    # cs_combined returns the same pair in xi mode
    combined, same = cs_combined(sample, 0.1, "xi", GridSpec(0.8, 0.9, 200), 3)
    assert combined == iv and np.array_equal(same.stats, prof.stats)


def test_cs_xi_accepts_truth_under_degenerate_shock():
    # constant shock: the residual at theta_true is constant, ties broken at
    # random, so the statistic is tiny against any independent instrument
    rng = np.random.default_rng(12)
    p = rng.uniform(1, 2, 500)
    sample = GoodSample(p, 0.5 / (p - 0.5), instrument=rng.uniform(0, 1, 500))
    iv, _ = cs_xi(sample, 0.1, GridSpec(1e-6, 1.0, 500), rng_seed=3)
    assert iv.contains(0.5)


def test_intersect_arithmetic():
    a = Interval(0.842, 4.142, 0.975, "LS")
    b = Interval(1.438, 6.0, 0.975, "XI")
    out = intersect(a, b)
    assert out.lower == 1.438 and out.upper == 4.142
    assert out.level == pytest.approx(0.95)
    assert out.source == "INTERSECT"


def test_intersect_empty_outcome():
    out = intersect(Interval(0, 1, 0.95, "XI"), Interval(2, 3, 0.95, "LS"))
    assert out.empty
    assert np.isnan(out.length)
    assert not out.contains(2.5)


def test_intersect_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lo = rng.uniform(0, 1, 3)
        hi = lo + rng.uniform(0, 1, 3)
        a, b, c = (Interval(l, h, 0.95, "BOX") for l, h in zip(lo, hi))
        ab, ba = intersect(a, b), intersect(b, a)
        assert (ab.lower, ab.upper, ab.empty) == (ba.lower, ba.upper, ba.empty)
        left = intersect(intersect(a, b), c)
        right = intersect(a, intersect(b, c))
        assert (left.lower, left.upper, left.empty) == (right.lower, right.upper, right.empty)
        aa = intersect(a, a)
        assert (aa.lower, aa.upper) == (a.lower, a.upper)


def test_bonferroni_share():
    assert bonferroni_share(0.1, 3) == pytest.approx(0.1 / 3)
    assert bonferroni_share(0.05, 1) == 0.05
    with pytest.raises(InvalidLevel):
        bonferroni_share(1.2, 3)
    with pytest.raises(ValueError):
        bonferroni_share(0.1, 0)


def test_cs_combined_ls_only_noiseless():
    p = np.linspace(1, 2, 60)
    sample = GoodSample(p, 0.5 / p)
    iv, prof = cs_combined(sample, 0.05, "ls", GridSpec(1e-6, 6.0, 2))
    assert prof is None
    assert iv.lower == pytest.approx(0.5, abs=1e-10)
    assert iv.upper == pytest.approx(0.5, abs=1e-10)
    assert iv.level == pytest.approx(0.95)


def test_cs_combined_intersect_is_subset_of_pieces():
    sample = draw_sample(DgpConfig(theta=np.array([0.4]), n=1500, seed=9))[0]
    share = 0.05
    grid = GridSpec(1e-6, 1.0, 800)
    combined, prof = cs_combined(sample, share, "intersect", grid, 4)
    assert prof is None
    ls = theta_interval_delta(fit_inverse_demand(sample, "tsls"), 1 - share / 2)
    assert combined.lower >= ls.lower - 1e-12
    assert combined.upper <= ls.upper + 1e-12
    assert combined.level == pytest.approx(1 - share)
    xi_only, prof = cs_combined(sample, share, "xi", grid, 4)
    assert np.array_equal(prof.thetas, grid.values())
    assert xi_only.contains(0.4) and combined.contains(0.4)
    # a floor above the least-squares interval empties the intersection
    empty, prof = cs_combined(sample, share, "intersect", grid, 4, floor=ls.upper + 1.0)
    assert empty.empty and prof is None
    assert empty.level == 1 - share


def test_case2_shape_and_intersection_tightening():
    sample = _case2_sample()
    diag = shape_diagnostic(sample, 0.05, rng_seed=123)
    assert diag.case_id == "UNBOUNDED_ABOVE"
    assert diag.stat_at_zero > diag.critical
    assert diag.stat_at_inf <= diag.critical
    ls = theta_interval_delta(fit_inverse_demand(sample, "tsls"), 1 - 0.05 / 2)
    combined, _ = cs_combined(sample, 0.05, "intersect", GridSpec(1e-6, 6.0, 2000), 9)
    # the rank test prunes the small-theta region the delta method cannot
    assert combined.lower > ls.lower + 0.1
    assert combined.upper <= ls.upper


def test_shape_diagnostic_whole_space():
    rng = np.random.default_rng(30)
    sample = GoodSample(
        rng.uniform(1, 2, 300), rng.uniform(1, 2, 300), instrument=rng.normal(size=300)
    )
    diag = shape_diagnostic(sample, 0.05, rng_seed=0)
    assert diag.case_id == "WHOLE_SPACE"


def test_shape_diagnostic_bounded_on_model_data():
    sample = draw_sample(DgpConfig(theta=np.array([0.5]), n=5000, seed=1))[0]
    diag = shape_diagnostic(sample, 0.05, rng_seed=0)
    assert diag.case_id == "BOUNDED_AB"


def test_shape_diagnostic_contains_zero():
    rng = np.random.default_rng(8)
    z = rng.uniform(0, 1, 800)
    quantity = 0.5 + z + rng.uniform(0, 0.05, 800)
    sample = GoodSample(rng.uniform(1, 2, 800), quantity, instrument=z)
    diag = shape_diagnostic(sample, 0.05, rng_seed=0)
    assert diag.case_id == "CONTAINS_ZERO"


def test_smooth_instrument_removes_ties():
    rng = np.random.default_rng(21)
    z = rng.choice(np.linspace(0.361, 3.391, 34), 3000)
    smoothed = smooth_instrument(z, 0.1, rng_seed=99)
    assert np.unique(smoothed).size == smoothed.size
    assert np.max(np.abs(smoothed - z)) <= 0.1


def test_smooth_instrument_zero_width_is_identity():
    z = np.array([1.0, 2.0, 2.0, 3.0])
    assert np.array_equal(smooth_instrument(z, 0.0, 1), z)
    tiny = smooth_instrument(z, 1e-12, 1)
    assert_allclose(tiny, z, atol=1e-12)
    with pytest.raises(ValueError):
        smooth_instrument(z, -0.1, 1)


def test_smoothing_barely_moves_bounds_on_discrete_instrument():
    rng = np.random.default_rng(21)
    n = 3000
    z = rng.choice(np.linspace(0.361, 3.391, 34), n)
    w = rng.uniform(0, 1, n)
    p = 1.05 + 0.3 * z + rng.uniform(0, 0.02, n)
    sample = GoodSample(p, 2.0 / (p - w), instrument=z)
    grid = GridSpec(1e-6, 6.0, 5000)
    raw, _ = cs_xi(sample, 0.025, grid, rng_seed=3)
    jittered = GoodSample(p, 2.0 / (p - w), instrument=smooth_instrument(z, 0.1, 99))
    smooth, _ = cs_xi(jittered, 0.025, grid, rng_seed=3)
    assert abs(raw.lower - smooth.lower) < 0.01
    assert abs(raw.upper - smooth.upper) < 0.01


def test_profile_segments_counting():
    stats = np.array([5.0, 0.2, 0.3, 5.0, 0.1, 5.0])
    prof = XiProfile(thetas=np.linspace(0, 1, 6), stats=stats, critical=1.0)
    assert prof.n_segments == 2
    assert prof.accepted().tolist() == [False, True, True, False, True, False]
    empty = XiProfile(thetas=np.linspace(0, 1, 3), stats=np.full(3, 9.0), critical=1.0)
    assert empty.n_segments == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 150),
    duplicates=st.booleans(),
    use_exp=st.booleans(),
    a=st.floats(0.01, 100.0),
    b=st.floats(-10.0, 10.0),
)
def test_profile_invariant_under_increasing_map_of_instrument(seed, n, duplicates, use_exp, a, b):
    # the statistic sees the instrument only through its ranks, so a strictly
    # increasing map leaves every profile value and the interval unchanged,
    # also when duplicate rows tie the residual at every node
    rng = np.random.default_rng(seed)
    z = rng.uniform(1.0, 1.5, n)
    shock = rng.uniform(0.0, 1.0, n)
    price = z + 0.5 * shock + rng.uniform(0.0, 0.1, n)
    quantity = 0.4 / (price - shock)
    if duplicates:
        rows = rng.integers(0, n, max(1, n // 5))
        price, quantity, z = (np.concatenate([v, v[rows]]) for v in (price, quantity, z))

    def increasing(v):
        return np.exp(v) if use_exp else a * v + b

    # the map must keep distinct values distinct in floating point
    assume(np.all(np.diff(increasing(np.unique(z))) > 0))
    grid = GridSpec(1e-6, 1.0, 40)
    iv, prof = cs_xi(GoodSample(price, quantity, instrument=z), 0.05, grid, seed)
    iv2, prof2 = cs_xi(GoodSample(price, quantity, instrument=increasing(z)), 0.05, grid, seed)
    assert np.array_equal(prof.stats, prof2.stats)
    assert repr(iv) == repr(iv2)


def _coarse_uniforms(rng_seed, n):
    # three values only, so equal uniforms fall back to the observation index
    return np.floor(np.random.default_rng(rng_seed).random(n) * 3.0) / 3.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    integer_valued=st.booleans(),
    copies=st.integers(0, 3),
    tied_instrument=st.booleans(),
    # 1 to 4 nodes: fewer than the workers; up to 700: several 128-node
    # chunks per block, the last one partial
    nodes=st.one_of(st.integers(1, 4), st.integers(5, 700)),
    coarse=st.booleans(),
    # 5 is more threads than most test machines have cores
    workers=st.sampled_from([1, 2, 5]),
)
@example(seed=3, n=20, integer_valued=False, copies=2, tied_instrument=False,
         nodes=1, coarse=False, workers=5)
@example(seed=4, n=12, integer_valued=True, copies=1, tied_instrument=True,
         nodes=641, coarse=True, workers=5)
@example(seed=5, n=30, integer_valued=False, copies=3, tied_instrument=False,
         nodes=300, coarse=False, workers=2)
def test_profile_equals_xi_at_every_node(
    seed, n, integer_valued, copies, tied_instrument, nodes, coarse, workers
):
    # the reference is xi at each node with the seed of (seed, node index):
    # residual ties are broken by that node's uniforms, then by index, so the
    # worker count (one block of nodes per CPU) changes no bit
    rng = np.random.default_rng(seed)
    if integer_valued:
        # exact arithmetic: residuals tie at some nodes and not at others
        price = rng.integers(1, 9, n).astype(float)
        quantity = rng.choice([0.5, 1.0, 2.0, 4.0], n)
    else:
        price = rng.uniform(1.0, 2.0, n)
        quantity = rng.uniform(0.5, 2.0, n)

    def instrument(size):
        return rng.integers(0, 3, size).astype(float) if tied_instrument else rng.uniform(0, 1, size)

    z = instrument(n)
    if copies:
        # duplicate (price, quantity) rows, up to 4 equal residuals at every
        # node; each copy draws its own instrument, as after --jitter
        rows = np.repeat(rng.integers(0, n, max(1, n // 4)), copies)
        price, quantity = np.concatenate([price, price[rows]]), np.concatenate([quantity, quantity[rows]])
        z = np.concatenate([z, instrument(rows.size)])
    assume(np.ptp(z) > 0)
    thetas = np.linspace(0.0, (nodes - 1) / 8.0, nodes)
    uniforms = _coarse_uniforms if coarse else xicor.tie_uniforms
    with (
        mock.patch.object(xicor, "tie_uniforms", uniforms),
        mock.patch.object(confset, "tie_uniforms", uniforms),
        mock.patch.object(confset, "_cpu_count", lambda: workers),
    ):
        stats = profile_stats(price, quantity, z, thetas, seed)
        inv_y = 1.0 / quantity
        for j, theta in enumerate(thetas):
            ref = xi(PairedSample(price - theta * inv_y, z), child_seed(seed, j))
            assert stats[j] == math.sqrt(price.size) * ref


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # n at the edges of the rank field's width b = n.bit_length()
    k=st.integers(2, 9),
    offset=st.sampled_from([-1, 0, 1]),
    near=st.integers(1, 4),
    same_price=st.booleans(),
    duplicates=st.booleans(),
    # power-of-two price scale: subnormal residuals, and exponents near the top
    exponent=st.sampled_from([0, -1060, 1000]),
    nodes=st.integers(1, 300),
    workers=st.sampled_from([1, 2, 5]),
)
@example(seed=1, k=3, offset=0, near=2, same_price=False, duplicates=False,
         exponent=0, nodes=260, workers=5)
@example(seed=2, k=4, offset=-1, near=1, same_price=True, duplicates=False,
         exponent=-1060, nodes=129, workers=2)
def test_profile_equals_xi_where_residuals_nearly_tie(
    seed, k, offset, near, same_price, duplicates, exponent, nodes, workers
):
    # Row pairs one ulp apart in price with equal quantity leave residuals
    # that differ only in their lowest bits (or round to a tie) at every
    # node, so their packed keys collide and the node is redone exactly.
    # The grid runs past price * quantity, where residuals turn negative.
    n = 2**k + offset
    rng = np.random.default_rng(seed)
    ndup = max(1, n // 4) if duplicates else 0
    near = min(near, (n - ndup) // 2)
    base = n - near - ndup
    price = rng.uniform(1.0, 2.0, base) * 2.0**exponent
    # an even significand, so its next float up differs in bit 0 alone
    price = (price.view(np.int64) & ~1).view(np.float64)
    quantity = rng.uniform(0.5, 2.0, base)
    if same_price:
        # a tie at theta = 0 only: equal prices, different quantities
        price[-1] = price[0]
    pairs = rng.choice(base, near, replace=False)
    price = np.concatenate([price, np.nextafter(price[pairs], np.inf)])
    quantity = np.concatenate([quantity, quantity[pairs]])
    if ndup:
        rows = rng.integers(0, price.size, ndup)
        price, quantity = np.concatenate([price, price[rows]]), np.concatenate([quantity, quantity[rows]])
    assert price.size == n
    z = rng.uniform(0.0, 1.0, n)
    thetas = np.linspace(0.0, 1.5 * float(np.max(price * quantity)), nodes)
    redone = []
    exact = confset._exact_jump_sums

    def spy(*args):
        redone.extend(args[-2].tolist())
        return exact(*args)

    with (
        mock.patch.object(confset, "_exact_jump_sums", spy),
        mock.patch.object(confset, "_cpu_count", lambda: workers),
    ):
        stats = profile_stats(price, quantity, z, thetas, seed)
    inv_y = 1.0 / quantity
    for j, theta in enumerate(thetas):
        ref = xi(PairedSample(price - theta * inv_y, z), child_seed(seed, j))
        assert stats[j] == math.sqrt(n) * ref
    if duplicates:
        # a repeated row ties every node: the whole grid takes the exact path
        assert sorted(redone) == list(range(nodes))
    else:
        # theta = 0 leaves the prices, whose near pairs collide in the key
        assert 0 in redone
