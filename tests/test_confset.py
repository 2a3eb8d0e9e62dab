import contextlib
import dataclasses
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
    bonferroni_share,
    cs_combined,
    cs_xi,
    profile_stats,
    shape_diagnostic,
    smooth_instrument,
)
from welfarebounds.errors import ConfigError, InvalidLevel, NumericalError
from welfarebounds.regress import GoodSample, Interval, fit_inverse_demand, theta_interval_delta
from welfarebounds.simulate import DgpConfig, draw_sample
from welfarebounds.welfare import POSITIVITY_FLOOR
from welfarebounds.xicor import critical_value, xi


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
    with pytest.raises(ConfigError):
        GridSpec(0.5, 0.5, 100)
    with pytest.raises(ConfigError):
        GridSpec(-0.1, 1.0, 100)
    with pytest.raises(ConfigError):
        GridSpec(0.0, 1.0, 1)
    vals = GridSpec(0.0, 1.0, 11).values()
    assert vals[0] == 0.0 and vals[-1] == 1.0 and len(vals) == 11


def test_grid_spec_rejects_an_infinite_upper_bound():
    with pytest.raises(ConfigError, match="finite"):
        GridSpec(0.0, math.inf, 10)


def test_grid_spec_rejects_a_fractional_node_count():
    with pytest.raises(ConfigError, match="integer"):
        GridSpec(0.0, 1.0, 10.5)


def test_profile_at_zero_matches_price_statistic_exactly():
    sample = draw_sample(DgpConfig(theta=np.array([0.3]), n=400, seed=2))[0]
    _, prof = cs_xi(sample, 0.1, GridSpec(0.0, 1.0, 25), rng_seed=7)
    direct = xi(sample.price, sample.z, rng_seed=99)
    assert prof.stats[0] == math.sqrt(sample.n) * direct


def test_profile_large_theta_matches_quantity_statistic():
    for seed in range(5):
        sample = draw_sample(DgpConfig(theta=np.array([0.4]), n=600, seed=seed))[0]
        theta_big = 1e6 * float(np.max(sample.price * sample.quantity))
        stat = profile_stats(
            sample.price, sample.quantity, sample.z, np.array([theta_big]), 1
        )[0]
        ref = math.sqrt(sample.n) * xi(sample.quantity, sample.z, 1)
        assert abs(stat - ref) < 0.05


def test_cs_xi_covers_truth_on_model_data():
    sample = draw_sample(DgpConfig(theta=np.array([0.5]), n=1000, seed=3))[0]
    iv, prof = cs_xi(sample, 0.1 / 3, GridSpec(1e-6, 1.0, 1000), rng_seed=5)
    assert iv.contains(0.5)
    assert iv.level == pytest.approx(1 - 0.1 / 3)
    assert prof.critical == critical_value(0.1 / 3)


def test_cs_xi_empty_when_grid_misses_truth():
    sample = draw_sample(DgpConfig(theta=np.array([0.5]), n=2000, seed=77))[0]
    iv, prof = cs_xi(sample, 0.1, GridSpec(0.8, 0.9, 200), rng_seed=3)
    assert iv.empty
    assert iv.level == pytest.approx(0.9)
    assert prof.stats.min() > prof.critical
    # cs_combined returns the same interval in xi mode
    assert cs_combined(sample, 0.1, "xi", GridSpec(0.8, 0.9, 200), 3) == iv


def test_cs_xi_accepts_truth_under_degenerate_shock():
    # constant shock: the residual at theta_true is constant, ties broken at
    # random, so the statistic is tiny against any independent instrument
    rng = np.random.default_rng(12)
    p = rng.uniform(1, 2, 500)
    sample = GoodSample(p, 0.5 / (p - 0.5), instrument=rng.uniform(0, 1, 500))
    iv, _ = cs_xi(sample, 0.1, GridSpec(1e-6, 1.0, 500), rng_seed=3)
    assert iv.contains(0.5)


def test_bonferroni_share():
    assert bonferroni_share(0.1, 3) == pytest.approx(0.1 / 3)
    assert bonferroni_share(0.05, 1) == 0.05
    with pytest.raises(InvalidLevel):
        bonferroni_share(1.2, 3)
    with pytest.raises(ConfigError):
        bonferroni_share(0.1, 0)


def test_cs_combined_rejects_a_share_out_of_range_and_an_unknown_mode():
    p = np.linspace(1, 2, 60)
    sample = GoodSample(p, 0.5 / p)
    grid = GridSpec(1e-6, 6.0, 2)
    for share in (0.0, 1.0, -0.1):
        with pytest.raises(InvalidLevel, match="alpha share must lie strictly in"):
            cs_combined(sample, share, "ls", grid)
    with pytest.raises(ConfigError, match="mode must be xi, ls, or intersect, got 'both'"):
        cs_combined(sample, 0.05, "both", grid)


def test_cs_combined_ls_only_noiseless():
    p = np.linspace(1, 2, 60)
    sample = GoodSample(p, 0.5 / p)
    iv = cs_combined(sample, 0.05, "ls", GridSpec(1e-6, 6.0, 2))
    assert iv.lower == pytest.approx(0.5, abs=1e-10)
    assert iv.upper == pytest.approx(0.5, abs=1e-10)
    assert iv.level == pytest.approx(0.95)


def test_cs_combined_intersect_on_a_degenerate_ls_interval():
    # a noiseless sample's least-squares interval is narrower than 1e-12, so
    # intersect mode tests its one point: accepted gives [theta_hat,
    # theta_hat], rejected an empty interval, as profile_stats at that point
    # against critical_value(alpha_share / 2) decides
    p = np.linspace(1, 2, 60)
    sample = GoodSample(p, 0.5 / p)
    share = 0.2
    ls = theta_interval_delta(fit_inverse_demand(sample), 1 - share / 2)
    assert ls.upper - ls.lower < 1e-12
    point = max(ls.lower, POSITIVITY_FLOOR)
    outcomes = set()
    for seed in range(8):
        iv = cs_combined(sample, share, "intersect", GridSpec(1e-6, 6.0, 2), seed)
        stat = profile_stats(sample.price, sample.quantity, sample.price, np.array([point]), seed)[0]
        accepted = stat <= critical_value(share / 2)
        if accepted:
            assert iv == Interval(point, point, 1 - share)
        else:
            assert iv.empty and iv.level == 1 - share
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_cs_combined_intersect_is_subset_of_pieces():
    sample = draw_sample(DgpConfig(theta=np.array([0.4]), n=1500, seed=9))[0]
    share = 0.05
    grid = GridSpec(1e-6, 1.0, 800)
    combined = cs_combined(sample, share, "intersect", grid, 4)
    ls = theta_interval_delta(fit_inverse_demand(sample), 1 - share / 2)
    assert combined.lower >= ls.lower - 1e-12
    assert combined.upper <= ls.upper + 1e-12
    assert combined.level == pytest.approx(1 - share)
    xi_only, prof = cs_xi(sample, share, grid, 4)
    assert np.array_equal(prof.thetas, grid.values())
    assert cs_combined(sample, share, "xi", grid, 4) == xi_only
    assert xi_only.contains(0.4) and combined.contains(0.4)
    # a least-squares interval below the positivity floor empties the
    # intersection: exact inverse demand with theta = 1e-9
    p = np.linspace(1.0, 2.0, 60)
    below = GoodSample(p, 1e-9 / p)
    assert cs_combined(below, share, "ls", grid).upper < POSITIVITY_FLOOR
    empty = cs_combined(below, share, "intersect", grid, 4)
    assert empty.empty
    assert empty.level == 1 - share


def _window_sample(kind, seed, n, theta):
    if kind == "degenerate":
        # exact inverse demand: a least-squares window narrower than 1e-12
        p = np.linspace(1.0, 2.0, n)
        return GoodSample(p, theta / p, instrument=p)
    if kind == "below floor":
        # exact inverse demand with theta = 1e-9: the window lies below the floor
        p = np.linspace(1.0, 2.0, n)
        return GoodSample(p, 1e-9 / p, instrument=p)
    endogeneity = 0.5 if kind == "endogenous" else None
    return draw_sample(DgpConfig(theta=np.array([theta]), n=n, seed=seed, endogeneity=endogeneity))[0]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["exogenous", "endogenous"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 300),
    theta=st.floats(0.05, 1.0),
    share=st.floats(0.001, 0.5),
    nodes=st.integers(2, 400),
)
@example(kind="degenerate", seed=1, n=60, theta=0.5, share=0.2, nodes=2)
@example(kind="degenerate", seed=2, n=60, theta=0.5, share=0.2, nodes=50)
@example(kind="below floor", seed=3, n=60, theta=0.5, share=0.05, nodes=300)
def test_intersect_mode_is_the_xi_hull_on_the_least_squares_window(kind, seed, n, theta, share, nodes):
    # The grid's nodes lie inside the least-squares interval, so intersect
    # mode's interval is the xi hull over that window, at level 1 - share.
    sample = _window_sample(kind, seed, n, theta)
    grid = GridSpec(POSITIVITY_FLOOR, 6.0, nodes)
    try:
        ls = theta_interval_delta(fit_inverse_demand(sample), 1 - share / 2)
    except NumericalError as exc:
        with pytest.raises(type(exc)):
            cs_combined(sample, share, "intersect", grid, seed)
        return
    iv = cs_combined(sample, share, "intersect", grid, seed)
    lo, hi = max(ls.lower, POSITIVITY_FLOOR), ls.upper
    level = 1 - share
    if hi < lo:
        want = Interval.make_empty(level)
    elif hi - lo < 1e-12:
        # a single point, tested alone
        stat = profile_stats(sample.price, sample.quantity, sample.z, np.array([lo]), seed)[0]
        want = Interval.make_empty(level) if stat > critical_value(share / 2) else Interval(lo, lo, level)
    else:
        hull = confset.xi_hull(sample, share / 2, GridSpec(lo, hi, grid.nodes), seed)
        want = dataclasses.replace(hull, level=level)
    assert _same_interval(iv, want)
    assert iv.empty or ls.lower <= iv.lower <= iv.upper <= ls.upper


def test_case2_shape_and_intersection_tightening():
    sample = _case2_sample()
    diag = shape_diagnostic(sample, 0.05, rng_seed=123)
    assert diag.case_id == "UNBOUNDED_ABOVE"
    assert diag.stat_at_zero > critical_value(0.05)
    assert diag.stat_at_inf <= critical_value(0.05)
    ls = theta_interval_delta(fit_inverse_demand(sample), 1 - 0.05 / 2)
    combined = cs_combined(sample, 0.05, "intersect", GridSpec(1e-6, 6.0, 2000), 9)
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
    with pytest.raises(ConfigError):
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


# Nodes per chunk: a few small sizes, and None for confset's own size
CHUNKS = st.sampled_from([1, 2, 5, None])


def _chunked(chunk):
    """confset's grids evaluated `chunk` nodes at a time (None: unchanged)."""
    if chunk is None:
        return contextlib.nullcontext()
    return mock.patch.object(confset, "_chunk_rows", lambda width: chunk)


@pytest.mark.parametrize("width", [5243, 10**4, 10**5, 10**6])
def test_a_chunk_fits_the_cache_unless_one_row_is_larger(width):
    # a chunk's five buffers take 25 bytes per key; 2**21 is the cache it is sized to
    assert confset._chunk_rows(width) * 25 * width <= max(2**21, 25 * width)


def _assert_xi_at_every_node(stats, price, quantity, z, thetas, seed):
    # node j equals xi of its residual with the good's own seed, bit for bit
    inv_y = 1.0 / quantity
    for j, theta in enumerate(thetas):
        assert stats[j] == math.sqrt(price.size) * xi(price - theta * inv_y, z, seed)


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
    # 1 to 4 nodes: fewer than a default chunk; up to 700: several
    # chunks, the last one partial
    nodes=st.one_of(st.integers(1, 4), st.integers(5, 700)),
    coarse=st.booleans(),
    chunk=CHUNKS,
)
@example(seed=3, n=20, integer_valued=False, copies=2, tied_instrument=False,
         nodes=1, coarse=False, chunk=5)
@example(seed=4, n=12, integer_valued=True, copies=1, tied_instrument=True,
         nodes=641, coarse=True, chunk=5)
@example(seed=5, n=30, integer_valued=False, copies=3, tied_instrument=False,
         nodes=300, coarse=False, chunk=2)
# groups of sizes 2 to 4 in one sample; integer prices and quantities make
# different groups tie at some nodes, and the instrument has ties
@example(seed=6, n=40, integer_valued=True, copies=3, tied_instrument=True,
         nodes=200, coarse=False, chunk=2)
@example(seed=7, n=40, integer_valued=False, copies=3, tied_instrument=True,
         nodes=130, coarse=True, chunk=1)
def test_profile_equals_xi_at_every_node(
    seed, n, integer_valued, copies, tied_instrument, nodes, coarse, chunk
):
    # the reference is xi at each node with the good's seed: residual ties
    # are broken by the good's uniforms, then by index, so the chunk size
    # changes no bit
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
        # duplicate (price, quantity) rows, groups of 2 to copies + 1 equal
        # residuals at every node (more where a row is drawn twice); each copy
        # draws its own instrument, as after --jitter
        drawn = rng.integers(0, n, max(1, n // 4))
        rows = np.repeat(drawn, rng.integers(1, copies + 1, drawn.size))
        price, quantity = np.concatenate([price, price[rows]]), np.concatenate([quantity, quantity[rows]])
        z = np.concatenate([z, instrument(rows.size)])
    assume(np.ptp(z) > 0)
    thetas = np.linspace(0.0, (nodes - 1) / 8.0, nodes)
    uniforms = _coarse_uniforms if coarse else xicor.tie_uniforms
    with mock.patch.object(xicor, "tie_uniforms", uniforms), _chunked(chunk):
        stats = profile_stats(price, quantity, z, thetas, seed)
        _assert_xi_at_every_node(stats, price, quantity, z, thetas, seed)


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
    chunk=CHUNKS,
)
@example(seed=1, k=3, offset=0, near=2, same_price=False, duplicates=False,
         exponent=0, nodes=260, chunk=5)
@example(seed=2, k=4, offset=-1, near=1, same_price=True, duplicates=False,
         exponent=-1060, nodes=129, chunk=2)
@example(seed=3, k=5, offset=1, near=2, same_price=False, duplicates=True,
         exponent=0, nodes=200, chunk=2)
def test_profile_equals_xi_where_residuals_nearly_tie(
    seed, k, offset, near, same_price, duplicates, exponent, nodes, chunk
):
    # Row pairs one ulp apart in price with equal quantity leave residuals
    # that differ only in their lowest bits (or round to a tie) at every
    # node, so their packed keys collide and the run is put in order.  The
    # grid runs past price * quantity, where residuals turn negative.
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
    with _chunked(chunk):
        stats = profile_stats(price, quantity, z, thetas, seed)
    _assert_xi_at_every_node(stats, price, quantity, z, thetas, seed)


def test_repeated_rows_that_cross_keep_the_goods_tie_order():
    # Repeated rows tie at every node, and at theta = 1 alone (node 4 of
    # the grid) rows (3, 0.5) and (2, 1), both repeated, tie with each
    # other: residuals 3 - 2 theta and 2 - theta.  All five observations
    # then sort by the good's tie order, at that node as at every other.
    rng = np.random.default_rng(11)
    price = np.concatenate([[3.0, 2.0], rng.uniform(1.0, 2.0, 60)])
    quantity = np.concatenate([[0.5, 1.0], rng.uniform(0.5, 2.0, 60)])
    rows = np.array([0, 0, 1, 5, 5, 5, 9])
    price, quantity = np.concatenate([price, price[rows]]), np.concatenate([quantity, quantity[rows]])
    z = rng.uniform(0.0, 1.0, price.size)
    thetas = np.linspace(0.0, 2.0, 9)
    residual = price - thetas[4] / quantity
    assert np.count_nonzero(residual == 1.0) == 5
    stats = profile_stats(price, quantity, z, thetas, 5)
    _assert_xi_at_every_node(stats, price, quantity, z, thetas, 5)


@pytest.mark.parametrize("chunk", [1, 2, 5, None])
def test_profile_equals_xi_where_many_nodes_collide_across_chunks(chunk):
    # Lattice data, as in scanner files: cent prices and whole quantities.
    # On a grid of step 0.002 from 0, different rows' residuals tie exactly
    # at many nodes, spread over several chunks.
    rng = np.random.default_rng(8)
    n, seed = 600, 12
    price = rng.integers(100, 300, n) / 100.0
    quantity = rng.integers(1, 6, n).astype(float)
    z = rng.uniform(0.0, 1.0, n)
    thetas = np.arange(1001) * 0.002
    # 600 draws of 1000 (price, quantity) pairs repeat some rows; the
    # nodes where two different rows tie fall in more than one chunk
    rows = chunk or confset._chunk_rows(n)
    distinct_p, distinct_q = np.unique(np.stack([price, quantity]), axis=1)
    crossing = [j for j, theta in enumerate(thetas)
                if np.unique(distinct_p - theta * (1.0 / distinct_q)).size < distinct_p.size]
    assert len({j // rows for j in crossing}) > 1
    with _chunked(chunk):
        stats = profile_stats(price, quantity, z, thetas, seed)
    _assert_xi_at_every_node(stats, price, quantity, z, thetas, seed)


def _tie_sample(kind, n, rng):
    """(price, quantity, z) of one kind of tie; see test_profile_equals_xi_with_the_goods_seed."""
    if kind.startswith("lattice"):
        cells = rng.choice(450 * 20, n, replace=False)
        if kind == "lattice":
            cells[-1] = cells[0]
        price, quantity = (50 + cells // 20) / 100.0, (1 + cells % 20).astype(float)
        return price, quantity, rng.uniform(0.0, 1.0, n)
    price, quantity, z = rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 1.0, n)
    k = max(1, n // 5)
    if kind == "near":
        # an even significand, so its next float up differs in bit 0 alone
        price = (price.view(np.int64) & ~1).view(np.float64)
        price[-k:] = np.nextafter(price[:k], np.inf)
        quantity[-k:] = quantity[:k]
    elif kind != "smooth":
        rows = rng.integers(0, n - k, k)
        price[-k:], quantity[-k:] = price[rows], quantity[rows]
        if kind == "repeated, tied instrument":
            z[-k:] = z[rows]
    return price, quantity, z


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 80),
    # smooth: no ties; repeated: duplicate rows, each copy with its own
    # instrument value, or with its row's (ranks tie too); lattice: cent
    # prices and whole quantities, whose different rows tie exactly at some
    # nodes, with or without a repeated row; near: row pairs one ulp apart
    kind=st.sampled_from(["smooth", "repeated", "repeated, tied instrument", "lattice",
                          "lattice, no repeated row", "near"]),
    nodes=st.integers(1, 300),
    # how far past max(price * quantity) the grid runs: residuals turn negative
    past=st.sampled_from([0.0, 0.5, 2.0]),
    chunk=CHUNKS,
)
@example(seed=1, n=60, kind="lattice", nodes=300, past=0.0, chunk=5)
@example(seed=2, n=63, kind="near", nodes=200, past=2.0, chunk=2)
@example(seed=3, n=64, kind="repeated", nodes=130, past=0.5, chunk=None)
@example(seed=4, n=40, kind="lattice, no repeated row", nodes=260, past=2.0, chunk=1)
def test_profile_equals_xi_with_the_goods_seed(seed, n, kind, nodes, past, chunk):
    # every node breaks its residual ties by the good's one tie order, the
    # order xi draws from the same seed
    rng = np.random.default_rng(seed)
    price, quantity, z = _tie_sample(kind, n, rng)
    assume(np.ptp(z) > 0)
    step = 0.002 if kind.startswith("lattice") else float(np.max(price * quantity)) / max(nodes - 1, 1)
    thetas = np.arange(nodes) * (step * (1.0 + past))
    with _chunked(chunk):
        stats = profile_stats(price, quantity, z, thetas, seed)
    _assert_xi_at_every_node(stats, price, quantity, z, thetas, seed)


def test_shape_diagnostic_reads_the_profile_at_zero():
    # Prices tie across rows with distinct instrument values, so the tie
    # order decides the statistic; the diagnostic and the grid draw it from
    # the same seed.
    rng = np.random.default_rng(4)
    price = rng.integers(100, 120, 300) / 100.0
    sample = GoodSample(price, rng.uniform(0.5, 2.0, 300), instrument=rng.uniform(0.0, 1.0, 300))
    for seed in (0, 7, 2**40):
        diag = shape_diagnostic(sample, 0.05, seed)
        at_zero = profile_stats(sample.price, sample.quantity, sample.instrument, np.array([0.0]), seed)[0]
        assert diag.stat_at_zero == at_zero


@pytest.mark.parametrize("seed", [-1, 1.5, 7, 2**40])
def test_every_grid_entry_takes_the_seeds_xi_takes(seed):
    # Tie-free rows, repeated rows, and lattice rows (cent prices, whole
    # quantities) that collide at theta = 0: each grid raises what xi
    # raises for the seed, or equals xi at every node.
    rng = np.random.default_rng(5)
    quantity = rng.uniform(0.5, 2.0, 50)
    price = 1.0 + 0.3 / quantity + rng.uniform(0.0, 0.1, 50)
    rows = np.arange(10)
    lattice_q = rng.integers(1, 6, 60).astype(float)
    samples = [
        (price, quantity),
        (np.concatenate([price, price[rows]]), np.concatenate([quantity, quantity[rows]])),
        (np.round(100.0 + 30.0 / lattice_q + rng.integers(0, 5, 60)) / 100.0, lattice_q),
    ]
    grid = GridSpec(0.0, 1.0, 5)
    for p, q in samples:
        sample = GoodSample(p, q, 1.0 / q + rng.uniform(0.0, 0.2, p.size))
        entries = [
            lambda: profile_stats(sample.price, sample.quantity, sample.instrument, grid.values(), seed),
            lambda: cs_xi(sample, 0.05, grid, seed),
            lambda: confset.xi_hull(sample, 0.05, grid, seed),
            lambda: cs_combined(sample, 0.05, "xi", grid, seed),
            lambda: cs_combined(sample, 0.05, "intersect", grid, seed),
        ]
        try:
            xi(sample.price, sample.instrument, seed)
        except (TypeError, ValueError, ConfigError) as exc:
            for entry in entries:
                with pytest.raises(type(exc)) as err:
                    entry()
                assert str(err.value) == str(exc)
            continue
        stats = entries[0]()
        _assert_xi_at_every_node(stats, sample.price, sample.quantity, sample.instrument, grid.values(), seed)


def _same_interval(a, b) -> bool:
    # equal fields, NaN endpoints of empty intervals included
    return repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    # smooth: no ties; repeated: duplicate rows, tied at every node;
    # lattice: cent prices and whole quantities on a 0.002 grid from 0,
    # where different rows' residuals tie at some nodes
    kind=st.sampled_from(["smooth", "repeated", "lattice"]),
    nodes=st.one_of(st.just(2), st.integers(3, 300)),
    # index of the critical value among the profile's distinct values; -1
    # puts it below all of them (an empty set), 0 accepts the minimum alone
    level=st.one_of(st.just(-1), st.just(0), st.integers(1, 10**6)),
    chunk=st.sampled_from([1, 3, None]),
)
@example(seed=1, n=30, kind="lattice", nodes=2, level=0, chunk=None)
@example(seed=2, n=40, kind="repeated", nodes=200, level=-1, chunk=3)
@example(seed=3, n=50, kind="lattice", nodes=300, level=5, chunk=1)
def test_xi_hull_equals_the_hull_of_the_profile(seed, n, kind, nodes, level, chunk):
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        price = rng.integers(100, 300, n) / 100.0
        quantity = rng.integers(1, 6, n).astype(float)
        grid = GridSpec(0.0, 0.002 * (nodes - 1), nodes)
    else:
        price = rng.uniform(1.0, 2.0, n)
        quantity = rng.uniform(0.5, 2.0, n)
        if kind == "repeated":
            rows = rng.integers(0, n, max(1, n // 3))
            price, quantity = np.concatenate([price, price[rows]]), np.concatenate([quantity, quantity[rows]])
        grid = GridSpec(0.0, 3.0, nodes)
    sample = GoodSample(price, quantity, rng.uniform(0.0, 1.0, price.size))
    with _chunked(chunk):
        _, profile = cs_xi(sample, 0.05, grid, seed)
        values = np.unique(profile.stats)
        c = np.nextafter(values[0], -np.inf) if level < 0 else values[level % values.size]
        with mock.patch.object(confset, "critical_value", lambda alpha: c):
            ref, _ = cs_xi(sample, 0.05, grid, seed)
            hull = confset.xi_hull(sample, 0.05, grid, seed)
    assert _same_interval(hull, ref)


@settings(max_examples=200, deadline=None)
@given(accepted=st.lists(st.booleans(), min_size=2, max_size=40), chunk=st.sampled_from([1, 3, 16]))
@example(accepted=[False] * 10, chunk=3)
@example(accepted=[True] + [False] * 9, chunk=3)
@example(accepted=[False] * 9 + [True], chunk=3)
@example(accepted=[True, False], chunk=1)
@example(accepted=[False, True], chunk=16)
# both ends stop inside one chunk, and the upper scan reaches the lower one's
@example(accepted=[False] * 4 + [True, False, True] + [False] * 3, chunk=16)
@example(accepted=[False] * 5 + [True] + [False] * 4, chunk=3)
def test_xi_hull_scans_inward_from_both_ends(accepted, chunk):
    # A stand-in grid whose node j reads 0 (accepted) or 10 (rejected) and
    # records the nodes evaluated: xi_hull gives cs_xi's interval, evaluates
    # no node twice and every node outside the hull, and stops each end in
    # the chunk of its first accepted node.
    evaluated = []
    stats_of = np.where(accepted, 0.0, 10.0)

    class Scripted:
        def __init__(self, price, quantity, z, thetas, rng_seed):
            self.stats, self.rows = np.full(thetas.size, np.nan), chunk

        def fill(self, start, stop):
            evaluated.extend(range(start, stop))
            self.stats[start:stop] = stats_of[start:stop]

    rng = np.random.default_rng(0)
    sample = GoodSample(rng.uniform(1.0, 2.0, 5), rng.uniform(0.5, 2.0, 5), rng.uniform(0.0, 1.0, 5))
    grid = GridSpec(0.0, 1.0, len(accepted))
    with mock.patch.object(confset, "_Grid", Scripted):
        ref, _ = cs_xi(sample, 0.05, grid, 0)
        evaluated.clear()
        hull = confset.xi_hull(sample, 0.05, grid, 0)
    assert _same_interval(hull, ref)
    assert len(evaluated) == len(set(evaluated))
    hits = np.flatnonzero(accepted)
    if not hits.size:
        assert sorted(evaluated) == list(range(len(accepted)))
        return
    first, last = hits[0], hits[-1]
    assert set(range(first + 1)) | set(range(last, len(accepted))) <= set(evaluated)
    assert sum(first < j < last for j in evaluated) <= 2 * (chunk - 1)
