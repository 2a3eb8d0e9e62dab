import numpy as np
import pytest
from numpy.testing import assert_allclose

from welfarebounds.confset import (
    GridSpec,
    XiProfile,
    bonferroni_share,
    cs_combined,
    cs_xi,
    intersect,
    profile_stats,
    shape_diagnostic,
    smooth_instrument,
)
from welfarebounds.errors import (
    EmptyConfidenceSet,
    InvalidGrid,
    InvalidLevel,
)
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
    assert prof.stats[0] == direct.normalized


def test_profile_large_theta_matches_quantity_statistic():
    for seed in range(5):
        sample = draw_sample(DgpConfig(theta=np.array([0.4]), n=600, seed=seed))[0]
        theta_big = 1e6 * float(np.max(sample.price * sample.quantity))
        stat = profile_stats(
            sample.price, sample.quantity, sample.instrument, np.array([theta_big]), 1
        )[0]
        ref = xi(PairedSample(sample.quantity, sample.instrument), 1).normalized
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
    with pytest.raises(EmptyConfidenceSet) as err:
        cs_xi(sample, 0.1, GridSpec(0.8, 0.9, 200), rng_seed=3)
    assert err.value.profile is not None
    assert err.value.profile.stats.min() > err.value.profile.critical
    assert err.value.interval.empty


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
    iv = cs_combined(sample, 0.05, mode="ls")
    assert iv.lower == pytest.approx(0.5, abs=1e-10)
    assert iv.upper == pytest.approx(0.5, abs=1e-10)
    assert iv.level == pytest.approx(0.95)


def test_cs_combined_intersect_is_subset_of_pieces():
    sample = draw_sample(DgpConfig(theta=np.array([0.4]), n=1500, seed=9))[0]
    share = 0.05
    combined = cs_combined(sample, share, grid_nodes=800, mode="intersect", rng_seed=4)
    ls = theta_interval_delta(fit_inverse_demand(sample, "tsls"), 1 - share / 2)
    assert combined.lower >= ls.lower - 1e-12
    assert combined.upper <= ls.upper + 1e-12
    assert combined.level == pytest.approx(1 - share)
    xi_only = cs_combined(sample, share, grid_nodes=800, mode="xi", grid_hi=1.0, rng_seed=4)
    assert xi_only.contains(0.4) and combined.contains(0.4)


def test_case2_shape_and_intersection_tightening():
    sample = _case2_sample()
    diag = shape_diagnostic(sample, 0.05, rng_seed=123)
    assert diag.case_id == "UNBOUNDED_ABOVE"
    assert diag.stat_at_zero > diag.critical
    assert diag.stat_at_inf <= diag.critical
    ls = theta_interval_delta(fit_inverse_demand(sample, "tsls"), 1 - 0.05 / 2)
    combined = cs_combined(sample, 0.05, grid_nodes=2000, mode="intersect", rng_seed=9)
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
