import math
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose

from welfarebounds.confset import GridSpec, cs_combined
from welfarebounds.errors import (
    DataError,
    InvalidLevel,
    InvalidSample,
    NearZeroSlope,
    NonpositiveSlope,
    SingularDesign,
    WeakFirstStage,
)
from welfarebounds.regress import (
    GoodSample,
    Interval,
    LsFit,
    fit_inverse_demand,
    theta_interval_delta,
)


def _exogenous_draw(n, theta, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(1, 2, n)
    w = rng.uniform(0, 1, n)
    return GoodSample(p, theta / (p - w), instrument=p.copy(), good_id="g")


def test_sample_validation():
    with pytest.raises(InvalidSample):
        GoodSample([1.0, 2.0], [1.0, 2.0])  # too short
    with pytest.raises(InvalidSample):
        GoodSample([1.0, 2.0, -1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidSample):
        GoodSample([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
    with pytest.raises(InvalidSample):
        GoodSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], instrument=[1.0, 2.0])
    with pytest.raises(InvalidSample, match="one-dimensional"):
        GoodSample([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
    with pytest.raises(InvalidSample, match="price has 3 rows, quantity has 4"):
        GoodSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InvalidSample, match="non-finite price or quantity"):
        GoodSample([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidSample, match="non-finite instrument"):
        GoodSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], instrument=[1.0, np.inf, 3.0])


def test_quantity_with_overflowing_reciprocal_is_invalid():
    # 1/1e-320 overflows to inf; the check itself must not warn (pytest
    # turns RuntimeWarning into an error)
    with pytest.raises(InvalidSample, match="reciprocal overflows"):
        GoodSample([1.0, 2.0, 3.0], [1.0, 1e-320, 3.0])
    assert GoodSample([1.0, 2.0, 3.0], [1.0, 1e-300, 3.0]).n == 3


def test_exact_linear_relation():
    # quantity = 0.5 / price gives 1/quantity = 2 * price with no residual
    p = np.linspace(1, 2, 50)
    fit = fit_inverse_demand(GoodSample(p, 0.5 / p))
    assert fit.beta_hat == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept_hat == pytest.approx(0.0, abs=1e-12)
    assert fit.se_beta == pytest.approx(0.0, abs=1e-12)
    iv = theta_interval_delta(fit, 0.95)
    assert iv.lower == pytest.approx(0.5, abs=1e-12)
    assert iv.upper == pytest.approx(0.5, abs=1e-12)


def test_ols_slope_matches_moment_oracle():
    # 1/quantity = 5*price - 5*shock, E[shock] = 0.5
    fit = fit_inverse_demand(_exogenous_draw(5000, 0.2, seed=8))
    assert fit.beta_hat == pytest.approx(5.0, abs=0.25)
    assert fit.intercept_hat == pytest.approx(-2.5, abs=0.35)


def test_tsls_fixes_endogeneity_bias():
    rng = np.random.default_rng(15)
    n = 5000
    z = rng.uniform(1, 1.5, n)
    w = rng.uniform(0, 1, n)
    p = z + 0.5 * w + rng.uniform(0, 0.1, n)
    sample = GoodSample(p, 0.2 / (p - w), instrument=z, good_id="endo")
    # the instrument column makes the fit 2SLS; without it price is its own
    # instrument, and the fit is the inconsistent OLS one
    tsls = fit_inverse_demand(sample)
    ols = fit_inverse_demand(GoodSample(p, sample.quantity, good_id="endo"))
    assert abs(tsls.beta_hat - 5.0) < 0.4
    assert abs(ols.beta_hat - 5.0) > 2.0


def test_interval_rules_are_data_errors():
    for args, message in (((0.1, 0.2, 1.5), "level 1.5 lies outside"),
                          ((0.1, math.inf, 0.9), "must be finite"),
                          ((0.3, 0.2, 0.9), "lower 0.3 exceeds upper 0.2")):
        with pytest.raises(DataError, match=message):
            Interval(*args)


def test_empty_is_keyword_only():
    # a fourth positional argument would otherwise land in `empty` and
    # build an empty interval
    with pytest.raises(TypeError):
        Interval(0.1, 0.2, 0.9, "LS")
    assert Interval(0.1, 0.2, 0.9) == Interval(0.1, 0.2, 0.9, empty=False)


def test_an_empty_interval_has_nan_length_and_contains_nothing():
    out = Interval.make_empty(0.95)
    assert out.empty and out.level == 0.95
    assert np.isnan(out.lower) and np.isnan(out.upper)
    assert np.isnan(out.length)
    assert not out.contains(2.5)


def test_ols_and_tsls_coincide_when_instrument_is_price():
    # a sample without an instrument column is instrumented by its price, so
    # its fit and its least-squares intervals equal those of the same sample
    # with the price copied into the instrument column, bit for bit
    rng = np.random.default_rng(3)
    p = rng.uniform(1, 2, 400)
    w = rng.uniform(0, 1, 400)
    ols = GoodSample(p, 0.3 / (p - w))
    tsls = GoodSample(p, 0.3 / (p - w), instrument=p.copy())
    assert ols.z is ols.price and tsls.z is tsls.instrument
    assert fit_inverse_demand(ols) == fit_inverse_demand(tsls)
    grid = GridSpec(1e-6, 6.0, 300)
    for mode in ("ls", "intersect"):
        got = cs_combined(ols, 0.05, mode, grid, 4)
        assert not got.empty
        assert got == cs_combined(tsls, 0.05, mode, grid, 4)


def test_delta_interval_hand_values():
    fit = LsFit(beta_hat=5.0, intercept_hat=0.0, se_beta=0.5)
    iv = theta_interval_delta(fit, 0.95)
    # theta = 0.2, se_theta = 0.02, z = 1.959964
    assert_allclose(iv.lower, 0.16080072, atol=1e-6)
    assert_allclose(iv.upper, 0.23919928, atol=1e-6)
    assert iv.level == 0.95


def test_delta_interval_bonferroni_level_quantile():
    fit = LsFit(beta_hat=5.0, intercept_hat=0.0, se_beta=0.5)
    iv = theta_interval_delta(fit, 1 - 0.1 / 3)
    # z at the 0.983333 quantile is 2.1280452342
    assert_allclose(iv.lower, 0.2 - 2.1280452342 * 0.02, atol=1e-9)
    assert_allclose(iv.upper, 0.2 + 2.1280452342 * 0.02, atol=1e-9)


def test_delta_interval_clips_at_zero():
    fit = LsFit(beta_hat=0.5, intercept_hat=0.0, se_beta=2.0)
    iv = theta_interval_delta(fit, 0.95)
    assert iv.lower == 0.0
    assert iv.upper > 0


def test_nonpositive_slope_raises():
    for beta in (-1.0, 0.0):
        fit = LsFit(beta_hat=beta, intercept_hat=0.0, se_beta=0.5)
        with pytest.raises(NonpositiveSlope):
            theta_interval_delta(fit, 0.95)


def test_near_zero_slope_raises():
    # beta^2 underflows (1e-170), 1/beta overflows (1e-320), or se/beta^2 overflows
    for beta, se in ((1e-170, 0.5), (1e-320, 0.0), (1e-150, 1e10)):
        fit = LsFit(beta_hat=beta, intercept_hat=0.0, se_beta=se)
        with pytest.raises(NearZeroSlope):
            theta_interval_delta(fit, 0.95)


def test_huge_slope_has_a_finite_interval():
    # beta^2 overflows above ~1.3e154; se/beta/beta is the same quantity
    beta, se = 1.3407807929942597e154, 1.6421143998800672e154
    fit = LsFit(beta_hat=beta, intercept_hat=0.0, se_beta=se)
    iv = theta_interval_delta(fit, 0.975)
    half = NormalDist().inv_cdf(0.9875) * (se / beta / beta)
    assert iv.lower == max(0.0, 1.0 / beta - half) and iv.upper == 1.0 / beta + half
    assert 0.0 < iv.upper < 1e-153


def test_bad_level_raises():
    fit = LsFit(beta_hat=2.0, intercept_hat=0.0, se_beta=0.5)
    for level in (0.0, 1.0, 2.0):
        with pytest.raises(InvalidLevel):
            theta_interval_delta(fit, level)


def test_singular_design():
    with pytest.raises(SingularDesign):
        fit_inverse_demand(GoodSample(np.full(10, 1.5), np.linspace(1, 2, 10)))


def test_weak_first_stage():
    rng = np.random.default_rng(4)
    p = rng.uniform(1, 2, 50)
    sample = GoodSample(p, 1.0 / p, instrument=np.full(50, 2.0))
    with pytest.raises(WeakFirstStage):
        fit_inverse_demand(sample)


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    p = rng.uniform(1, 2, 300)
    w = rng.uniform(0, 1, 300)
    y = 0.4 / (p - w)
    c = 3.7
    base = fit_inverse_demand(GoodSample(p, y))
    scaled = fit_inverse_demand(GoodSample(c * p, y))
    assert_allclose(scaled.beta_hat, base.beta_hat / c, rtol=1e-10)
    iv_base = theta_interval_delta(base, 0.9)
    iv_scaled = theta_interval_delta(scaled, 0.9)
    assert_allclose(iv_scaled.lower, c * iv_base.lower, rtol=1e-10)
    assert_allclose(iv_scaled.upper, c * iv_base.upper, rtol=1e-10)


def test_delta_interval_coverage():
    # level-0.9 interval should cover theta = 0.5 in at least 87% of draws
    hits = 0
    reps = 500
    for r in range(reps):
        fit = fit_inverse_demand(_exogenous_draw(1000, 0.5, seed=10_000 + r))
        hits += theta_interval_delta(fit, 0.9).contains(0.5)
    assert hits / reps >= 0.87
