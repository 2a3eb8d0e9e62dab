from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose

from welfarebounds.errors import (
    InvalidLevel,
    InvalidSample,
    NearZeroSlope,
    NonpositiveSlope,
    SingularDesign,
    WeakFirstStage,
)
from welfarebounds.regress import (
    GoodSample,
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
    assert fit.mode == "OLS"


def test_tsls_fixes_endogeneity_bias():
    rng = np.random.default_rng(15)
    n = 5000
    z = rng.uniform(1, 1.5, n)
    w = rng.uniform(0, 1, n)
    p = z + 0.5 * w + rng.uniform(0, 0.1, n)
    sample = GoodSample(p, 0.2 / (p - w), instrument=z, good_id="endo")
    ols = fit_inverse_demand(sample, "ols")
    tsls = fit_inverse_demand(sample, "tsls")
    assert abs(tsls.beta_hat - 5.0) < 0.4
    assert abs(ols.beta_hat - 5.0) > 2.0
    # auto picks TSLS with an instrument and OLS without one
    assert fit_inverse_demand(sample, "auto") == tsls
    assert fit_inverse_demand(GoodSample(p, sample.quantity), "AUTO") == ols
    with pytest.raises(ValueError, match="auto, ols, or tsls"):
        fit_inverse_demand(sample, "gmm")


def test_ols_and_tsls_coincide_when_instrument_is_price():
    rng = np.random.default_rng(3)
    p = rng.uniform(1, 2, 400)
    w = rng.uniform(0, 1, 400)
    sample = GoodSample(p, 0.3 / (p - w), instrument=p.copy())
    ols = fit_inverse_demand(sample, "ols")
    tsls = fit_inverse_demand(sample, "tsls")
    assert_allclose(ols.beta_hat, tsls.beta_hat, atol=1e-10)
    assert_allclose(ols.se_beta, tsls.se_beta, atol=1e-10)


def test_delta_interval_hand_values():
    fit = LsFit(beta_hat=5.0, intercept_hat=0.0, se_beta=0.5, n=100, mode="OLS")
    iv = theta_interval_delta(fit, 0.95)
    # theta = 0.2, se_theta = 0.02, z = 1.959964
    assert_allclose(iv.lower, 0.16080072, atol=1e-6)
    assert_allclose(iv.upper, 0.23919928, atol=1e-6)
    assert iv.level == 0.95
    assert iv.source == "LS"


def test_delta_interval_bonferroni_level_quantile():
    fit = LsFit(beta_hat=5.0, intercept_hat=0.0, se_beta=0.5, n=100, mode="OLS")
    iv = theta_interval_delta(fit, 1 - 0.1 / 3)
    # z at the 0.983333 quantile is 2.1280452342
    assert_allclose(iv.lower, 0.2 - 2.1280452342 * 0.02, atol=1e-9)
    assert_allclose(iv.upper, 0.2 + 2.1280452342 * 0.02, atol=1e-9)


def test_delta_interval_clips_at_zero():
    fit = LsFit(beta_hat=0.5, intercept_hat=0.0, se_beta=2.0, n=30, mode="OLS")
    iv = theta_interval_delta(fit, 0.95)
    assert iv.lower == 0.0
    assert iv.upper > 0


def test_nonpositive_slope_raises():
    for beta in (-1.0, 0.0):
        fit = LsFit(beta_hat=beta, intercept_hat=0.0, se_beta=0.5, n=30, mode="OLS")
        with pytest.raises(NonpositiveSlope):
            theta_interval_delta(fit, 0.95)


def test_near_zero_slope_raises():
    # beta^2 underflows (1e-170), 1/beta overflows (1e-320), or se/beta^2 overflows
    for beta, se in ((1e-170, 0.5), (1e-320, 0.0), (1e-150, 1e10)):
        fit = LsFit(beta_hat=beta, intercept_hat=0.0, se_beta=se, n=30, mode="OLS")
        with pytest.raises(NearZeroSlope):
            theta_interval_delta(fit, 0.95)


def test_huge_slope_has_a_finite_interval():
    # beta^2 overflows above ~1.3e154; se/beta/beta is the same quantity
    beta, se = 1.3407807929942597e154, 1.6421143998800672e154
    fit = LsFit(beta_hat=beta, intercept_hat=0.0, se_beta=se, n=3, mode="TSLS")
    iv = theta_interval_delta(fit, 0.975)
    half = NormalDist().inv_cdf(0.9875) * (se / beta / beta)
    assert iv.lower == max(0.0, 1.0 / beta - half) and iv.upper == 1.0 / beta + half
    assert 0.0 < iv.upper < 1e-153


def test_bad_level_raises():
    fit = LsFit(beta_hat=2.0, intercept_hat=0.0, se_beta=0.5, n=30, mode="OLS")
    for level in (0.0, 1.0, 2.0):
        with pytest.raises(InvalidLevel):
            theta_interval_delta(fit, level)


def test_singular_design():
    with pytest.raises(SingularDesign):
        fit_inverse_demand(GoodSample(np.full(10, 1.5), np.linspace(1, 2, 10)))


def test_tsls_requires_instrument():
    sample = GoodSample(np.linspace(1, 2, 10), np.linspace(1, 2, 10))
    with pytest.raises(InvalidSample):
        fit_inverse_demand(sample, "tsls")


def test_weak_first_stage():
    rng = np.random.default_rng(4)
    p = rng.uniform(1, 2, 50)
    sample = GoodSample(p, 1.0 / p, instrument=np.full(50, 2.0))
    with pytest.raises(WeakFirstStage):
        fit_inverse_demand(sample, "tsls")


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
