import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from welfarebounds.errors import DegenerateResponse, InvalidLevel, InvalidSample
from welfarebounds.regress import LsFit, theta_interval_delta
from welfarebounds.xicor import PairedSample, critical_value, response_rank_scale, xi


def test_sample_validation():
    with pytest.raises(InvalidSample):
        PairedSample([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidSample):
        PairedSample([1.0], [1.0])
    with pytest.raises(InvalidSample):
        PairedSample([1.0, np.nan], [1.0, 2.0])


def test_ranks_strictly_monotone():
    # tie-free response: plain ranks and the scale 3 / (n^2 - 1)
    r, scale = response_rank_scale(np.array([30.0, 10.0, 20.0]))
    assert r.tolist() == [3, 1, 2]
    assert scale == 3 / 8


def test_ranks_full_tie_counts():
    # every value weakly above every other: the tie-aware denominator is 0
    with pytest.raises(DegenerateResponse):
        response_rank_scale(np.array([5.0, 5.0]))


def test_ranks_mixed_ties_max_rank():
    # max-ranks r = [3, 3, 1, 4]; weak-upper counts l = [3, 3, 4, 1] give
    # sum l * (n - l) = 9, so the scale is n / (2 * 9)
    r, scale = response_rank_scale(np.array([7.0, 7.0, 1.0, 9.0]))
    assert r.tolist() == [3, 3, 1, 4]
    assert scale == 4 / 18


@pytest.mark.parametrize("second", [[10, 20, 30], [30, 20, 10]])
def test_xi_monotone_triples(second):
    # perfectly monotone ranks give jump sum n-1, hence 1 - 3/(n+1) = 0.25
    rep = xi(PairedSample([1, 2, 3], second), rng_seed=0)
    assert rep.xi == pytest.approx(0.25, abs=1e-15)
    assert rep.normalized == np.sqrt(3) * rep.xi
    assert rep.ties_broken == 0


def test_xi_tie_free_maximum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        rep = xi(PairedSample(rng.normal(size=n), rng.normal(size=n)), 0)
        assert np.isfinite(rep.xi)
        assert rep.xi <= 1 - 3 / (n + 1) + 1e-12
    # the bound is attained on perfectly dependent data
    vals = rng.normal(size=50)
    rep = xi(PairedSample(vals, 2 * vals + 1), 0)
    assert rep.xi == pytest.approx(1 - 3 / 51, abs=1e-12)


def test_xi_near_zero_under_independence():
    rng = np.random.default_rng(7)
    rep = xi(PairedSample(rng.normal(size=10000), rng.normal(size=10000)), 1)
    assert abs(rep.xi) < 0.05


def test_degenerate_response_raises():
    with pytest.raises(DegenerateResponse):
        xi(PairedSample([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]), 0)


def test_ties_broken_reported():
    rep = xi(PairedSample([1, 1, 1, 2, 2, 3], [1, 2, 3, 4, 5, 6]), rng_seed=5)
    assert rep.ties_broken == 3  # two extra 1s plus one extra 2


def test_tied_response_formula():
    # second = [7,7,1,9]: jumps over r=[3,3,1,4] sum to 5, denominator from l
    rep = xi(PairedSample([1, 2, 3, 4], [7, 7, 1, 9]), rng_seed=0)
    l = np.array([3, 3, 4, 1])
    expected = 1 - 4 * 5 / (2 * np.sum(l * (4 - l)))
    assert rep.xi == pytest.approx(expected, abs=1e-15)


def test_monotone_transform_invariance_bit_exact():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(10, 300))
        first = rng.normal(size=n)
        second = rng.normal(size=n)
        base = xi(PairedSample(first, second), 3).xi
        up = xi(PairedSample(2 * first + 1, second), 3).xi
        down = xi(PairedSample(-(first**3), second), 3).xi
        assert up == base
        assert down == base


def test_row_permutation_determinism():
    rng = np.random.default_rng(11)
    first = rng.normal(size=500)
    second = rng.normal(size=500)
    base = xi(PairedSample(first, second), 0).xi
    perm = rng.permutation(500)
    shuffled = xi(PairedSample(first[perm], second[perm]), 0).xi
    assert shuffled == base


def test_critical_values():
    assert critical_value(0.5) == 0.0
    assert_allclose(critical_value(0.05), np.sqrt(0.4) * 1.6448536269514722, atol=1e-12)
    assert_allclose(critical_value(0.05), 1.04030, atol=1e-4)
    assert_allclose(critical_value(0.025), np.sqrt(0.4) * 1.959963984540054, atol=1e-12)
    assert_allclose(critical_value(0.025), 1.23959, atol=1e-4)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidLevel):
            critical_value(bad)


def test_normal_quantiles_match_ndtri():
    # every per-good level the package uses: alpha/K, and alpha/2K when intersecting
    from scipy.special import ndtri

    fit = LsFit(beta_hat=1.0, intercept_hat=0.0, se_beta=1.0, n=100, mode="OLS")
    for alpha in (0.01, 0.02, 0.05, 0.07, 0.1, 0.2):
        for K in range(1, 201):
            for share in (alpha / K, alpha / (2 * K)):
                expected = math.sqrt(0.4) * float(ndtri(1.0 - share))
                assert critical_value(share) == pytest.approx(expected, rel=2e-15, abs=0)
                # theta = se_theta = 1, so the upper end is 1 + z
                z = theta_interval_delta(fit, 1.0 - share).upper - 1.0
                expected = float(ndtri(0.5 + (1.0 - share) / 2.0))
                assert z == pytest.approx(expected, rel=2e-15, abs=0)


def test_runtime_scales_quasilinearly():
    rng = np.random.default_rng(0)
    data = {n: (rng.normal(size=n), rng.normal(size=n)) for n in (500_000, 1_000_000)}

    def best_of(n, tries=3):
        sample = PairedSample(*data[n])
        times = []
        for _ in range(tries):
            t0 = time.perf_counter()
            xi(sample, 0)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_half = best_of(500_000)
    t_full = best_of(1_000_000)
    assert t_full <= 3 * (2 * t_half)
