import math
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from welfarebounds import _fanout, simulate, xicor
from welfarebounds.confset import GridSpec, cs_combined, shape_diagnostic, smooth_instrument
from welfarebounds.errors import ConfigError
from welfarebounds.regress import Interval
from welfarebounds.simulate import (
    MC_ALPHA,
    TABLE1_DELTA,
    TABLE1_THETA,
    TABLE1_YSTAR,
    DgpConfig,
    child_seed,
    draw_sample,
    mc_table1,
    mc_table2,
    substream,
)
from welfarebounds.welfare import POSITIVITY_FLOOR, ConstraintSet, WelfareQuery, bounds_box


def test_config_validation():
    with pytest.raises(ConfigError):
        DgpConfig(theta=np.array([0.0, 0.5]), n=100, seed=1)
    with pytest.raises(ConfigError):
        DgpConfig(theta=np.array([1.5]), n=100, seed=1)
    with pytest.raises(ConfigError):
        DgpConfig(theta=np.array([0.5]), n=0, seed=1)
    # a good needs three rows, so a smaller draw is a config error, not a bad sample
    with pytest.raises(ConfigError, match="at least 3, got 2") as err:
        DgpConfig(theta=np.array([0.5]), n=2, seed=1)
    assert err.value.params == ("n",)
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        DgpConfig(theta=np.array([math.nan]), n=100, seed=1)
    with pytest.raises(ConfigError, match="nonempty 1-d array") as err:
        DgpConfig(theta=np.array([[0.2, 0.3]]), n=100, seed=1)
    assert err.value.params == ("theta",)
    # each study checks its counts before any work
    with pytest.raises(ConfigError, match="one replication") as err:
        mc_table1(0, seed=1)
    assert err.value.params == ("reps",)
    for K, reps, param in ((0, 1, "k"), (2, 0, "reps")):
        with pytest.raises(ConfigError) as err:
            mc_table2(K, reps, seed=1)
        assert err.value.params == (param,)


def test_a_negative_seed_is_a_config_error_in_every_library_entry():
    # one rule, xicor.seed_sequence, names the parameter for the CLI; mc_table1
    # first reads its seed in the units, and fails before any worker starts
    sample = draw_sample(DgpConfig(theta=np.array([0.4]), n=60, seed=1))[0]
    grid = GridSpec(POSITIVITY_FLOOR, 1.0, 20)
    entries = [
        lambda: draw_sample(DgpConfig(theta=np.array([0.3]), n=50, seed=-1)),
        lambda: cs_combined(sample, 0.05, "xi", grid, rng_seed=-1),
        lambda: cs_combined(sample, 0.05, "intersect", grid, rng_seed=-1),
        lambda: shape_diagnostic(sample, 0.05, rng_seed=-1),
        lambda: smooth_instrument(sample.z, 0.1, rng_seed=-1),
        lambda: smooth_instrument(sample.z, 0.0, rng_seed=-1),
        lambda: child_seed(-1, 2),
        lambda: substream(-1, 0),
        lambda: xicor.tie_uniforms(-1, 5),
        lambda: mc_table1(1, seed=-1, n_values=(50,), grid_nodes=20),
        lambda: mc_table2(2, 1, seed=-1, n_values=(50,), grid_nodes=20),
    ]
    with mock.patch.object(simulate, "fan_out", side_effect=AssertionError("a unit ran")):
        for entry in entries:
            with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$") as err:
                entry()
            assert err.value.params == ("seed",)


def test_negative_endogeneity_is_a_config_error():
    # price - shock = z + (e - 1) * shock + u with z >= 1, shock in [0, 1)
    # and u >= 0: positive for every draw exactly when e >= 0
    for e in (-0.5, -0.01, math.nan):
        with pytest.raises(ConfigError, match=f"endogeneity must be nonnegative, got {e}") as err:
            DgpConfig(theta=np.array([0.5]), n=100, seed=1, endogeneity=e)
        assert err.value.params == ("endogeneity",)
    sample = draw_sample(DgpConfig(theta=np.array([0.5]), n=1000, seed=1, endogeneity=0.0))[0]
    assert np.all(sample.quantity > 0)  # GoodSample accepted the draw


def _shock(cfg, rep, k):
    """Good k's shock, redrawn from its stream (purpose 0) in the generator's order."""
    rng = substream(cfg.seed, 0, rep, k)
    rng.uniform(size=cfg.n)  # price, or the instrument of the endogenous variant
    return rng.uniform(0.0, 1.0, cfg.n)


def test_first_order_condition_identity():
    cfg = DgpConfig(theta=np.array([0.2, 0.3, 0.5]), n=2000, seed=5)
    samples = draw_sample(cfg, rep=3)
    for k, s in enumerate(samples):
        w = _shock(cfg, 3, k)
        residual = s.price - cfg.theta[k] / s.quantity
        assert_allclose(residual, w, atol=1e-12)
        assert np.all(s.quantity > 0)
        assert np.all((s.price > 1) & (s.price < 2))
        assert s.instrument is None and s.z is s.price


def test_inverse_quantity_moment():
    cfg = DgpConfig(theta=np.array([0.2]), n=100_000, seed=9)
    s = draw_sample(cfg)[0]
    # 1/quantity = 5*(price - shock); E[price] - E[shock] = 1.0
    assert np.mean(1.0 / s.quantity) == pytest.approx(5.0, abs=0.03)


def test_endogenous_variant():
    cfg = DgpConfig(theta=np.array([0.4]), n=20_000, seed=2, endogeneity=0.5)
    s, w = draw_sample(cfg)[0], _shock(cfg, 0, 0)
    assert_allclose(s.price - 0.4 / s.quantity, w, atol=1e-12)
    assert not np.array_equal(s.instrument, s.price)
    # price loads on the shock; the instrument does not
    assert np.corrcoef(s.price, w)[0, 1] > 0.3
    assert abs(np.corrcoef(s.instrument, w)[0, 1]) < 0.05


def test_streams_are_replication_and_good_specific():
    cfg = DgpConfig(theta=np.array([0.3, 0.5]), n=100, seed=11)
    a = draw_sample(cfg, rep=0)
    b = draw_sample(cfg, rep=0)
    assert np.array_equal(a[0].price, b[0].price)
    assert np.array_equal(a[1].quantity, b[1].quantity)
    c = draw_sample(cfg, rep=1)
    assert not np.array_equal(a[0].price, c[0].price)
    assert not np.array_equal(a[0].price, a[1].price)
    # substreams do not depend on draw order
    x = substream(11, 1, 2, 3).random(4)
    substream(11, 9, 9, 9).random(1000)
    y = substream(11, 1, 2, 3).random(4)
    assert np.array_equal(x, y)
    assert child_seed(11, 1, 2) == child_seed(11, 1, 2)
    assert child_seed(11, 1, 2) != child_seed(11, 2, 1)


def test_mc_table1_reproducible_and_sane():
    kwargs = dict(reps=3, seed=21, n_values=(200,), grid_nodes=120)
    a = mc_table1(**kwargs)
    b = mc_table1(**kwargs)
    assert a.intervals == b.intervals
    assert a.welfare == b.welfare
    assert a.joint_coverage == b.joint_coverage
    assert a.reps == 3
    labels = {w.label for w in a.welfare}
    assert labels == {"i", "ii", "iii", "iv", "ii_covers_true"}
    by_label = {w.label: w.value for w in a.welfare}
    assert by_label["iii"] == pytest.approx(0.5538851132264377, abs=1e-8)
    assert by_label["iv"] == pytest.approx(0.6357722726986219, abs=1e-12)
    assert a.true_welfare_loss == pytest.approx(0.5065623234290035, abs=1e-12)
    for row in a.intervals:
        assert 0.0 <= row.coverage <= 1.0
        assert row.avg_length >= 0.0
    # data-dependent summaries, pinned so that refactors keep the numbers
    assert [(r.avg_lower, r.avg_upper, r.var_length) for r in a.intervals] == pytest.approx([
        (0.15686358823529414, 0.3081239411764706, 0.002612804604197237),
        (0.22128929411764708, 0.40896417647058825, 0.003554355812916958),
        (0.36414629411764704, 0.8767508235294118, 0.005578690911664352),
    ], rel=1e-12)
    assert by_label["i"] == pytest.approx(0.5322721330876051, rel=1e-12)
    assert by_label["ii"] == pytest.approx(0.5506132988493091, rel=1e-12)
    assert by_label["ii_covers_true"] == 1.0
    assert a.joint_coverage == {200: 1.0}
    assert a.skipped == {}
    assert list(a.timings) == ["ci_n200", "welfare_n200"]


def test_mc_table1_lengths_shrink_with_n():
    report = mc_table1(reps=8, seed=33, n_values=(200, 1000), grid_nodes=300)
    lengths = {(r.n, r.good_id): r.avg_length for r in report.intervals}
    for good in ("good1", "good2", "good3"):
        assert lengths[(1000, good)] < lengths[(200, good)]


def test_mc_table2_fixed_query_and_bracketing():
    a = mc_table2(K=5, reps=3, seed=14, n_values=(200,), grid_nodes=150)
    b = mc_table2(K=5, reps=5, seed=14, n_values=(200,), grid_nodes=150)
    # the (delta, ystar) draw depends on (seed, K) only, not reps
    assert a.true_welfare_loss == b.true_welfare_loss
    by_label = {w.label: w.value for w in a.welfare}
    assert by_label["lower"] <= a.true_welfare_loss <= by_label["upper"]
    assert by_label["bracketed"] == 1.0
    assert set(a.joint_coverage) == {200}
    # data-dependent summaries, pinned so that refactors keep the numbers
    assert [(r.avg_lower, r.avg_upper, r.var_length) for r in a.intervals] == pytest.approx([
        (0.07830069798657717, 0.18120887248322148, 0.0014563879404846172),
        (0.2326629597315436, 0.6510070604026845, 0.0043391352041243225),
        (0.3713652818791946, 0.7919465167785235, 0.0040688776481580535),
        (0.5167790067114094, 0.9821029261744966, 0.0007357011245747724),
        (0.6957497449664429, 1.0, 6.005723465918322e-05),
    ], rel=1e-12)
    assert by_label["upper"] == pytest.approx(1.1290680963854536, rel=1e-12)
    assert by_label["lower"] == pytest.approx(0.9397432441037198, rel=1e-12)
    assert a.true_welfare_loss == pytest.approx(1.0155550315560185, rel=1e-12)
    assert a.joint_coverage == {200: 1.0}
    assert list(a.timings) == ["ci_n200", "welfare_n200"]


def test_mean_adds_left_to_right_on_every_python():
    # sum([0.1] * 10) is 1.0 from Python 3.12, which compensates float sums,
    # and 0.9999999999999999 before it; the mc welfare averages must not follow
    assert simulate._mean([0.1] * 10) == 0.9999999999999999 / 10


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_table1_leaves_empty_intervals_out_of_the_averages(workers):
    reps, seed, n, nodes = 4, 21, 200, 120
    theta = np.asarray(TABLE1_THETA)
    share = MC_ALPHA / theta.shape[0]
    grid = GridSpec(POSITIVITY_FLOOR, 1.0, nodes)
    config = DgpConfig(theta=theta, n=n, seed=seed)
    # every (r, k) interval of the unpatched study, then the empty ones by (r, k)
    runs = [
        [simulate.cs_combined(simulate._draw_good(config, r, k), share, "xi", grid, child_seed(seed, simulate._CS, r, k))
         for k in range(3)]
        for r in range(reps)
    ]
    assert not any(iv.empty for run in runs for iv in run)
    emptied = {(1, 0), (2, 0), (2, 2)}
    empty_seeds = {child_seed(seed, simulate._CS, r, k) for r, k in emptied}
    for r, k in emptied:
        runs[r][k] = Interval.make_empty(1.0 - share)
    real_combined = simulate.cs_combined

    def cs_combined(sample, alpha_share, mode, grid, rng_seed):
        # the fork carries this patch into fan_out's workers
        if rng_seed in empty_seeds:
            return Interval.make_empty(1.0 - alpha_share)
        return real_combined(sample, alpha_share, mode, grid, rng_seed)

    with mock.patch.object(simulate, "cs_combined", cs_combined), mock.patch.object(_fanout, "_cpus", lambda: workers):
        report = mc_table1(reps=reps, seed=seed, n_values=(n,), grid_nodes=nodes)

    for k, row in enumerate(report.intervals):
        column = [run[k] for run in runs]
        kept = [iv for iv in column if not iv.empty]
        assert reps - row.n_empty == len(kept)
        # averages over the kept replications, coverage over all of them
        assert row.avg_lower == pytest.approx(np.mean([iv.lower for iv in kept]), rel=1e-12)
        assert row.avg_upper == pytest.approx(np.mean([iv.upper for iv in kept]), rel=1e-12)
        assert row.avg_length == pytest.approx(np.mean([iv.length for iv in kept]), rel=1e-12)
        assert row.coverage == sum(iv.contains(theta[k]) for iv in column) / reps
    assert [row.n_empty for row in report.intervals] == [2, 0, 1]
    joint = [all(iv.contains(t) for iv, t in zip(run, theta)) for run in runs]
    assert report.joint_coverage == {n: sum(joint) / reps}
    assert report.skipped["empty_sets_n200"] == 3
    # table 1's ii averages over the complete boxes alone: replications 0 and 3
    query = WelfareQuery(delta=np.asarray(TABLE1_DELTA), y_star=np.asarray(TABLE1_YSTAR))
    wl_ii = [bounds_box(ConstraintSet(tuple(runs[r])), query).wl_max for r in (0, 3)]
    by_label = {w.label: w.value for w in report.welfare}
    assert by_label["ii"] == pytest.approx(np.mean(wl_ii), rel=1e-12)
    assert by_label["ii_covers_true"] == np.mean([w >= report.true_welfare_loss for w in wl_ii])
