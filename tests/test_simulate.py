import numpy as np
import pytest
from numpy.testing import assert_allclose

from welfarebounds.simulate import (
    DgpConfig,
    child_seed,
    draw_sample,
    mc_table1,
    mc_table2,
    substream,
)


def test_config_validation():
    with pytest.raises(ValueError):
        DgpConfig(theta=np.array([0.0, 0.5]), n=100, seed=1)
    with pytest.raises(ValueError):
        DgpConfig(theta=np.array([1.5]), n=100, seed=1)
    with pytest.raises(ValueError):
        DgpConfig(theta=np.array([0.5]), n=0, seed=1)


def test_first_order_condition_identity():
    cfg = DgpConfig(theta=np.array([0.2, 0.3, 0.5]), n=2000, seed=5)
    samples, shocks = draw_sample(cfg, rep=3, return_latent=True)
    for k, (s, w) in enumerate(zip(samples, shocks)):
        residual = s.price - cfg.theta[k] / s.quantity
        assert_allclose(residual, w, atol=1e-12)
        assert np.all(s.quantity > 0)
        assert np.all((s.price > 1) & (s.price < 2))
        assert np.array_equal(s.instrument, s.price)


def test_inverse_quantity_moment():
    cfg = DgpConfig(theta=np.array([0.2]), n=100_000, seed=9)
    s = draw_sample(cfg)[0]
    # 1/quantity = 5*(price - shock); E[price] - E[shock] = 1.0
    assert np.mean(1.0 / s.quantity) == pytest.approx(5.0, abs=0.03)


def test_endogenous_variant():
    cfg = DgpConfig(theta=np.array([0.4]), n=20_000, seed=2, endogeneity=0.5)
    samples, shocks = draw_sample(cfg, return_latent=True)
    s, w = samples[0], shocks[0]
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
