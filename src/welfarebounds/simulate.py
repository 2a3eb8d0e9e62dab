"""Synthetic demand data and Monte Carlo studies of the inference pipeline.

All randomness flows through counter-based Philox streams keyed by a spawn
path (purpose, replication, good), so replication r of good k reads the same
numbers no matter how many other streams ran before it.  A study's
(sample size, replication, good) units therefore run on one forked worker
process per CPU in the affinity mask, each unit single-threaded, and the
parent sums their results in a fixed order: parallel and serial executions
agree bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._fanout import fan_out
from .confset import GridSpec, child_seed, xi_hull
from .regress import GoodSample, Interval
from .welfare import (
    POSITIVITY_FLOOR,
    ConstraintSet,
    WelfareQuery,
    bounds_box,
    welfare_loss,
)

# Joint error level of both studies; each good's interval gets MC_ALPHA / K.
MC_ALPHA = 0.1

# Spawn-path purpose codes.
_DRAW = 0
_QUERY = 1
_CS = 2

# Three-good study constants.
TABLE1_THETA = (0.2, 0.3, 0.5)
TABLE1_DELTA = (0.5, 0.8, 0.2)
TABLE1_YSTAR = (0.2, 0.6, 0.8)
DEFAULT_N_VALUES = (200, 1000, 5000)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for one (purpose, replication, good, ...) path."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DgpConfig:
    """Random quasilinear demand generator.

    Prices are U[1,2] and shocks U[0,1] (guaranteeing an interior solution),
    quantity follows theta/(price - shock), and the instrument is the price
    itself unless `endogeneity` is set, in which case price mixes in the
    shock with that weight and an exogenous U[1,1.5] driver serves as the
    instrument.
    """

    theta: np.ndarray
    n: int
    seed: int
    endogeneity: float | None = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1 or theta.shape[0] < 1:
            raise ValueError("theta must be a nonempty 1-d array")
        if np.any(theta <= 0) or np.any(theta > 1):
            raise ValueError("theta entries must lie in (0, 1]")
        if self.n < 1:
            raise ValueError(f"need a positive sample size, got {self.n}")
        object.__setattr__(self, "theta", theta)

    @property
    def K(self) -> int:
        return self.theta.shape[0]


def _draw_good(config: DgpConfig, rep: int, k: int) -> GoodSample:
    """Good k's draw of replication rep; price - theta/quantity equals the shock."""
    rng = substream(config.seed, _DRAW, rep, k)
    if config.endogeneity is None:
        price = rng.uniform(1.0, 2.0, config.n)
        shock = rng.uniform(0.0, 1.0, config.n)
        z = price.copy()
    else:
        z = rng.uniform(1.0, 1.5, config.n)
        shock = rng.uniform(0.0, 1.0, config.n)
        price = z + config.endogeneity * shock + rng.uniform(0.0, 0.1, config.n)
    quantity = config.theta[k] / (price - shock)
    return GoodSample(price=price, quantity=quantity, instrument=z, good_id=f"good{k + 1}")


def draw_sample(config: DgpConfig, rep: int = 0) -> list[GoodSample]:
    """One synthetic draw per good; price - theta/quantity equals the shock."""
    return [_draw_good(config, rep, k) for k in range(config.K)]


@dataclass(frozen=True)
class IntervalSummary:
    """Per-(n, good) averages over replications.

    var_length is the across-replication sample variance of the length, so
    consumers can attach Monte Carlo standard errors to the averages.
    """

    n: int
    good_id: str
    theta_true: float
    avg_lower: float
    avg_upper: float
    avg_length: float
    coverage: float
    n_empty: int = 0
    var_length: float = 0.0
    n_used: int = 0


@dataclass(frozen=True)
class WelfareSummary:
    """One welfare figure per (n, label); labels are constraint ids or bound sides."""

    n: int
    label: str
    value: float


@dataclass
class McReport:
    """Monte Carlo study output: interval and welfare averages plus timings.

    `timings` holds CPU seconds per stage (time.process_time), which other
    processes' load barely moves: ci_n<n> sums the seconds each unit spent
    in its interval, in whichever worker ran it, and welfare_n<n> is the
    parent's.  Timings are excluded from file output so identical seeds give
    byte-identical files.
    """

    reps: int
    intervals: list[IntervalSummary]
    welfare: list[WelfareSummary]
    joint_coverage: dict[int, float]
    timings: dict[str, float]
    true_welfare_loss: float | None = None
    skipped: dict[str, int] = field(default_factory=dict)

    def interval_table(self) -> str:
        head = f"{'n':>6} {'good':>8} {'theta':>7} {'lower':>8} {'upper':>8} {'length':>8} {'cover':>7}"
        lines = [head]
        for row in self.intervals:
            lines.append(
                f"{row.n:>6d} {row.good_id:>8} {row.theta_true:>7.3f} "
                f"{row.avg_lower:>8.3f} {row.avg_upper:>8.3f} "
                f"{row.avg_length:>8.3f} {row.coverage:>7.3f}"
            )
        return "\n".join(lines)

    def welfare_table(self) -> str:
        head = f"{'n':>6} {'constraint':>12} {'value':>8}"
        lines = [head]
        for row in self.welfare:
            lines.append(f"{row.n:>6d} {row.label:>12} {row.value:>8.3f}")
        return "\n".join(lines)


def _mean(values) -> float:
    return sum(values) / len(values)


def _interval_unit(unit) -> tuple[Interval, float]:
    """Good k's interval in replication r at sample size n, and its CPU seconds.

    Runs in a fan_out worker; the draw is left out of the seconds.
    """
    theta, n, seed, r, k, grid, share = unit
    sample = _draw_good(DgpConfig(theta=theta, n=n, seed=seed), r, k)
    t0 = time.process_time()
    iv = xi_hull(sample, share, grid, child_seed(seed, _CS, r, k))
    return iv, time.process_time() - t0


def _replicate(theta, reps, seed, n_values, grid_nodes, share, true_wl, welfare) -> McReport:
    """Per-good interval summaries over `reps` draws at each sample size.

    Good k of replication r inverts the rank statistic at level 1 - share
    over a grid on [1e-6, 1] with seed (seed, _CS, r, k).  Every (n, r, k)
    is one fan_out unit; the parent sums their intervals in (n, r, k)
    order.  The replications whose K intervals are all nonempty go, in
    order, to welfare(n, boxes), which returns that n's welfare rows and
    skip counts.
    """
    K = theta.shape[0]
    grid = GridSpec(POSITIVITY_FLOOR, 1.0, grid_nodes)
    report = McReport(reps, [], [], {}, {}, true_welfare_loss=true_wl)
    units = [(theta, n, seed, r, k, grid, share) for n in n_values for r in range(reps) for k in range(K)]
    results = iter(fan_out(_interval_unit, units))
    for n in n_values:
        sums = np.zeros((K, 4))
        covers = np.zeros(K)
        counts = np.zeros(K, dtype=int)
        empties = np.zeros(K, dtype=int)
        joint = 0
        boxes = []
        t_ci = 0.0
        for r in range(reps):
            ivs = []
            for k in range(K):
                iv, seconds = next(results)
                t_ci += seconds
                ivs.append(iv)
                if iv.empty:
                    empties[k] += 1
                    continue
                sums[k] += (iv.lower, iv.upper, iv.length, iv.length**2)
                covers[k] += iv.contains(theta[k])
                counts[k] += 1
            joint += all(iv.contains(theta[k]) for k, iv in enumerate(ivs))
            if not any(iv.empty for iv in ivs):
                boxes.append(tuple(ivs))
        t0 = time.process_time()
        rows, skipped = welfare(n, boxes)
        report.timings[f"ci_n{n}"] = t_ci
        report.timings[f"welfare_n{n}"] = time.process_time() - t0
        for k in range(K):
            c = max(counts[k], 1)
            mean_len = sums[k, 2] / c
            var_len = (sums[k, 3] - c * mean_len**2) / (c - 1) if c > 1 else 0.0
            report.intervals.append(
                IntervalSummary(
                    n=n,
                    good_id=f"good{k + 1}",
                    theta_true=float(theta[k]),
                    avg_lower=sums[k, 0] / c,
                    avg_upper=sums[k, 1] / c,
                    avg_length=mean_len,
                    coverage=covers[k] / reps,
                    n_empty=int(empties[k]),
                    var_length=max(var_len, 0.0),
                    n_used=int(counts[k]),
                )
            )
        report.welfare += rows
        report.joint_coverage[n] = joint / reps
        report.skipped.update(skipped)
        if empties.sum():
            report.skipped[f"empty_sets_n{n}"] = int(empties.sum())
    return report


def mc_table1(
    reps: int,
    seed: int,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    grid_nodes: int = 1000,
) -> McReport:
    """Three-good study: per-good intervals and welfare upper bounds.

    Intervals invert the rank statistic alone at per-good level 1 - MC_ALPHA/3
    over a grid of grid_nodes nodes on [POSITIVITY_FLOOR, 1].  Welfare uses
    the fixed price change (0.5, 0.8, 0.2) and consumption (0.2, 0.6, 0.8)
    under four constraints: i) intervals plus sum(theta) = 1, ii) intervals
    only, iii) the fixed box [POSITIVITY_FLOOR, 1] plus the sum, iv) the
    fixed box only (iii and iv do not depend on the data).  Replications with an empty interval or an infeasible sum
    are excluded from the affected averages and counted in `skipped`.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    theta = np.asarray(TABLE1_THETA)
    K = theta.shape[0]
    query = WelfareQuery(delta=np.asarray(TABLE1_DELTA), y_star=np.asarray(TABLE1_YSTAR))
    fixed_box = tuple(Interval(POSITIVITY_FLOOR, 1.0, 1.0, "BOX") for _ in range(K))
    wl_iv = bounds_box(ConstraintSet(fixed_box), query).wl_max
    wl_iii = bounds_box(ConstraintSet(fixed_box, sum_to=1.0), query).wl_max
    true_wl = welfare_loss(theta, query)

    def welfare(n, boxes):
        wl_ii = [bounds_box(ConstraintSet(box), query).wl_max for box in boxes]
        on_slice = [ConstraintSet(box, sum_to=1.0) for box in boxes]
        wl_i = [bounds_box(cs, query).wl_max for cs in on_slice if not cs.empty]
        rows = [WelfareSummary(n, "i", _mean(wl_i))] if wl_i else []
        if wl_ii:
            rows.append(WelfareSummary(n, "ii", _mean(wl_ii)))
        rows += [WelfareSummary(n, "iii", wl_iii), WelfareSummary(n, "iv", wl_iv)]
        if wl_ii:
            # share of replications whose interval-box maximum bounds the truth
            rows.append(WelfareSummary(n, "ii_covers_true", _mean([w >= true_wl for w in wl_ii])))
        infeasible = len(boxes) - len(wl_i)
        return rows, {f"infeasible_sum_n{n}": infeasible} if infeasible else {}

    return _replicate(theta, reps, seed, n_values, grid_nodes, MC_ALPHA / K, true_wl, welfare)


def mc_table2(
    K: int,
    reps: int,
    seed: int,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    grid_nodes: int = 1000,
) -> McReport:
    """Many-goods study: interval lengths, joint coverage, endpoint welfare bounds.

    theta values are K equally spaced points between 0.1 and 0.9; the price
    change is one U[0.1, 1.1] draw and consumption one U[0.2, 1.2] draw per
    K, held fixed across replications and sample sizes.  Welfare bounds come
    from substituting the interval endpoints; `bracketed` reports the share
    of replications whose bounds enclose the true loss.
    """
    if K < 1 or reps < 1:
        raise ValueError("need at least one good and one replication")
    theta = np.linspace(0.1, 0.9, K)
    q_rng = substream(seed, _QUERY, K)
    query = WelfareQuery(delta=q_rng.uniform(0.1, 1.1, K), y_star=q_rng.uniform(0.2, 1.2, K))
    true_wl = welfare_loss(theta, query)

    def welfare(n, boxes):
        if not boxes:
            return [], {}
        bounds = [bounds_box(ConstraintSet(box), query) for box in boxes]
        return [
            WelfareSummary(n, "upper", _mean([b.wl_max for b in bounds])),
            WelfareSummary(n, "lower", _mean([b.wl_min for b in bounds])),
            WelfareSummary(n, "bracketed", _mean([b.wl_min <= true_wl <= b.wl_max for b in bounds])),
        ], {}

    return _replicate(theta, reps, seed, n_values, grid_nodes, MC_ALPHA / K, true_wl, welfare)
