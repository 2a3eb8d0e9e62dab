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

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._fanout import fan_out
from .confset import GridSpec, bonferroni_share, child_seed, cs_combined
from .errors import ConfigError
from .regress import GoodSample, Interval
from .xicor import seed_sequence
from .welfare import (
    POSITIVITY_FLOOR,
    ConstraintSet,
    WelfareQuery,
    _total,
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
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))


@dataclass(frozen=True)
class DgpConfig:
    """Random quasilinear demand generator.

    Prices are U[1,2] and shocks U[0,1] (guaranteeing an interior solution),
    quantity follows theta/(price - shock), and there is no instrument
    column (the price is its own instrument, GoodSample.z) unless
    `endogeneity` is set, in which case price mixes in the shock with that
    weight and an exogenous U[1,1.5] driver serves as the instrument;
    price - shock is positive for every draw exactly when endogeneity >= 0.
    A negative seed is a ConfigError (xicor.seed_sequence).
    """

    theta: np.ndarray
    n: int
    seed: int
    endogeneity: float | None = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1 or theta.shape[0] < 1:
            raise ConfigError("theta must be a nonempty 1-d array", ("theta",))
        if not np.all((theta > 0) & (theta <= 1)):
            raise ConfigError("theta entries must lie in (0, 1]", ("theta",))
        if self.n < 3:
            raise ConfigError(f"need a sample size of at least 3, got {self.n}", ("n",))
        if self.endogeneity is not None and not self.endogeneity >= 0:
            raise ConfigError(f"endogeneity must be nonnegative, got {self.endogeneity}", ("endogeneity",))
        seed_sequence(self.seed)  # raises for a negative seed
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
        z = None
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

    The averages are over the reps - n_empty nonempty intervals, and NaN
    when there are none.  var_length is their lengths' sample variance, so
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
            # an average over no nonempty interval is NaN, printed as -
            averages = (f"{'-' if x != x else f'{x:.3f}':>8}" for x in (row.avg_lower, row.avg_upper, row.avg_length))
            lines.append(
                f"{row.n:>6d} {row.good_id:>8} {row.theta_true:>7.3f} "
                f"{' '.join(averages)} {row.coverage:>7.3f}"
            )
        return "\n".join(lines)

    def welfare_table(self) -> str:
        head = f"{'n':>6} {'constraint':>12} {'value':>8}"
        lines = [head]
        for row in self.welfare:
            lines.append(f"{row.n:>6d} {row.label:>12} {row.value:>8.3f}")
        return "\n".join(lines)


def _mean(values: list) -> float:
    """The values' sum, left to right, over their count; NaN for no value."""
    return _total(values) / len(values) if values else math.nan


def _interval_unit(unit) -> tuple[Interval, float]:
    """Good k's interval in replication r at sample size n, and its CPU seconds.

    Runs in a fan_out worker; the draw is left out of the seconds.
    """
    config, r, k, grid, share = unit
    sample = _draw_good(config, r, k)
    t0 = time.process_time()
    iv = cs_combined(sample, share, "xi", grid, child_seed(config.seed, _CS, r, k))
    return iv, time.process_time() - t0


def _replicate(theta, reps, seed, n_values, grid_nodes, share, true_wl, welfare) -> McReport:
    """Per-good interval summaries over `reps` draws at each sample size.

    Good k of replication r inverts the rank statistic at level 1 - share
    over a grid on [1e-6, 1] with seed (seed, _CS, r, k).  Every (n, r, k)
    is one fan_out unit.  The results of one n form a block in (r, k)
    order: a good's averages are over its nonempty intervals in
    replication order, its coverage and the joint coverage over all reps.
    The replications whose K intervals are all nonempty go, in order, to
    welfare(n, boxes), which returns that n's welfare rows and skip counts.
    Raises ConfigError when reps is below 1, and when DgpConfig rejects the
    seed or a sample size: in this process, before any worker starts.
    """
    if reps < 1:
        raise ConfigError("need at least one replication", ("reps",))
    K = theta.shape[0]
    grid = GridSpec(POSITIVITY_FLOOR, 1.0, grid_nodes)
    report = McReport(reps, [], [], {}, {}, true_welfare_loss=true_wl)
    configs = [DgpConfig(theta=theta, n=n, seed=seed) for n in n_values]
    units = [(config, r, k, grid, share) for config in configs for r in range(reps) for k in range(K)]
    results = fan_out(_interval_unit, units)
    for j, n in enumerate(n_values):
        block = results[j * reps * K : (j + 1) * reps * K]
        runs = [[iv for iv, _ in block[r * K : (r + 1) * K]] for r in range(reps)]
        boxes = [tuple(run) for run in runs if not any(iv.empty for iv in run)]
        t0 = time.process_time()
        rows, skipped = welfare(n, boxes)
        report.timings[f"ci_n{n}"] = sum(seconds for _, seconds in block)
        report.timings[f"welfare_n{n}"] = time.process_time() - t0
        for k in range(K):
            column = [run[k] for run in runs]
            kept = [iv for iv in column if not iv.empty]
            c = len(kept)
            mean_len = _mean([iv.length for iv in kept])
            var_len = (_total(iv.length**2 for iv in kept) - c * mean_len**2) / (c - 1) if c > 1 else 0.0
            report.intervals.append(
                IntervalSummary(
                    n=n,
                    good_id=f"good{k + 1}",
                    theta_true=float(theta[k]),
                    avg_lower=_mean([iv.lower for iv in kept]),
                    avg_upper=_mean([iv.upper for iv in kept]),
                    avg_length=mean_len,
                    coverage=sum(iv.contains(theta[k]) for iv in column) / reps,
                    n_empty=reps - c,
                    var_length=max(var_len, 0.0),
                )
            )
        report.welfare += rows
        report.joint_coverage[n] = sum(all(iv.contains(t) for iv, t in zip(run, theta)) for run in runs) / reps
        report.skipped.update(skipped)
        empty = sum(iv.empty for run in runs for iv in run)
        if empty:
            report.skipped[f"empty_sets_n{n}"] = empty
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
    theta = np.asarray(TABLE1_THETA)
    K = theta.shape[0]
    query = WelfareQuery(delta=np.asarray(TABLE1_DELTA), y_star=np.asarray(TABLE1_YSTAR))
    fixed_box = tuple(Interval(POSITIVITY_FLOOR, 1.0, 1.0) for _ in range(K))
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

    return _replicate(theta, reps, seed, n_values, grid_nodes, bonferroni_share(MC_ALPHA, K), true_wl, welfare)


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
    if K < 1:
        raise ConfigError(f"need at least one good, got K={K}", ("k",))
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

    return _replicate(theta, reps, seed, n_values, grid_nodes, bonferroni_share(MC_ALPHA, K), true_wl, welfare)
