"""Confidence sets for theta by test inversion, intersection, and diagnostics.

The rank-dependence statistic of the residual price - theta/quantity against
the instrument is evaluated on a grid of theta values; the nodes where
sqrt(n) times the statistic stays below its critical value form the
acceptance region, and the reported interval is its hull (minimum to
maximum accepted node).  `cs_xi` also returns the full profile; `cs_combined`
returns the interval alone.  `good_intervals` is the per-good routine of the
command line: every good's interval in each mode at its Bonferroni share,
one fan_out unit per (good, mode), each good seeded by `good_seed`.

The grid nodes are independent: `profile_stats` evaluates them in the
calling thread, chunk by chunk in buffers allocated once per grid, and
`xi_hull` evaluates chunks from both ends of the grid only until each end
reaches an accepted node.  A node sorts packed keys: the residual with its
low mantissa bits replaced by a label that names the observation, so one
float sort yields the rank sequence without an argsort.  Residuals are
finite and never -0.0 (price > 0, and x - x is +0), so keys whose high parts
differ sort in their residuals' order.  Residual ties (repeated rows, common
in scanner data, tie at every node; discrete prices and quantities tie at
some) are broken at every node by one tie order per good, the one `xi`
draws from the same seed: by the seed's `xicor.tie_uniforms`, then by
observation index.  Each node is its own test, so each needs a uniform tie
order, but not one drawn independently of the other nodes.  Exact ties sort
in that order inside the packed sort, and a run of keys that share a high
part is re-sorted by exact residual where it is out of order (see _Grid).
Every profile value therefore equals `xi` at that node with the good's seed,
whatever the chunking or the order in which nodes are evaluated.  Goods and
replications, not nodes, are what the CLI and the Monte Carlo studies spread
over processes.

Intersection with the delta-method interval follows the usual error-budget
split: each piece runs at half the per-good share, and the grid is laid over
the bounded least-squares interval (clipped below at POSITIVITY_FLOOR),
which also supplies the parameter space that pure grid search lacks.  Every
node then lies inside the least-squares interval, so the xi hull on that
grid is the intersection, at the union-bound level 1 - share.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidLevel, InvalidSample, WelfareBoundsError
from .regress import GoodSample, Interval, fit_inverse_demand, theta_interval_delta
from .welfare import POSITIVITY_FLOOR
from . import xicor
from .xicor import critical_value, response_rank_scale, seed_sequence, xi

CASE_BOUNDED = "BOUNDED_AB"
CASE_UNBOUNDED_ABOVE = "UNBOUNDED_ABOVE"
CASE_CONTAINS_ZERO = "CONTAINS_ZERO"
CASE_WHOLE_SPACE = "WHOLE_SPACE"

@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced grid of candidate theta values on [lo, hi]."""

    lo: float
    hi: float
    nodes: int

    def __post_init__(self):
        if not isinstance(self.nodes, (int, np.integer)):
            raise ConfigError(f"grid-nodes must be an integer, got {self.nodes!r}", ("grid_nodes",))
        if self.nodes < 2:
            raise ConfigError(f"grid-nodes must be at least 2, got {self.nodes}", ("grid_nodes",))
        if self.lo < 0:
            raise ConfigError(f"grid-lo must be nonnegative, got {self.lo}", ("grid_lo",))
        if not self.hi > self.lo:
            raise ConfigError(f"grid-hi ({self.hi}) must exceed grid-lo ({self.lo})", ("grid_hi", "grid_lo"))
        if not math.isfinite(self.hi):
            raise ConfigError(f"grid-hi must be finite, got {self.hi}", ("grid_hi",))

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nodes)


@dataclass(frozen=True)
class XiProfile:
    """Normalized statistic at every grid node plus the critical value."""

    thetas: np.ndarray
    stats: np.ndarray
    critical: float


@dataclass(frozen=True)
class ShapeDiagnostic:
    """Endpoint statistics that classify the shape of the inverted set.

    stat_at_zero is the normalized statistic of price against the instrument
    (the profile's value at theta = 0); stat_at_inf is the quantity version
    (its large-theta limit).  Comparing both against the critical value
    separates bounded, one-sided, and trivial confidence sets.
    """

    stat_at_zero: float
    stat_at_inf: float
    case_id: str


@dataclass(frozen=True)
class GoodInterval:
    """One (good, mode) outcome of good_intervals: profile is an xi outcome's grid
    profile, and error the library or memory error that emptied the interval."""

    good_id: str
    mode: str
    interval: Interval
    profile: XiProfile | None = None
    error: BaseException | None = None


def child_seed(seed: int, *path: int) -> int:
    """Deterministic integer seed derived from a spawn path; ConfigError for a negative seed."""
    return int(seed_sequence(seed, *path).generate_state(1)[0])


def good_seed(seed: int, index: int) -> int:
    """The tie-order seed of the good at `index` under a run's seed (spawn path 9, index)."""
    return child_seed(seed, 9, index)


def _chunk_rows(width: int) -> int:
    """Nodes per chunk of a grid whose rows of keys are `width` wide.

    A chunk's five buffers take 25 bytes per key (float key, int64 high
    part, int32 label and jump, bool mask), and its rows are sized to fit a
    2 MiB per-core L2 cache, within [1, 128]: one row where a row alone
    is larger.
    """
    return max(1, min(128, 2**21 // (25 * width)))


def _repeats_a_row(price: np.ndarray, inv_y: np.ndarray) -> bool:
    """True when two observations share (price, 1/quantity), so their residuals tie at every node."""
    order = np.lexsort((inv_y, price))
    p, u = price[order], inv_y[order]
    return bool(np.any((p[1:] == p[:-1]) & (u[1:] == u[:-1])))


def _residuals(price: np.ndarray, inv_y: np.ndarray, thetas: np.ndarray, out: np.ndarray) -> None:
    """out[r] = price - thetas[r] * inv_y, the same two roundings as a direct evaluation."""
    np.multiply(thetas[:, None], inv_y[None, :], out=out)
    np.subtract(price[None, :], out, out=out)


def _jump_sums(seq: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """Sum of |seq[:, j + 1] - seq[:, j]| along each row, through `jumps`."""
    np.subtract(seq[:, 1:], seq[:, :-1], out=jumps)
    np.abs(jumps, out=jumps)
    return jumps.sum(axis=1)


class _Grid:
    """One grid's packed-key evaluation: the sample in label order, its tie
    order and the chunk buffers, made once; fill() evaluates a range of nodes.

    Every node breaks residual ties by the good's one tie order, drawn here:
    an observation's tie rank is its position (1..n) when sorted by
    xicor.tie_uniforms(rng_seed, n), then by index, as in `xi`.  Each
    observation has a label (1..n) that names it: its instrument max-rank
    when those are unique and no two rows tie at every node, else its tie
    rank.  The sample is stored in label order, so label L is entry L - 1.

    A row of keys holds one residual per observation.  The low b mantissa
    bits of each residual (b = n's bit length) are overwritten, through an
    int64 view, with its label; under tie-rank labels a negative residual
    takes the complement 2**b - 1 - label, so exact ties sort by tie rank
    for either sign.  The rows of keys are sorted in place as floats.  Keys
    whose high parts (key >> b) differ keep their residuals' order, for
    either sign, and no key is +0.0 (a positive key's label is at least 1),
    so only runs of adjacent keys that share a high part can be out of
    order: residuals a few ulps apart, or, under rank labels, exact ties.
    _order_runs puts those runs in (residual, tie rank) order.  The labels
    read back from the low bits, mapped to instrument ranks, are the rank
    sequence.  The float order of the keys is their residuals' order only
    because no residual is -0.0: price > 0, and x - x is +0.

    Before any node is evaluated, raises InvalidSample when theta / quantity
    overflows at the largest |theta|; drawing the tie order rejects a seed
    as `xi` does.
    """

    def __init__(self, price, quantity, z, thetas, rng_seed):
        ranks, self.scale = response_rank_scale(z)
        n = price.shape[0]
        by_tie = np.argsort(xicor.tie_uniforms(rng_seed, n), kind="stable")
        # Ranks, labels and rank jumps fit in 32 bits (n < 2**30), which
        # halves the traffic of the passes over them.
        ranks = ranks.astype(np.int32)
        tie = np.empty(n, dtype=np.int32)
        tie[by_tie] = np.arange(1, n + 1, dtype=np.int32)
        inv_y = 1.0 / quantity
        theta_top = float(np.abs(thetas).max(initial=0.0))
        if not math.isfinite(theta_top * float(inv_y.max())):
            raise InvalidSample(
                f"a quantity is so small that theta / quantity overflows at theta {theta_top:g}"
            )
        tied = np.bincount(ranks).max() > 1 or _repeats_a_row(price, inv_y)
        members = by_tie if tied else np.argsort(ranks)
        self.price, self.inv_y, self.tie = price[members], inv_y[members], tie[members]
        # rank_of[L] is label L's instrument rank; None when labels are ranks
        self.rank_of = np.concatenate(([0], ranks[members])).astype(np.int32) if tied else None
        self.labels = np.arange(1, n + 1, dtype=np.int32)
        self.thetas = thetas
        self.bits = n.bit_length()
        self.stats = np.empty(thetas.shape[0])
        self.rows = _chunk_rows(n)
        rows = min(self.rows, thetas.shape[0])
        # residuals (then keys), their high parts, labels in sorted order,
        # adjacent-equal mask, rank jumps; a chunk uses the leading rows
        self.buffers = (
            np.empty((rows, n)),
            np.empty((rows, n), dtype=np.int64),
            np.empty((rows, n), dtype=np.int32),
            np.empty((rows, n - 1), dtype=bool),
            np.empty((rows, n - 1), dtype=np.int32),
        )

    def fill(self, start: int, stop: int) -> None:
        """Fill stats[start:stop], chunk by chunk in the grid's buffers."""
        thetas, bits, rank_of = self.thetas, self.bits, self.rank_of
        low = (1 << bits) - 1
        root = math.sqrt(self.price.shape[0])
        for lo in range(start, stop, self.rows):
            m = min(self.rows, stop - lo)
            fm, high, seq, same, jumps = (b[:m] for b in self.buffers)
            _residuals(self.price, self.inv_y, thetas[lo : lo + m], fm)
            keys = fm.view(np.int64)
            keys &= ~low
            if rank_of is None:
                keys |= self.labels
            else:
                # label ^ low, the complement, where the sign bit is set
                np.right_shift(keys, 63, out=high)
                high &= low
                high ^= self.labels
                keys |= high
            fm.sort(axis=1)
            if rank_of is None:
                np.bitwise_and(keys, low, out=seq, casting="unsafe")
            else:
                np.right_shift(keys, 63, out=high)
                high ^= keys
                np.bitwise_and(high, low, out=seq, casting="unsafe")
            np.right_shift(keys, bits, out=high)
            np.equal(high[:, 1:], high[:, :-1], out=same)
            collided = np.flatnonzero(same.any(axis=1))
            if collided.size:
                self._order_runs(seq, same, collided, thetas[lo : lo + m])
            sums = _jump_sums(seq if rank_of is None else rank_of[seq], jumps)
            self.stats[lo : lo + m] = root * (1.0 - sums * self.scale)

    def _order_runs(self, seq, same, rows, thetas) -> None:
        """Put the labels in seq in (residual, tie rank) order where their keys collided.

        seq[r] lists node thetas[r]'s labels in key order, same[r, p] says
        keys p and p + 1 share a high part, and rows lists the rows where
        some pair does.  Each such pair is tested with its residuals
        recomputed by the grid's two roundings, and every run of keys that
        share a high part and hold a pair out of order is re-sorted.
        """
        width = seq.shape[1]
        flat = seq.reshape(-1)
        r, p = np.nonzero(same[rows])
        r = rows[r]
        left = r * width + p
        # pairs i - 1 and i are in one run when they share a key
        run = np.cumsum(np.concatenate(([True], left[1:] != left[:-1] + 1)))
        a, b = flat[left] - 1, flat[left + 1] - 1
        ra = self.price[a] - thetas[r] * self.inv_y[a]
        rb = self.price[b] - thetas[r] * self.inv_y[b]
        wrong = (ra > rb) | ((ra == rb) & (self.tie[a] > self.tie[b]))
        if not wrong.any():
            return
        bad = np.zeros(run[-1] + 1, dtype=bool)
        bad[run[wrong]] = True
        keep = bad[run]
        left, run, a, b, ra, rb = (v[keep] for v in (left, run, a, b, ra, rb))
        # a run's members: the left key of each pair, and the right key of its last
        last = np.concatenate((run[1:] != run[:-1], [True]))
        label = np.concatenate((a, b[last]))
        order = np.lexsort((self.tie[label], np.concatenate((ra, rb[last])), np.concatenate((run, run[last]))))
        flat[np.sort(np.concatenate((left, left[last] + 1)))] = label[order] + 1


def profile_stats(
    price: np.ndarray,
    quantity: np.ndarray,
    z: np.ndarray,
    thetas: np.ndarray,
    rng_seed: int,
) -> np.ndarray:
    """sqrt(n) * xi(price - theta/quantity, z) at every theta.

    price must be positive and finite, as GoodSample makes it.  Ranks are
    recomputed from scratch at each node: one sort of packed residual/label
    keys per node, vectorized in chunks of nodes in the calling thread (see
    _Grid and _chunk_rows).  Residual ties are broken at every node by the
    good's one tie order, the seed's xicor.tie_uniforms and then the
    observation index, as `xi` breaks them.  So value j equals
    sqrt(n) * xi(price - thetas[j] / quantity, z; rng_seed) bit for bit and
    does not depend on the chunking or on which nodes are evaluated.
    Raises InvalidSample, before any node is evaluated, when theta /
    quantity overflows at the largest |theta|, and rejects the seeds that
    `xi` rejects (see _Grid).
    """
    grid = _Grid(price, quantity, z, thetas, rng_seed)
    grid.fill(0, thetas.shape[0])
    return grid.stats


def _hull(thetas: np.ndarray, hits: np.ndarray, level: float) -> Interval:
    """From the first to the last accepted node, given their indices in
    ascending order; empty when no node is accepted."""
    if not hits.size:
        return Interval.make_empty(level)
    return Interval(float(thetas[hits[0]]), float(thetas[hits[-1]]), level)


def cs_xi(
    sample: GoodSample,
    alpha: float,
    grid: GridSpec,
    rng_seed: int,
) -> tuple[Interval, XiProfile]:
    """Invert the dependence statistic over the grid at level 1 - alpha.

    Returns the hull of accepted nodes plus the full profile; the interval
    is empty when no node is accepted.
    """
    c = critical_value(alpha)
    thetas = grid.values()
    stats = profile_stats(sample.price, sample.quantity, sample.z, thetas, rng_seed)
    return _hull(thetas, np.flatnonzero(stats <= c), 1.0 - alpha), XiProfile(thetas, stats, c)


def xi_hull(sample: GoodSample, alpha: float, grid: GridSpec, rng_seed: int) -> Interval:
    """cs_xi's interval, bit for bit, without the nodes inside the hull.

    The grid is evaluated one chunk at a time upward from its first node
    until a chunk holds an accepted node, then downward from its last node
    over the nodes not yet evaluated, again until one is accepted; with no
    accepted node every node is evaluated and the interval is empty.  A
    node's value does not depend on which others are evaluated, so the
    first and last accepted nodes are those of the full profile.
    """
    c = critical_value(alpha)
    thetas = grid.values()
    evaluator = _Grid(sample.price, sample.quantity, sample.z, thetas, rng_seed)
    total, step = thetas.shape[0], evaluator.rows

    def first_hits(chunks):
        # the accepted nodes of the first chunk, in the order given, that holds one
        for lo, hi in chunks:
            evaluator.fill(lo, hi)
            hits = lo + np.flatnonzero(evaluator.stats[lo:hi] <= c)
            if hits.size:
                return hits
        return np.empty(0, dtype=np.intp)

    hits = first_hits((lo, min(lo + step, total)) for lo in range(0, total, step))
    if hits.size:
        done = min(hits[0] - hits[0] % step + step, total)
        hits = np.concatenate((hits, first_hits((max(done, hi - step), hi) for hi in range(total, done, -step))))
    return _hull(thetas, hits, 1.0 - alpha)


def bonferroni_share(alpha: float, K: int) -> float:
    """Error budget per good (alpha/K); cs_combined halves it again for an intersection."""
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must lie strictly in (0, 1), got {alpha}")
    if K < 1:
        raise ConfigError(f"need at least one good, got K={K}")
    return alpha / K


def cs_combined(
    sample: GoodSample,
    alpha_share: float,
    mode: str,
    grid: GridSpec,
    rng_seed: int = 0,
) -> Interval:
    """One good's interval at per-good error share alpha_share.

    mode "xi":        grid inversion over `grid` at 1 - alpha_share, as
                      xi_hull evaluates it (cs_xi's interval, bit for bit).
    mode "ls":        delta-method interval at 1 - alpha_share around
                      fit_inverse_demand's slope (2SLS on sample.z);
                      `grid` is unused.
    mode "intersect": both pieces at 1 - alpha_share/2: the xi hull over
                      `grid.nodes` nodes laid over the least-squares interval
                      clipped below at POSITIVITY_FLOOR.  The grid lies
                      inside that interval, so the hull is the intersection,
                      at level 1 - alpha_share.
    An empty outcome is an empty interval at level 1 - alpha_share.
    """
    if not 0.0 < alpha_share < 1.0:
        raise InvalidLevel(
            f"alpha share must lie strictly in (0, 1), got {alpha_share}"
        )
    if mode == "xi":
        return xi_hull(sample, alpha_share, grid, rng_seed)
    if mode not in ("ls", "intersect"):
        raise ConfigError(f"mode must be xi, ls, or intersect, got {mode!r}")
    fit = fit_inverse_demand(sample)
    if mode == "ls":
        return theta_interval_delta(fit, 1.0 - alpha_share)

    half = alpha_share / 2.0
    level = 1.0 - alpha_share
    ls = theta_interval_delta(fit, 1.0 - half)
    lo = max(ls.lower, POSITIVITY_FLOOR)
    hi = ls.upper
    if hi < lo:
        # the least-squares interval sits below the positivity floor
        return Interval.make_empty(level)
    if hi - lo < 1e-12:
        # Degenerate least-squares interval: check the single point.
        stat = profile_stats(sample.price, sample.quantity, sample.z, np.array([lo]), rng_seed)[0]
        return Interval.make_empty(level) if stat > critical_value(half) else Interval(lo, lo, level)
    # np.linspace puts the first and last nodes exactly on lo and hi, so every
    # node lies in [lo, hi], inside the least-squares interval: the xi hull is
    # the two pieces' intersection.
    return dataclasses.replace(xi_hull(sample, half, GridSpec(lo, hi, grid.nodes), rng_seed), level=level)


def _good_unit(unit) -> GoodInterval:
    """One (good, mode) of good_intervals, run in a fan_out worker."""
    sample, share, mode, grid, rng_seed = unit
    try:
        if mode == "xi":
            return GoodInterval(sample.good_id, mode, *cs_xi(sample, share, grid, rng_seed))
        return GoodInterval(sample.good_id, mode, cs_combined(sample, share, mode, grid, rng_seed))
    except (WelfareBoundsError, MemoryError) as exc:
        return GoodInterval(sample.good_id, mode, Interval.make_empty(1.0 - share), error=exc)


def good_intervals(samples: list[GoodSample], alpha: float, modes, grid: GridSpec, seed: int) -> list[GoodInterval]:
    """Each good's interval in each mode at the Bonferroni share alpha/K, as `ci` computes them.

    One GoodInterval per (good, mode), in that order; good i is seeded by
    good_seed(seed, i).  An xi outcome holds cs_xi's interval and profile,
    any other cs_combined's interval.  A library error or MemoryError is
    the outcome's error, with an empty interval at level 1 - alpha/K.  Each
    (good, mode) is one fan_out unit: the outcomes do not depend on the CPUs.
    """
    from ._fanout import fan_out

    share = bonferroni_share(alpha, len(samples))
    units = [(s, share, m, grid, good_seed(seed, i)) for i, s in enumerate(samples) for m in modes]
    return fan_out(_good_unit, units)


def shape_diagnostic(sample: GoodSample, alpha: float, rng_seed: int) -> ShapeDiagnostic:
    """Classify the inverted set's shape from its two endpoint statistics.

    Both take the good's tie order from rng_seed, as its grid does.  A large
    price statistic pushes the lower bound up; a large quantity
    statistic pulls the upper bound down.  Both small means the data cannot
    rule out any theta at this level.
    """
    c = critical_value(alpha)
    z = sample.z
    root_n = math.sqrt(sample.n)
    s0 = root_n * xi(sample.price, z, rng_seed)
    s1 = root_n * xi(sample.quantity, z, rng_seed)
    if s0 > c and s1 > c:
        case = CASE_BOUNDED
    elif s0 > c:
        case = CASE_UNBOUNDED_ABOVE
    elif s1 > c:
        case = CASE_CONTAINS_ZERO
    else:
        case = CASE_WHOLE_SPACE
    return ShapeDiagnostic(stat_at_zero=s0, stat_at_inf=s1, case_id=case)


def smooth_instrument(z, half_width: float, rng_seed: int) -> np.ndarray:
    """Add seeded Uniform[-half_width, half_width] noise to a discrete instrument.

    Restores the continuity the inversion theory needs; independent noise
    keeps the instrument valid.  A negative seed is a ConfigError, whatever
    the half width.
    """
    z = np.asarray(z, dtype=float)
    if half_width < 0:
        raise ConfigError(f"half width must be nonnegative, got {half_width}")
    rng = np.random.Generator(np.random.PCG64(seed_sequence(rng_seed)))
    if half_width == 0:
        return z.copy()
    return z + rng.uniform(-half_width, half_width, z.shape[0])
