"""Confidence sets for theta by test inversion, intersection, and diagnostics.

The rank-dependence statistic of the residual price - theta/quantity against
the instrument is evaluated on a grid of theta values; the nodes where
sqrt(n) times the statistic stays below its critical value form the
acceptance region, and the reported interval is its hull (minimum to
maximum accepted node).  The full profile is kept for diagnostics, including
a segment count that flags disconnected acceptance regions.

The grid nodes are independent: `profile_stats` splits them into one
contiguous block per CPU the process may use and evaluates the blocks in
threads, each block chunk by chunk in buffers it allocates once.  A node
sorts packed keys: the residual with its low b = n.bit_length() mantissa
bits replaced by the observation's instrument rank, so one float sort
yields the rank sequence without an argsort and two gathers.  Residuals
are finite and never -0.0 (price > 0, and x - x is +0), so keys whose
high parts (key >> b) differ sort in their residuals' order.  A node where
two adjacent sorted keys share a high part (an exact tie, or residuals a
few ulps apart) is redone alone on the exact path: argsort of the
residuals, and exact ties broken as `xi` breaks them, by uniforms seeded
from the spawn path (seed, node index) and then by observation index.  A
sample with a repeated (price, quantity) row ties at every node and goes
to the exact path whole.  Every profile value therefore equals `xi` at
that node, whatever the chunking, the number of threads or the order in
which nodes are evaluated.

Intersection with the delta-method interval follows the usual error-budget
split: each piece runs at half the per-good share, and the grid is laid over
the bounded least-squares interval (clipped below at the positivity floor),
which also supplies the parameter space that pure grid search lacks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, InvalidLevel, InvalidSample
from .regress import GoodSample, Interval, fit_inverse_demand, theta_interval_delta
from .welfare import POSITIVITY_FLOOR
from .xicor import PairedSample, critical_value, response_rank_scale, tie_uniforms, xi

# Default cap of the xi-only search space when no least-squares interval
# bounds it; a config value, not a structural constant.
DEFAULT_GRID_HI = 6.0

CASE_BOUNDED = "BOUNDED_AB"
CASE_UNBOUNDED_ABOVE = "UNBOUNDED_ABOVE"
CASE_CONTAINS_ZERO = "CONTAINS_ZERO"
CASE_WHOLE_SPACE = "WHOLE_SPACE"

_CHUNK = 128


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced grid of candidate theta values on [lo, hi]."""

    lo: float
    hi: float
    nodes: int

    def __post_init__(self):
        if self.nodes < 2:
            raise InvalidGrid(f"need at least 2 nodes, got {self.nodes}")
        if self.lo < 0:
            raise InvalidGrid(f"grid lower bound must be nonnegative, got {self.lo}")
        if not self.hi > self.lo:
            raise InvalidGrid(
                f"grid upper bound {self.hi} must exceed lower bound {self.lo}"
            )

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nodes)


@dataclass(frozen=True)
class XiProfile:
    """Normalized statistic at every grid node plus the critical value."""

    thetas: np.ndarray
    stats: np.ndarray
    critical: float

    def accepted(self) -> np.ndarray:
        return self.stats <= self.critical

    @property
    def n_segments(self) -> int:
        """Number of contiguous accepted runs; > 1 flags a disconnected region."""
        acc = self.accepted()
        if not acc.any():
            return 0
        starts = acc & ~np.concatenate(([False], acc[:-1]))
        return int(starts.sum())


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
    critical: float
    case_id: str


def child_seed(seed: int, *path: int) -> int:
    """Deterministic integer seed derived from a spawn path."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return int(ss.generate_state(1)[0])


def _effective_instrument(sample: GoodSample) -> np.ndarray:
    # Exogenous-price designs pass price as its own instrument.
    return sample.instrument if sample.instrument is not None else sample.price


def _order_tied_runs(
    order: np.ndarray, same: np.ndarray, nodes: np.ndarray, rng_seed: int
) -> np.ndarray:
    """Rows of `order` with each run of equal residuals put in `xi`'s tie order.

    order[r] sorts node nodes[r]'s residuals, so equal residuals sit in
    contiguous runs; same[r, j] says the residuals at sorted positions j and
    j + 1 are equal.  Within a run, observations are ordered by the
    node's tie_uniforms (seed child_seed(rng_seed, node)), then by index.
    All rows go through one flat lexsort keyed by (run, uniform, index).
    """
    m, n = order.shape
    u = np.empty((m, n))
    for r, node in enumerate(nodes):
        u[r] = tie_uniforms(child_seed(rng_seed, int(node)), n)
    in_run = np.zeros((m, n), dtype=bool)
    in_run[:, 1:] = same
    in_run[:, :-1] |= same
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = ~same
    row, pos = np.nonzero(in_run)
    index = order[row, pos]
    # Runs are numbered in slot order, so the sorted entries fill the same
    # slots run by run.
    run = np.cumsum(starts[row, pos])
    out = order.copy()
    out[row, pos] = index[np.lexsort((index, u[row, index], run))]
    return out


def _repeats_a_row(price: np.ndarray, quantity: np.ndarray) -> bool:
    """Whether two observations share (price, quantity), so their residuals tie at every node."""
    order = np.lexsort((quantity, price))
    p, q = price[order], quantity[order]
    return bool(np.any((p[1:] == p[:-1]) & (q[1:] == q[:-1])))


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _residuals(price: np.ndarray, inv_y: np.ndarray, thetas: np.ndarray, out: np.ndarray) -> None:
    """out[r] = price - thetas[r] * inv_y, the same two roundings as a direct evaluation."""
    np.multiply(thetas[:, None], inv_y[None, :], out=out)
    np.subtract(price[None, :], out, out=out)


def _jump_sums(seq: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """Sum of |seq[:, j + 1] - seq[:, j]| along each row, through `jumps`."""
    np.subtract(seq[:, 1:], seq[:, :-1], out=jumps)
    np.abs(jumps, out=jumps)
    return jumps.sum(axis=1)


def _exact_jump_sums(
    buffers: list, ranks: np.ndarray, row_offset: np.ndarray, nodes: np.ndarray, rng_seed: int
) -> np.ndarray:
    """Rank-jump sums of the residual rows buffers[0], ties broken as `xi` breaks them.

    buffers holds, with one row per node: the residuals, then the sorted
    residuals, gather offsets (intp) and ranks in sorted order (ranks'
    dtype) of the same shape, and an adjacent-equal mask and rank jumps
    one column narrower.  Row r is grid node nodes[r]; row_offset[r] = r * n.
    """
    fm, sorted_fm, taken, seq, same, jumps = buffers
    # Unstable sort is fine: every sort kind puts equal residuals in one
    # contiguous run, and the runs are reordered below.
    order = np.argsort(fm, axis=1)
    # Indices are in range; mode "raise" would copy through a temporary.
    np.add(order, row_offset, out=taken)
    np.take(fm.ravel(), taken, out=sorted_fm, mode="wrap")
    np.equal(sorted_fm[:, 1:], sorted_fm[:, :-1], out=same)
    tied = np.nonzero(same.any(axis=1))[0]
    if tied.size:
        order[tied] = _order_tied_runs(order[tied], same[tied], nodes[tied], rng_seed)
    np.take(ranks, order, out=seq, mode="wrap")
    return _jump_sums(seq, jumps)


def _fill_block(
    stats: np.ndarray,
    start: int,
    stop: int,
    price: np.ndarray,
    inv_y: np.ndarray,
    thetas: np.ndarray,
    ranks: np.ndarray,
    scale: float,
    rng_seed: int,
    packed: bool,
) -> None:
    """Fill stats[start:stop] chunk by chunk, in buffers allocated once.

    With `packed`, the low b = n.bit_length() mantissa bits of each
    residual are overwritten, through an int64 view, with its instrument
    max-rank (1..n), and the rows of keys are sorted in place as floats;
    the rank sequence is read back as key & (2**b - 1).  Keys whose high
    parts (key >> b) differ keep their residuals' order, for either sign,
    and a key is never +-0 (its rank is at least 1), so a row is exact iff
    no two adjacent sorted keys share a high part.  A row where two do (an
    exact tie or residuals a few ulps apart) is redone alone: its residuals
    are recomputed into the leading rows of the same buffers and go through
    `_exact_jump_sums`.  Without `packed` every row goes that way.  The
    float order of the keys is their residuals' order only because no
    residual is -0.0: price > 0, and x - x is +0.

    Runs in a worker thread, so it writes only its own slice of `stats` and
    calls no function that perfbench's tracer wraps (its span stack is not
    thread-safe).
    """
    n = price.shape[0]
    rows = min(_CHUNK, stop - start)
    bits = n.bit_length()
    low = (1 << bits) - 1
    # residuals (then keys), sorted residuals, gather offsets (or high
    # parts), ranks in sorted order, adjacent-equal mask, rank jumps; a
    # partial last chunk and the redone rows use leading rows
    buffers = (
        np.empty((rows, n)),
        np.empty((rows, n)),
        np.empty((rows, n), dtype=np.intp),
        np.empty((rows, n), dtype=ranks.dtype),
        np.empty((rows, n - 1), dtype=bool),
        np.empty((rows, n - 1), dtype=ranks.dtype),
    )
    row_offset = np.arange(rows)[:, None] * n
    root = math.sqrt(n)
    for lo in range(start, stop, _CHUNK):
        m = min(_CHUNK, stop - lo)
        fm, _, taken, seq, same, jumps = (b[:m] for b in buffers)
        _residuals(price, inv_y, thetas[lo : lo + m], fm)
        if packed:
            keys = fm.view(np.int64)
            keys &= ~low
            keys |= ranks
            fm.sort(axis=1)
            np.right_shift(keys, bits, out=taken)
            np.equal(taken[:, 1:], taken[:, :-1], out=same)
            redo = np.nonzero(same.any(axis=1))[0]
            np.bitwise_and(keys, low, out=seq, casting="unsafe")
            stats[lo : lo + m] = root * (1.0 - _jump_sums(seq, jumps) * scale)
            if not redo.size:
                continue
            _residuals(price, inv_y, thetas[lo + redo], buffers[0][: redo.size])
        else:
            redo = np.arange(m)
        k = redo.size
        bufs = [b[:k] for b in buffers]
        sums = _exact_jump_sums(bufs, ranks, row_offset[:k], lo + redo, rng_seed)
        stats[lo + redo] = root * (1.0 - sums * scale)


def profile_stats(
    price: np.ndarray,
    quantity: np.ndarray,
    z: np.ndarray,
    thetas: np.ndarray,
    rng_seed: int,
) -> np.ndarray:
    """sqrt(n) * xi(price - theta/quantity, z) at every theta.

    price must be positive and finite, as GoodSample makes it.  Ranks are
    recomputed from scratch at each node (one sort of packed residual/rank
    keys per node, vectorized in chunks of nodes; see _fill_block).  The
    nodes are split into one contiguous block of whole chunks per CPU in
    the process's affinity mask, and the blocks run in threads (numpy
    releases the GIL in the sorts, gathers and ufuncs); a single block runs
    in the calling thread.  A node whose keys collide is redone on the
    exact path, and a sample with a repeated (price, quantity) row sends
    every node there, found once per call.  On that path exact ties in the
    residual are broken as `xi` breaks them with the seed
    child_seed(rng_seed, node index): by uniforms drawn for that node, then
    by observation index.  Only the tied runs are reordered, for all tied
    nodes of a chunk at once, so every value equals `xi` bit for bit and
    does not depend on the chunking, the blocks or the CPU count.  Raises
    InvalidSample, before any block runs, when theta / quantity overflows
    at the largest |theta|.
    """
    ranks, scale = response_rank_scale(z)
    # Ranks and rank jumps fit in 32 bits (n < 2**31), which halves the
    # traffic of the passes over them.
    ranks = ranks.astype(np.int32)
    inv_y = 1.0 / quantity
    theta_top = float(np.abs(thetas).max(initial=0.0))
    if not math.isfinite(theta_top * float(inv_y.max())):
        raise InvalidSample(
            f"a quantity is so small that theta / quantity overflows at theta {theta_top:g}"
        )
    total = thetas.shape[0]
    stats = np.empty(total)
    chunks = max(1, -(-total // _CHUNK))
    per_block = -(-chunks // min(_cpu_count(), chunks)) * _CHUNK
    blocks = [(lo, min(lo + per_block, total)) for lo in range(0, total, per_block)]
    # A repeated row sends every node to the exact path; skip the packed sort.
    packed = not _repeats_a_row(price, quantity)
    args = (price, inv_y, thetas, ranks, scale, rng_seed, packed)
    if len(blocks) < 2:
        for lo, hi in blocks:
            _fill_block(stats, lo, hi, *args)
        return stats
    # Imported here, not at the top: concurrent.futures adds ~7 % to the
    # package's import time, which a command that runs no grid would pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        futures = [pool.submit(_fill_block, stats, lo, hi, *args) for lo, hi in blocks]
        for future in futures:
            future.result()
    return stats


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
    z = _effective_instrument(sample)
    thetas = grid.values()
    stats = profile_stats(sample.price, sample.quantity, z, thetas, rng_seed)
    profile = XiProfile(thetas=thetas, stats=stats, critical=c)
    acc = profile.accepted()
    level = 1.0 - alpha
    if not acc.any():
        return Interval.make_empty(level, "XI"), profile
    accepted_thetas = thetas[acc]
    interval = Interval(
        lower=float(accepted_thetas.min()),
        upper=float(accepted_thetas.max()),
        level=level,
        source="XI",
    )
    return interval, profile


def intersect(a: Interval, b: Interval) -> Interval:
    """Intersection with union-bound level bookkeeping; empty is a valid result."""
    level = max(0.0, 1.0 - (1.0 - a.level) - (1.0 - b.level))
    if a.empty or b.empty:
        return Interval.make_empty(level, "INTERSECT")
    lower = max(a.lower, b.lower)
    upper = min(a.upper, b.upper)
    if lower > upper:
        return Interval.make_empty(level, "INTERSECT")
    return Interval(lower=lower, upper=upper, level=level, source="INTERSECT")


def bonferroni_share(alpha: float, K: int) -> float:
    """Error budget per good (alpha/K); cs_combined halves it again for an intersection."""
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must lie strictly in (0, 1), got {alpha}")
    if K < 1:
        raise ValueError(f"need at least one good, got K={K}")
    return alpha / K


def cs_combined(
    sample: GoodSample,
    alpha_share: float,
    mode: str,
    grid: GridSpec,
    rng_seed: int = 0,
    floor: float = POSITIVITY_FLOOR,
    ls_mode: str = "auto",
) -> tuple[Interval, XiProfile | None]:
    """One good's interval at per-good error share alpha_share, and its profile.

    mode "xi":        grid inversion over `grid` at 1 - alpha_share; the
                      profile is returned with the interval.
    mode "ls":        delta-method interval at 1 - alpha_share (ls_mode as in
                      fit_inverse_demand); `grid` is unused.
    mode "intersect": both pieces at 1 - alpha_share/2, `grid.nodes` nodes
                      laid over the least-squares interval clipped below at
                      `floor`, then intersected.
    The profile is None outside xi mode.  An empty outcome is an empty
    interval at level 1 - alpha_share.
    """
    if not 0.0 < alpha_share < 1.0:
        raise InvalidLevel(
            f"alpha share must lie strictly in (0, 1), got {alpha_share}"
        )
    kind = mode.lower()
    if kind == "xi":
        return cs_xi(sample, alpha_share, grid, rng_seed)
    if kind not in ("ls", "intersect"):
        raise ValueError(f"mode must be xi, ls, or intersect, got {mode!r}")
    fit = fit_inverse_demand(sample, ls_mode)
    if kind == "ls":
        return theta_interval_delta(fit, 1.0 - alpha_share), None

    half = alpha_share / 2.0
    ls = theta_interval_delta(fit, 1.0 - half)
    lo = max(ls.lower, floor)
    hi = ls.upper
    if hi < lo:
        # the least-squares interval sits below the positivity floor
        return Interval.make_empty(1.0 - alpha_share, "INTERSECT"), None
    if hi - lo < 1e-12:
        # Degenerate least-squares interval: check the single point.
        z = _effective_instrument(sample)
        stat = profile_stats(
            sample.price, sample.quantity, z, np.array([lo]), rng_seed
        )[0]
        if stat > critical_value(half):
            return Interval.make_empty(1.0 - alpha_share, "INTERSECT"), None
        xi_part = Interval(lo, lo, 1.0 - half, "XI")
    else:
        xi_part, _ = cs_xi(sample, half, GridSpec(lo, hi, grid.nodes), rng_seed)
    return intersect(xi_part, ls), None


def shape_diagnostic(sample: GoodSample, alpha: float, rng_seed: int) -> ShapeDiagnostic:
    """Classify the inverted set's shape from its two endpoint statistics.

    A large price statistic pushes the lower bound up; a large quantity
    statistic pulls the upper bound down.  Both small means the data cannot
    rule out any theta at this level.
    """
    c = critical_value(alpha)
    z = _effective_instrument(sample)
    root_n = math.sqrt(sample.n)
    s0 = root_n * xi(PairedSample(sample.price, z), child_seed(rng_seed, 0))
    s1 = root_n * xi(PairedSample(sample.quantity, z), child_seed(rng_seed, 1))
    if s0 > c and s1 > c:
        case = CASE_BOUNDED
    elif s0 > c:
        case = CASE_UNBOUNDED_ABOVE
    elif s1 > c:
        case = CASE_CONTAINS_ZERO
    else:
        case = CASE_WHOLE_SPACE
    return ShapeDiagnostic(stat_at_zero=s0, stat_at_inf=s1, critical=c, case_id=case)


def smooth_instrument(z, half_width: float, rng_seed: int) -> np.ndarray:
    """Add seeded Uniform[-half_width, half_width] noise to a discrete instrument.

    Restores the continuity the inversion theory needs; independent noise
    keeps the instrument valid.
    """
    z = np.asarray(z, dtype=float)
    if half_width < 0:
        raise ValueError(f"half width must be nonnegative, got {half_width}")
    if half_width == 0:
        return z.copy()
    rng = np.random.default_rng(rng_seed)
    return z + rng.uniform(-half_width, half_width, z.shape[0])
