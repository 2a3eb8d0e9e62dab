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
sorts packed keys: the residual with its low mantissa bits replaced by a
label, the observation's instrument rank, so one float sort yields the
rank sequence without an argsort and two gathers.  Residuals are finite
and never -0.0 (price > 0, and x - x is +0), so keys whose high parts
differ sort in their residuals' order.  Repeated (price, quantity) rows,
common in scanner data, tie at every node: they are found once per call,
each group of them enters the sort as one key with its own label, and at
each node its members are put in the tie order of `xicor.jump_sum`, by
uniforms seeded from the spawn path (seed, node index) and then by
observation index.  A node where two adjacent sorted keys share a high part
(a tie between different rows, or residuals a few ulps apart) is redone
alone by `xicor.jump_sum` itself, which owns that tie order and which
`xi` calls.  Every profile value therefore equals `xi` at that node,
whatever the chunking, the number of threads or the order in which nodes
are evaluated.

Intersection with the delta-method interval follows the usual error-budget
split: each piece runs at half the per-good share, and the grid is laid over
the bounded least-squares interval (clipped below at POSITIVITY_FLOOR),
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
from .xicor import PairedSample, critical_value, jump_sum, response_rank_scale, xi

# Default cap of the xi-only search space when no least-squares interval
# bounds it; a config value, not a structural constant.
DEFAULT_GRID_HI = 6.0

CASE_BOUNDED = "BOUNDED_AB"
CASE_UNBOUNDED_ABOVE = "UNBOUNDED_ABOVE"
CASE_CONTAINS_ZERO = "CONTAINS_ZERO"
CASE_WHOLE_SPACE = "WHOLE_SPACE"

_CHUNK = 128

# numpy.random.SeedSequence's hash constants, and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced grid of candidate theta values on [lo, hi]."""

    lo: float
    hi: float
    nodes: int

    def __post_init__(self):
        if not isinstance(self.nodes, (int, np.integer)):
            raise InvalidGrid(f"the node count must be an integer, got {self.nodes!r}")
        if self.nodes < 2:
            raise InvalidGrid(f"need at least 2 nodes, got {self.nodes}")
        if self.lo < 0:
            raise InvalidGrid(f"grid lower bound must be nonnegative, got {self.lo}")
        if not self.hi > self.lo:
            raise InvalidGrid(
                f"grid upper bound {self.hi} must exceed lower bound {self.lo}"
            )
        if not math.isfinite(self.hi):
            raise InvalidGrid(f"grid upper bound must be finite, got {self.hi}")

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


def _seed_state(entropy: list, n_words: int) -> list:
    """numpy.random.SeedSequence(entropy).generate_state(n_words), for many sequences at once.

    entropy lists the uint32 entropy words, each an array with one entry
    per sequence; returns n_words such arrays.  This is SeedSequence's
    hash (pool of 4 words, O'Neill's seed_seq_fe) in uint32 array
    arithmetic, which wraps as the original does.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(n_words):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _tie_uniform_rows(rng_seed: int, nodes, columns: np.ndarray, n: int) -> np.ndarray:
    """Row r is xicor.tie_uniforms(child_seed(rng_seed, nodes[r]), n)[columns], bit for bit.

    Both seed hashes run for all nodes at once (_seed_state), where a call
    of child_seed and default_rng per node would build two SeedSequences;
    one PCG64 then takes, node by node, the state default_rng(child seed)
    would give it, and draws the node's n uniforms.
    """
    # the seed's 32-bit words, low first, padded to the pool size as
    # SeedSequence pads them before a spawn key
    seed = int(rng_seed)
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    entropy = [np.full(len(nodes), w, dtype=np.uint32) for w in words]
    (child,) = _seed_state(entropy + [np.asarray(nodes, dtype=np.uint32)], 1)
    # default_rng(child) seeds PCG64 with 4 little-endian uint64 words: the
    # initial state (high, low) and the stream (high, low)
    w = [x.astype(np.uint64) for x in _seed_state([child], 8)]
    state_hi, state_lo, seq_hi, seq_lo = (
        (w[2 * k] | w[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)
    )
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    draw, out = np.empty(n), np.empty((len(nodes), columns.size))
    for r in range(len(nodes)):
        inc = ((seq_hi[r] << 64 | seq_lo[r]) << 1 | 1) & _MASK128
        state = ((inc + (state_hi[r] << 64 | state_lo[r])) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        gen.random(out=draw)
        out[r] = draw[columns]
    return out


def _effective_instrument(sample: GoodSample) -> np.ndarray:
    # Exogenous-price designs pass price as its own instrument.
    return sample.instrument if sample.instrument is not None else sample.price


@dataclass(frozen=True)
class _RowGroups:
    """Observations grouped by their (price, quantity) row, whose residuals tie at every node.

    rep lists one observation per group, the groups of two or more rows
    (the repeated ones) first; labels[g] is group g's label in the packed
    keys: n + 1 + g for the repeated groups, the instrument rank (1..n) of
    a lone row.  members lists the repeated groups' observations group by
    group, each group in index order, and member_ranks their instrument
    ranks; block[j] is the group of members[j] (as a float, the real part
    of the tie-order key), first[g] and last[g] are the slots of group g's
    first and last member, and inner[j] says slots j and j + 1 hold one
    group.
    """

    rep: np.ndarray
    labels: np.ndarray
    members: np.ndarray
    member_ranks: np.ndarray
    block: np.ndarray
    first: np.ndarray
    last: np.ndarray
    inner: np.ndarray


def _row_groups(price: np.ndarray, quantity: np.ndarray, ranks: np.ndarray) -> _RowGroups | None:
    """The sample's repeated (price, quantity) rows as _RowGroups, or None when every row is distinct."""
    order = np.lexsort((quantity, price))
    p, q = price[order], quantity[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (p[1:] != p[:-1]) | (q[1:] != q[:-1])
    if starts.all():
        return None
    group = np.cumsum(starts) - 1
    size = np.bincount(group)
    repeated = size > 1
    # lexsort is stable, so each group's observations are in index order
    members = order[repeated[group]]
    heads = order[starts]
    sizes = size[repeated]
    last = np.cumsum(sizes) - 1
    block = np.repeat(np.arange(sizes.size), sizes)
    labels = np.concatenate([order.size + 1 + np.arange(sizes.size), ranks[heads[~repeated]]])
    return _RowGroups(
        rep=np.concatenate([heads[repeated], heads[~repeated]]),
        labels=labels.astype(ranks.dtype),
        members=members,
        member_ranks=ranks[members],
        block=block.astype(float),
        first=last - sizes + 1,
        last=last,
        inner=block[1:] == block[:-1],
    )


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


def _grouped_jump_sums(
    seq: np.ndarray, jumps: np.ndarray, groups: _RowGroups, nodes: range, rng_seed: int, n: int
) -> np.ndarray:
    """Rank-jump sums of the nodes whose group labels sort in the order `seq`.

    seq[r] lists node nodes[r]'s group labels (see _RowGroups) in residual
    order, no two groups tied there; jumps is one column narrower.  A
    repeated group's members tie at every node and take `xi`'s tie order:
    by the node's tie_uniforms (seed child_seed(rng_seed, node)), then by
    index.  The sum is the jumps inside each repeated group plus the jumps
    from each group's last member to the next group's first.  Overwrites
    seq and jumps.
    """
    m, width = seq.shape
    key = np.empty((m, groups.members.size), dtype=complex)
    key.real = groups.block
    key.imag = _tie_uniform_rows(rng_seed, nodes, groups.members, n)
    # Complex values sort by real part (the group), then imaginary part (the
    # uniform); a stable sort keeps equal uniforms in index order.
    tied = groups.member_ranks[np.argsort(key, axis=1, kind="stable")]
    inner = np.abs(np.diff(tied, axis=1))[:, groups.inner].sum(axis=1)
    flat_seq, flat_jumps = seq.ravel(), jumps.ravel()
    at = np.flatnonzero(seq > n)
    row = at // width
    g = flat_seq[at] - (n + 1)
    first, last = tied[row, groups.first[g]], tied[row, groups.last[g]]
    flat_seq[at] = first
    np.subtract(seq[:, 1:], seq[:, :-1], out=jumps)
    # the jump out of a repeated group leaves from its last member; jump p
    # of row r is entry r * (width - 1) + p
    out = at - row * width < width - 1
    flat_jumps[(at - row)[out]] += (first - last)[out]
    np.abs(jumps, out=jumps)
    return jumps.sum(axis=1) + inner


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
    groups: _RowGroups | None,
) -> None:
    """Fill stats[start:stop] chunk by chunk, in buffers allocated once.

    A row of keys holds one residual per observation, or with `groups` one
    per group of equal (price, quantity) rows, from its representative.
    The low b mantissa bits of each residual (b = the largest label's bit
    length) are overwritten, through an int64 view, with its label: the
    instrument max-rank (1..n), or n + 1 + g for repeated group g; the rows
    of keys are sorted in place as floats, and the labels read back as
    key & (2**b - 1) are the rank sequence, which _grouped_jump_sums
    completes with the repeated groups' members.
    Keys whose high parts (key >> b) differ keep their residuals' order,
    for either sign, and a key is never +-0 (its label is at least 1), so a
    row is exact iff no two adjacent sorted keys share a high part.  A row
    where two do (a tie between different rows, or residuals a few ulps
    apart) is redone alone: its n residuals are recomputed with the same
    two roundings and go through `xicor.jump_sum`, the tie order of `xi`,
    with the node's seed child_seed(rng_seed, node).  The float order of
    the keys is their residuals' order only because no residual is -0.0:
    price > 0, and x - x is +0.

    Runs in a worker thread, so it writes only its own slice of `stats` and
    calls no function that perfbench's tracer wraps (its span stack is not
    thread-safe): the redo calls `jump_sum`, never `xi`.
    """
    n = price.shape[0]
    if groups is None:
        key_price, key_inv_y, labels = price, inv_y, ranks
    else:
        key_price, key_inv_y, labels = price[groups.rep], inv_y[groups.rep], groups.labels
    width = labels.size
    rows = min(_CHUNK, stop - start)
    bits = int(labels.max()).bit_length()
    low = (1 << bits) - 1
    # residuals (then keys), their high parts, labels in sorted order,
    # adjacent-equal mask, rank jumps; a chunk uses the leading rows
    buffers = (
        np.empty((rows, width)),
        np.empty((rows, width), dtype=np.int64),
        np.empty((rows, width), dtype=ranks.dtype),
        np.empty((rows, width - 1), dtype=bool),
        np.empty((rows, width - 1), dtype=ranks.dtype),
    )
    root = math.sqrt(n)
    for lo in range(start, stop, _CHUNK):
        m = min(_CHUNK, stop - lo)
        fm, high, seq, same, jumps = (b[:m] for b in buffers)
        _residuals(key_price, key_inv_y, thetas[lo : lo + m], fm)
        keys = fm.view(np.int64)
        keys &= ~low
        keys |= labels
        fm.sort(axis=1)
        np.right_shift(keys, bits, out=high)
        np.equal(high[:, 1:], high[:, :-1], out=same)
        redo = np.nonzero(same.any(axis=1))[0]
        np.bitwise_and(keys, low, out=seq, casting="unsafe")
        if groups is None:
            sums = _jump_sums(seq, jumps)
        else:
            sums = _grouped_jump_sums(seq, jumps, groups, range(lo, lo + m), rng_seed, n)
        stats[lo : lo + m] = root * (1.0 - sums * scale)
        for node in (lo + redo).tolist():
            residual = price - thetas[node] * inv_y
            stats[node] = root * (1.0 - jump_sum(residual, ranks, child_seed(rng_seed, node)) * scale)


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
    in the calling thread.  Repeated (price, quantity) rows are grouped
    once per call and stay on the packed sort, one key per group; at each
    node a group's members are placed in the order `xi` gives them, by
    uniforms drawn with the seed child_seed(rng_seed, node index), then by
    observation index.  A node where two different rows' keys collide is
    redone alone by `xicor.jump_sum`, the one function that owns this tie
    order and the one `xi` calls.  So every value equals `xi` bit for bit
    and does not depend on the chunking, the blocks or the CPU count.  Raises
    InvalidSample, before any block runs, when theta / quantity overflows
    at the largest |theta|.
    """
    ranks, scale = response_rank_scale(z)
    # Ranks, key labels (< 2n) and rank jumps fit in 32 bits (n < 2**30),
    # which halves the traffic of the passes over them.
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
    args = (price, inv_y, thetas, ranks, scale, rng_seed, _row_groups(price, quantity, ranks))
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
    ls_mode: str = "auto",
) -> tuple[Interval, XiProfile | None]:
    """One good's interval at per-good error share alpha_share, and its profile.

    mode "xi":        grid inversion over `grid` at 1 - alpha_share; the
                      profile is returned with the interval.
    mode "ls":        delta-method interval at 1 - alpha_share (ls_mode as in
                      fit_inverse_demand); `grid` is unused.
    mode "intersect": both pieces at 1 - alpha_share/2, `grid.nodes` nodes
                      laid over the least-squares interval clipped below at
                      POSITIVITY_FLOOR, then intersected.
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
    lo = max(ls.lower, POSITIVITY_FLOOR)
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
