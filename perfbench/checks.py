"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports welfarebounds.  Each check recomputes a result from the
inputs by its own route (numpy least squares, scipy's xi coefficient,
closed-form welfare loss, vertex enumeration, branch-and-bound) or tests a
property the method must have.  Checks return a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math

import numpy as np
from scipy.stats import chatterjeexi, norm

REL = 1e-9  # outputs are printed with 12 significant digits
FLOOR = 1e-6  # the package's positivity floor, and its default grid_lo


def close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def read_csv(path: str) -> list:
    """Rows of an output CSV as dicts; '#' comment lines skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    return list(csv.DictReader(lines))


def comment_line(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline()


def num(cell: str) -> float:
    return math.nan if cell == "" else float(cell)


# ---------------------------------------------------------------- theta intervals


def jittered(z: np.ndarray, half_width: float, seed: int, good_index: int) -> np.ndarray:
    """The documented instrument smoothing: Uniform(-h, h) noise keyed by (seed, 8, good)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(8, good_index))
    rng = np.random.default_rng(int(ss.generate_state(1)[0]))
    return z + rng.uniform(-half_width, half_width, z.shape[0])


def critical(alpha: float) -> float:
    """Upper alpha quantile of sqrt(n) * xi under independence, N(0, 2/5)."""
    return math.sqrt(0.4) * float(norm.ppf(1.0 - alpha))


def xi_stat(price, quantity, z, theta: float) -> float:
    """sqrt(n) * xi of the instrument given the residual price - theta/quantity."""
    fm = price - theta / quantity
    continuous = np.unique(z).shape[0] == z.shape[0]
    res = chatterjeexi(fm, z, y_continuous=continuous)
    return math.sqrt(price.shape[0]) * float(res.statistic)


def has_ties_everywhere(price, quantity) -> bool:
    """Exact duplicate (price, quantity) pairs tie the residual at every theta."""
    pairs = np.stack([price, quantity], axis=1)
    return np.unique(pairs, axis=0).shape[0] < price.shape[0]


def ls_interval(price, quantity, z, level: float) -> tuple:
    """Just-identified 2SLS of 1/quantity on (1, price) with instruments (1, z).

    HC1 sandwich covariance, then the delta method for theta = 1/slope:
    theta +- q * se_slope / slope^2, clipped at zero.
    """
    n = price.shape[0]
    X = np.column_stack([np.ones(n), price])
    W = np.column_stack([np.ones(n), z])
    y = 1.0 / quantity
    WX_inv = np.linalg.inv(W.T @ X)
    beta = WX_inv @ (W.T @ y)
    e = y - X @ beta
    meat = (W * (e**2)[:, None]).T @ W
    cov = WX_inv @ meat @ WX_inv.T * n / (n - 2)
    slope = beta[1]
    theta = 1.0 / slope
    se = math.sqrt(cov[1, 1]) / slope**2
    q = float(norm.ppf(0.5 + level / 2.0))
    return max(0.0, theta - q * se), theta + q * se


def check_xi_row(good, z, row, profile_rows, share, grid, sample_idx) -> list:
    """The xi row is the hull of accepted profile nodes; profile matches scipy."""
    errs = []
    thetas = np.array([float(r["theta"]) for r in profile_rows])
    stats = np.array([float(r["stat"]) for r in profile_rows])
    gid = good.good_id
    if thetas.shape[0] != grid.shape[0] or not np.allclose(thetas, grid, rtol=REL, atol=1e-12):
        return [f"{gid}: profile grid differs from linspace(lo, hi, nodes)"]
    c = critical(share)
    acc = stats <= c
    n = good.price.shape[0]
    if np.any(stats > math.sqrt(n) + 1e-9) or np.any(stats < -math.sqrt(n) / 2 - 1e-9):
        errs.append(f"{gid}: profile statistic outside [-sqrt(n)/2, sqrt(n)]")
    if row["status"] == "EMPTY":
        if acc.any():
            errs.append(f"{gid}: xi row EMPTY but {int(acc.sum())} profile nodes accepted")
        lo_i = hi_i = None
    else:
        if not acc.any():
            return errs + [f"{gid}: xi row OK but no profile node accepted"]
        lo_i, hi_i = int(np.argmax(acc)), int(acc.shape[0] - 1 - np.argmax(acc[::-1]))
        if not (close(num(row["lower"]), thetas[lo_i]) and close(num(row["upper"]), thetas[hi_i])):
            errs.append(f"{gid}: xi row is not the hull of accepted nodes")
    if good.tied:
        # Random tie-breaking at every node: only the hull property is checkable.
        return errs
    idx = set(int(i) for i in sample_idx)
    for i in (lo_i, hi_i):
        if i is not None:
            idx.update(j for j in (i - 1, i, i + 1) if 0 <= j < grid.shape[0])
    for i in sorted(idx):
        ref = xi_stat(good.price, good.quantity, z, grid[i])
        if not close(stats[i], ref, rel=REL, abs_tol=1e-9):
            errs.append(f"{gid}: profile stat at node {i} is {stats[i]!r}, scipy gives {ref!r}")
            break
    return errs


def check_intersect_row(good, z, row, share, nodes) -> list:
    """The intersect row lies inside its LS piece and is a hull of accepted nodes.

    Both pieces run at half the per-good share; the xi grid spans the LS piece.
    For tie-free goods each endpoint is accepted and its outer grid neighbour
    rejected, by scipy's xi.
    """
    gid = good.good_id
    half = share / 2.0
    ls_lo, ls_hi = ls_interval(good.price, good.quantity, z, 1.0 - half)
    lo = max(ls_lo, FLOOR)
    if row["status"] == "EMPTY":
        return [] if ls_hi < lo or good.tied else _all_rejected(good, z, lo, ls_hi, nodes, half)
    a, b = num(row["lower"]), num(row["upper"])
    errs = []
    if not (a >= lo * (1 - REL) and b <= ls_hi * (1 + REL) and a <= b):
        errs.append(f"{gid}: intersect [{a}, {b}] not inside LS piece [{lo}, {ls_hi}]")
    grid = np.linspace(lo, ls_hi, nodes)
    c = critical(half)
    for value, outward in ((a, -1), (b, 1)):
        i = int(np.argmin(np.abs(grid - value)))
        if not close(grid[i], value, rel=1e-8):
            errs.append(f"{gid}: intersect endpoint {value} is not a grid node")
            continue
        if good.tied:
            continue
        if xi_stat(good.price, good.quantity, z, grid[i]) > c:
            errs.append(f"{gid}: intersect endpoint {value} is rejected by the xi test")
        j = i + outward
        if 0 <= j < nodes and xi_stat(good.price, good.quantity, z, grid[j]) <= c:
            errs.append(f"{gid}: node outside intersect endpoint {value} is accepted")
    return errs


def _all_rejected(good, z, lo, hi, nodes, half) -> list:
    c = critical(half)
    for t in np.linspace(lo, hi, nodes):
        if xi_stat(good.price, good.quantity, z, t) <= c:
            return [f"{good.good_id}: intersect EMPTY but theta {t} is accepted"]
    return []


# ---------------------------------------------------------------- welfare loss


def loss(theta, c) -> np.ndarray:
    """sum_k theta_k log(1 + c_k/theta_k) along the last axis; c_k = 0 adds 0."""
    theta = np.asarray(theta, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), np.broadcast_shapes(theta.shape, np.shape(c)))
    theta = np.broadcast_to(theta, c.shape)
    safe = np.where(c > 0, theta, 1.0)
    return np.where(c > 0, theta * np.log1p(c / safe), 0.0).sum(axis=-1)


def check_welfare_rows(rows, ids, box_lower, box_upper, levels, delta, ystar) -> list:
    """Box bounds: corners in closed form, rows sorted by wl_max, ranks 1..N."""
    errs = []
    if [r["rank"] for r in rows] != [str(i + 1) for i in range(len(rows))]:
        errs.append("welfare ranks are not 1..N")
    pos = {hid: i for i, hid in enumerate(ids)}
    got = [r["id"] for r in rows]
    if sorted(got) != sorted(ids):
        return errs + ["welfare rows do not cover each household exactly once"]
    order = np.array([pos[h] for h in got])
    c = delta[order] * ystar[order]
    lower = np.maximum(box_lower, FLOOR)
    ref_min = loss(lower, c)
    ref_max = loss(box_upper, c)
    wl_min = np.array([num(r["wl_min"]) for r in rows])
    wl_max = np.array([num(r["wl_max"]) for r in rows])
    level = max(0.0, 1.0 - float(np.sum(1.0 - np.asarray(levels))))
    tol = lambda ref: np.maximum(1e-12, REL * np.abs(ref))
    if np.any(np.abs(wl_min - ref_min) > tol(ref_min)):
        errs.append("box wl_min differs from the loss at the lower corner")
    if np.any(np.abs(wl_max - ref_max) > tol(ref_max)):
        errs.append("box wl_max differs from the loss at the upper corner")
    if np.any(np.diff(wl_max) < 0):
        errs.append("welfare rows are not sorted by wl_max")
    if any(r["status"] != "OK" or not close(num(r["level"]), level) for r in rows):
        errs.append("welfare row status or joint level is wrong")
    return errs


def max_on_slice(c, lo, hi, total) -> float:
    """Exact maximum of the loss over the box with sum(theta) = total.

    The marginal log1p(c/t) - c/(c+t) depends on t/c alone, so at the optimum
    every coordinate with c > 0 is clip(g * c_k, lo_k, hi_k) for one ratio g;
    goods with c = 0 contribute nothing and absorb what the rest cannot.
    """
    act = c > 0
    if not act.any():
        return 0.0
    budget = min(max(total - lo[~act].sum(), lo[act].sum()), hi[act].sum())
    ca, la, ha = c[act], lo[act], hi[act]
    g_lo, g_hi = 0.0, float(np.max(ha / ca))
    for _ in range(200):
        g = 0.5 * (g_lo + g_hi)
        if np.clip(g * ca, la, ha).sum() < budget:
            g_lo = g
        else:
            g_hi = g
    t = np.clip(0.5 * (g_lo + g_hi) * ca, la, ha)
    return float(loss(t, ca))


def vertex_min(c, lo, hi, total) -> float:
    """Minimum of the concave loss on the slice by enumerating its vertices (K <= 10).

    A vertex has every coordinate but at most one at a bound; the remaining
    one takes whatever the sum leaves, if that lies inside its interval.
    """
    K = lo.shape[0]
    corners = np.array(list(itertools.product((0, 1), repeat=K)), dtype=bool)
    pts = np.where(corners, hi, lo)  # (2^K, K)
    best = math.inf
    for j in range(K):
        tj = total - (pts.sum(axis=1) - pts[:, j])
        ok = (tj >= lo[j] - 1e-12) & (tj <= hi[j] + 1e-12)
        if ok.any():
            cand = pts[ok].copy()
            cand[:, j] = np.clip(tj[ok], lo[j], hi[j])
            best = min(best, float(loss(cand, c).min()))
    return best


def bnb_min(c, lo, hi, total, rel_tol: float = 1e-12) -> float:
    """Global minimum of the concave separable loss on the slice (Falk-Soland).

    On each sub-box the secant of every term is its convex envelope, so the
    relaxation is a continuous knapsack solved by filling the cheapest
    slopes first.  Its solution is feasible; the node is split at the one
    coordinate whose term lies above its secant.
    """

    def term(t):
        return np.where(c > 0, t * np.log1p(c / np.where(c > 0, t, 1.0)), 0.0)

    def relax(lo_, hi_):
        f_lo, f_hi = term(lo_), term(hi_)
        width = hi_ - lo_
        slope = np.where(width > 0, (f_hi - f_lo) / np.where(width > 0, width, 1.0), 0.0)
        t = lo_.copy()
        rest = total - lo_.sum()
        for k in np.argsort(slope, kind="stable"):
            if rest <= 0:
                break
            add = min(rest, width[k])
            t[k] += add
            rest -= add
        bound = float(f_lo.sum() + (slope * (t - lo_)).sum())
        return bound, t, f_lo + slope * (t - lo_)

    best = math.inf
    bound, t, sec = relax(lo, hi)
    heap = [(bound, 0, lo, hi, t, sec)]
    tick = 1
    while heap:
        bound, _, lo_, hi_, t, sec = heapq.heappop(heap)
        if bound >= best - rel_tol * abs(best):
            break
        vals = term(t)
        best = min(best, float(vals.sum()))
        gap = vals - sec
        k = int(np.argmax(gap))
        if gap[k] <= rel_tol * max(1.0, abs(best)):
            continue
        for new_lo, new_hi in ((lo_[k], t[k]), (t[k], hi_[k])):
            l2, h2 = lo_.copy(), hi_.copy()
            l2[k], h2[k] = new_lo, new_hi
            b2, t2, s2 = relax(l2, h2)
            if b2 < best - rel_tol * abs(best):
                heapq.heappush(heap, (b2, tick, l2, h2, t2, s2))
                tick += 1
    return best


def feasible_points(rng, lo, hi, total, count: int) -> np.ndarray:
    """Random points of the slice: convex mixes of randomly ordered fill vertices."""
    K = lo.shape[0]
    verts = np.empty((count, K))
    for i in range(count):
        t = lo.copy()
        rest = total - lo.sum()
        for k in rng.permutation(K):
            add = min(rest, hi[k] - lo[k])
            t[k] += add
            rest -= add
        verts[i] = t
    w = rng.dirichlet(np.ones(3), count)
    mixes = np.einsum("ij,ijk->ik", w, verts[rng.integers(0, count, (count, 3))])
    return np.vstack([verts, mixes])


def sum_reference(c, lo, hi, total, rng) -> dict:
    """Exact extremes on the slice plus the largest loss at sampled points."""
    K = lo.shape[0]
    ref_min = vertex_min(c, lo, hi, total) if K <= 10 else bnb_min(c, lo, hi, total)
    pts = feasible_points(rng, lo, hi, total, 64)
    return {
        "min": ref_min,
        "max": max_on_slice(c, lo, hi, total),
        "sampled_max": float(loss(pts, c).max()),
    }


def check_sum_row(row, ref) -> tuple:
    """(errors, failed) for one household's sum-constrained bounds.

    failed is True when wl_min lies above the true minimum: the reported
    lower bound is then not a valid bound.
    """
    errs = []
    wl_min, wl_max = num(row["wl_min"]), num(row["wl_max"])
    if row["status"] != "OK":
        return [f"{row['id']}: status {row['status']}"], False
    if not close(wl_max, ref["max"], rel=1e-8):
        errs.append(f"{row['id']}: wl_max {wl_max!r} differs from the exact maximum {ref['max']!r}")
    if wl_max < ref["sampled_max"] * (1 - REL):
        errs.append(f"{row['id']}: wl_max below the loss at a feasible point")
    if wl_min < ref["min"] * (1 - REL) - 1e-12:
        errs.append(f"{row['id']}: wl_min {wl_min!r} below the global minimum {ref['min']!r}")
    failed = wl_min > ref["min"] * (1 + REL) + 1e-12
    return errs, failed


# ---------------------------------------------------------------- Monte Carlo study

TABLE1_THETA = np.array([0.2, 0.3, 0.5])
TABLE1_C = np.array([0.5, 0.8, 0.2]) * np.array([0.2, 0.6, 0.8])


def check_mc(intervals_csv: str, welfare_csv: str, stdout: str, reps: int) -> list:
    """Identities the three-good study must satisfy whatever the draws."""
    errs = []
    rows = read_csv(intervals_csv)
    ns = sorted({int(r["n"]) for r in rows})
    if len(rows) != 3 * len(ns) or not ns:
        errs.append("mc interval table does not have three goods per n")
    empties: dict = {}
    for r in rows:
        n_empty = int(r["n_empty"])
        covered = float(r["coverage"]) * reps
        empties[int(r["n"])] = empties.get(int(r["n"]), 0) + n_empty
        if not 0 <= n_empty <= reps:
            errs.append(f"n={r['n']} {r['good_id']}: n_empty {n_empty} outside [0, reps]")
        # n_used = reps - n_empty intervals exist; only those can cover.
        if abs(covered - round(covered)) > 1e-6 or round(covered) > reps - n_empty:
            errs.append(f"n={r['n']} {r['good_id']}: coverage is not a count of used reps")
        if n_empty < reps:
            lo, hi, length = float(r["avg_lower"]), float(r["avg_upper"]), float(r["avg_length"])
            if not close(length, hi - lo, rel=1e-8, abs_tol=1e-10):
                errs.append(f"n={r['n']} {r['good_id']}: avg_length != avg_upper - avg_lower")
            if not (FLOOR * (1 - REL) <= lo <= hi <= 1.0 + REL):
                errs.append(f"n={r['n']} {r['good_id']}: averages leave the grid [1e-6, 1]")
    for n, total in empties.items():
        line = f"skipped empty_sets_n{n}: {total}"
        if (total > 0) != (line in stdout):
            errs.append(f"n={n}: empty-set count {total} not reported on stdout")
    wl = {}
    for r in read_csv(welfare_csv):
        wl[(int(r["n"]), r["label"])] = float(r["value"])
    iv = float(np.log1p(TABLE1_C).sum())  # theta = 1 in every good
    iii = math.log1p(TABLE1_C.sum())  # theta = c / sum(c) on the simplex
    true_wl = float(loss(TABLE1_THETA, TABLE1_C))
    if f"true loss = {true_wl:.12g}" not in comment_line(welfare_csv):
        errs.append("mc welfare header does not carry the true loss")
    for n in ns:
        if not close(wl.get((n, "iv"), math.nan), iv):
            errs.append(f"n={n}: iv is not the loss at theta = 1")
        if not close(wl.get((n, "iii"), math.nan), iii, rel=1e-8):
            errs.append(f"n={n}: iii is not the simplex maximum")
        if wl.get((n, "i"), -math.inf) > iii * (1 + REL):
            errs.append(f"n={n}: average of i exceeds iii")
        if wl.get((n, "ii"), -math.inf) > iv * (1 + REL):
            errs.append(f"n={n}: average of ii exceeds iv")
        for label in ("ii_covers_true", "joint_coverage"):
            v = wl.get((n, label), 0.0)
            if not 0.0 <= v <= 1.0:
                errs.append(f"n={n}: {label} {v} outside [0, 1]")
    return errs
