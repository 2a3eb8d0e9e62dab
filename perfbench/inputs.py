"""Seeded input files for the benchmark workloads.

Every array comes from ``numpy.random.default_rng([seed, stream])`` so one
``--seed`` fixes every input.  Floats are written with ``repr`` so the
program parses exactly the values the checks use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# Seed of the K = 50 sum-constrained slice.  It is a constant on purpose: the
# slice holds the households on which the K > 20 minimum heuristic misses the
# true minimum, and a fixed instance keeps their count identical in every run.
K50_SEED = 50


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark run; ``smoke()`` gives the tiny variant."""

    mc_reps: int = 3
    ci_goods: int = 12
    ci_rows: int = 2000
    ci_tied_goods: tuple = (2, 8)  # 0-based goods that carry duplicate rows
    ci_dup_share: float = 0.05
    ci_grid_nodes: int = 1000
    ci_households: int = 3000
    box_goods: int = 10
    box_households: int = 6000
    sum_k3_households: int = 24
    sum_k50_households: int = 8

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            mc_reps=1,
            ci_goods=3,
            ci_rows=300,
            ci_tied_goods=(1,),
            ci_grid_nodes=200,
            ci_households=50,
            box_households=200,
            sum_k3_households=4,
            sum_k50_households=2,
        )


# Settings shared by the command lines and the checks of cli_pipeline.
CI_ALPHA = 0.1
CI_GRID_HI = 2.0
CI_JITTER = 0.005
WELFARE_ALPHA = 0.1


@dataclass
class DemandGood:
    good_id: str
    price: np.ndarray
    quantity: np.ndarray
    instrument: np.ndarray
    tied: bool


@dataclass
class Households:
    ids: list
    delta: np.ndarray  # (N, K)
    ystar: np.ndarray  # (N, K)


@dataclass
class Box:
    good_ids: list
    lower: np.ndarray
    upper: np.ndarray
    level: float
    sum_to: float | None = None


@dataclass
class PipelineInputs:
    data_csv: str
    query_csv: str
    goods: list
    households: Households


@dataclass
class HouseholdSlice:
    name: str
    intervals_csv: str
    query_csv: str
    box: Box
    households: Households
    reference: dict = field(default_factory=dict)  # filled lazily by the checks


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _households(rng, n: int, K: int, delta_hi: float, zero_share: float) -> Households:
    delta = rng.uniform(0.0, delta_hi, (n, K))
    delta[rng.random((n, K)) < zero_share] = 0.0
    ystar = rng.uniform(0.1, 2.0, (n, K))
    ids = ["h%06d" % i for i in range(n)]
    return Households(ids=ids, delta=delta, ystar=ystar)


def demand_goods(seed: int, sizes: Sizes) -> list:
    """Endogenous-price demand draws with a discrete (cent-tier) instrument.

    quantity = theta / (price - shock) as in the paper's model; price mixes
    in half the shock.  Goods in ``ci_tied_goods`` have ``ci_dup_share`` of
    their rows replaced by exact copies of other rows, as in scanner data.
    """
    rng = _rng(seed, 1)
    K, n = sizes.ci_goods, sizes.ci_rows
    thetas = np.linspace(0.2, 0.9, K)
    goods = []
    for k in range(K):
        tied = k in sizes.ci_tied_goods
        n_dup = int(round(sizes.ci_dup_share * n)) if tied else 0
        m = n - n_dup
        z = np.round(rng.uniform(1.0, 1.5, m), 2)
        shock = rng.uniform(0.0, 1.0, m)
        price = z + 0.5 * shock + rng.uniform(0.0, 0.1, m)
        quantity = thetas[k] / (price - shock)
        if n_dup:
            src = np.concatenate([np.arange(m), rng.choice(m, n_dup, replace=False)])
            perm = src[rng.permutation(n)]
            price, quantity, z = price[perm], quantity[perm], z[perm]
        goods.append(DemandGood("g%02d" % (k + 1), price, quantity, z, tied))
    return goods


def write_pipeline(seed: int, sizes: Sizes, workdir: str) -> PipelineInputs:
    goods = demand_goods(seed, sizes)
    data_csv = os.path.join(workdir, "demand.csv")
    _write(
        data_csv,
        "good_id,price,quantity,instrument",
        (
            (g.good_id, repr(float(p)), repr(float(q)), repr(float(z)))
            for g in goods
            for p, q, z in zip(g.price, g.quantity, g.instrument)
        ),
    )
    hh = _households(_rng(seed, 2), sizes.ci_households, len(goods), 0.5, 0.1)
    query_csv = os.path.join(workdir, "households_long.csv")
    _write(
        query_csv,
        "id,good_id,delta,ystar",
        (
            (hid, g.good_id, repr(float(hh.delta[i, k])), repr(float(hh.ystar[i, k])))
            for i, hid in enumerate(hh.ids)
            for k, g in enumerate(goods)
        ),
    )
    return PipelineInputs(data_csv=data_csv, query_csv=query_csv, goods=goods, households=hh)


def _random_box(rng, K: int, lo_range, width_range, level: float) -> Box:
    lower = rng.uniform(*lo_range, K)
    upper = lower + rng.uniform(*width_range, K)
    return Box(good_ids=["b%02d" % (k + 1) for k in range(K)], lower=lower, upper=upper, level=level)


def _write_slice(name: str, box: Box, hh: Households, workdir: str) -> HouseholdSlice:
    intervals_csv = os.path.join(workdir, f"{name}_intervals.csv")
    _write(
        intervals_csv,
        "# prepared theta intervals\ngood_id,method,lower,upper,level,status",
        (
            (gid, "intersect", repr(float(lo)), repr(float(hi)), repr(box.level), "OK")
            for gid, lo, hi in zip(box.good_ids, box.lower, box.upper)
        ),
    )
    query_csv = os.path.join(workdir, f"{name}_households.csv")
    header = "id," + ",".join(f"delta_{g},ystar_{g}" for g in box.good_ids)
    _write(
        query_csv,
        header,
        (
            [hid] + [repr(float(v)) for pair in zip(hh.delta[i], hh.ystar[i]) for v in pair]
            for i, hid in enumerate(hh.ids)
        ),
    )
    return HouseholdSlice(name, intervals_csv, query_csv, box, hh)


def _sum_slice(rng, name: str, K: int, n: int, target_share: float, workdir: str) -> HouseholdSlice:
    box = _random_box(rng, K, (0.05, 0.5), (0.2, 1.0), 1.0 - 0.1 / K)
    box.sum_to = float(box.lower.sum() + target_share * (box.upper.sum() - box.lower.sum()))
    # One household after another, so household i is the same whatever n is.
    draws = np.array([[rng.uniform(0.1, 1.1, K), rng.uniform(0.2, 1.2, K)] for _ in range(n)])
    delta, ystar = draws[:, 0, :].reshape(n, K), draws[:, 1, :].reshape(n, K)
    hh = Households(ids=["h%06d" % i for i in range(n)], delta=delta, ystar=ystar)
    return _write_slice(name, box, hh, workdir)


def write_household_slices(seed: int, sizes: Sizes, workdir: str) -> list:
    """Box query at K = 10, sum-to query at K = 3 (seeded) and at K = 50 (fixed)."""
    rng = _rng(seed, 3)
    box = _random_box(rng, sizes.box_goods, (0.05, 0.6), (0.02, 0.4), 0.99)
    hh = _households(rng, sizes.box_households, sizes.box_goods, 1.0, 0.1)
    box_slice = _write_slice("box_k10", box, hh, workdir)
    k3 = _sum_slice(_rng(seed, 4), "sum_k3", 3, sizes.sum_k3_households,
                    float(_rng(seed, 5).uniform(0.25, 0.75)), workdir)
    k50 = _sum_slice(_rng(K50_SEED, 6), "sum_k50", 50, sizes.sum_k50_households, 0.5, workdir)
    return [box_slice, k3, k50]
