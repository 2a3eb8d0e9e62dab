"""The three workloads: their inputs, the CLI steps of one round, and the checks.

A round is a fixed list of ``welfarebounds`` commands.  Each step names the
number of operations it produces (replications, goods or households) and a
check that compares the command's output files against checks.py.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs


@dataclass
class Step:
    name: str  # step.<name> in the trace
    argv: list  # arguments after `welfarebounds`
    ops: int  # operations the step produces
    item: str  # what one operation is, for the summary
    throughput: str  # the summary's name for ops per second of this step
    check: Callable  # (stdout) -> (errors, failed ops)


class McThreeGoods:
    """`mc --table 1` at a few replications: confset.profile_stats at n up to 5000."""

    name = "mc_three_goods"
    why = "the three-good study; the per-good xi grid at n = 5000 dominates, constrained max at K = 3"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: str):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def make_inputs(self) -> None:
        """The study draws its own data from --seed; nothing to write."""

    def steps(self, round_no: int) -> list:
        reps = self.sizes.mc_reps
        mc_seed = (self.seed * 1000 + round_no) % 2**31
        stem = os.path.join(self.workdir, f"mc{round_no}")

        def check(stdout):
            errs = checks.check_mc(f"{stem}_mc_intervals.csv", f"{stem}_mc_welfare.csv", stdout, reps)
            return errs, 0

        argv = ["mc", "--table", "1", "--reps", str(reps), "--seed", str(mc_seed), "--out", stem]
        return [Step("mc", argv, reps, "replication", "mc_reps_per_s", check)]


class CliPipeline:
    """`ci --mode all --jitter` on a demand CSV, then box bounds over the intersect intervals."""

    name = "cli_pipeline"
    why = "the applied user's path: CSV ingest, two xi grids per good with a tie path, LS, box welfare"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: str):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.data = None

    def make_inputs(self) -> None:
        self.data = inputs.write_pipeline(self.seed, self.sizes, self.workdir)

    def steps(self, round_no: int) -> list:
        d, sz = self.data, self.sizes
        stem = os.path.join(self.workdir, f"run{round_no}")
        ci_argv = [
            "ci", "--data", d.data_csv, "--mode", "all", "--alpha", repr(inputs.CI_ALPHA),
            "--jitter", repr(inputs.CI_JITTER), "--seed", str(self.seed),
            "--grid-nodes", str(sz.ci_grid_nodes), "--grid-hi", repr(inputs.CI_GRID_HI),
            "--out", stem,
        ]
        wl_argv = [
            "welfare", "--intervals", f"{stem}_intervals.csv", "--mode", "intersect",
            "--query", d.query_csv, "--alpha", repr(inputs.WELFARE_ALPHA), "--out", stem,
        ]
        rng = np.random.default_rng([self.seed, 7, round_no])
        return [
            Step("ci", ci_argv, len(d.goods), "good", "ci_goods_per_s",
                 lambda stdout: (self._check_ci(stem, rng), 0)),
            Step("welfare_intersect", wl_argv, len(d.households.ids), "household",
                 "box_households_per_s", lambda stdout: (self._check_welfare(stem), 0)),
        ]

    def _check_ci(self, stem: str, rng) -> list:
        d, sz = self.data, self.sizes
        K = len(d.goods)
        share = inputs.CI_ALPHA / K
        rows = checks.read_csv(f"{stem}_intervals.csv")
        by_key = {(r["good_id"], r["method"]): r for r in rows}
        if len(rows) != 3 * K or len(by_key) != 3 * K:
            return [f"ci wrote {len(rows)} rows, expected 3 per good for {K} goods"]
        grid = np.linspace(checks.FLOOR, inputs.CI_GRID_HI, sz.ci_grid_nodes)
        errs = []
        for k, g in enumerate(d.goods):
            if g.tied != checks.has_ties_everywhere(g.price, g.quantity):
                errs.append(f"{g.good_id}: duplicate rows expected={g.tied}")
            z = checks.jittered(g.instrument, inputs.CI_JITTER, self.seed, k)
            for method in ("xi", "ls", "intersect"):
                if not checks.close(float(by_key[(g.good_id, method)]["level"]), 1.0 - share):
                    errs.append(f"{g.good_id} {method}: level is not 1 - alpha/K")
            ls = by_key[(g.good_id, "ls")]
            ref = checks.ls_interval(g.price, g.quantity, z, 1.0 - share)
            if not (checks.close(float(ls["lower"]), ref[0]) and checks.close(float(ls["upper"]), ref[1])):
                errs.append(f"{g.good_id}: ls row {ls['lower']},{ls['upper']} differs from 2SLS/HC1 {ref}")
            profile = checks.read_csv(f"{stem}_profile_{g.good_id}.csv")
            sample = rng.choice(sz.ci_grid_nodes, 8, replace=False)
            errs += checks.check_xi_row(g, z, by_key[(g.good_id, "xi")], profile, share, grid, sample)
            errs += checks.check_intersect_row(g, z, by_key[(g.good_id, "intersect")], share, sz.ci_grid_nodes)
        return errs

    def _check_welfare(self, stem: str) -> list:
        hh = self.data.households
        rows = checks.read_csv(f"{stem}_welfare.csv")
        ivs = [r for r in checks.read_csv(f"{stem}_intervals.csv") if r["method"] == "intersect"]
        if any(r["status"] == "EMPTY" for r in ivs):
            ok = len(rows) == len(hh.ids) and all(r["status"] == "EMPTY" for r in rows)
            return [] if ok else ["an EMPTY intersect interval must make every welfare row EMPTY"]
        lower = np.array([float(r["lower"]) for r in ivs])
        upper = np.array([float(r["upper"]) for r in ivs])
        levels = [float(r["level"]) for r in ivs]
        return checks.check_welfare_rows(rows, hh.ids, lower, upper, levels, hh.delta, hh.ystar)


class HouseholdBounds:
    """`welfare` from prepared intervals: a large box query and two --sum-to queries."""

    name = "household_bounds"
    why = "welfare solvers alone: box corners at K = 10, sum-constrained at K = 3 and K = 50, no grid"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: str):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.slices = []

    def make_inputs(self) -> None:
        self.slices = inputs.write_household_slices(self.seed, self.sizes, self.workdir)

    def steps(self, round_no: int) -> list:
        out = []
        names = {"box_k10": "box_households_per_s", "sum_k3": "sum_households_per_s",
                 "sum_k50": "sum_many_goods_households_per_s"}
        for sl in self.slices:
            stem = os.path.join(self.workdir, f"{sl.name}_{round_no}")
            argv = ["welfare", "--intervals", sl.intervals_csv, "--mode", "intersect",
                    "--query", sl.query_csv, "--alpha", repr(inputs.WELFARE_ALPHA), "--out", stem]
            if sl.box.sum_to is not None:
                argv += ["--sum-to", repr(sl.box.sum_to)]
            out.append(Step(f"welfare_{sl.name}", argv, len(sl.households.ids), "household",
                            names[sl.name], lambda stdout, sl=sl, stem=stem: self._check(sl, stem)))
        return out

    def _check(self, sl: inputs.HouseholdSlice, stem: str) -> tuple:
        rows = checks.read_csv(f"{stem}_welfare.csv")
        hh, box = sl.households, sl.box
        levels = [box.level] * len(box.good_ids)
        if box.sum_to is None:
            return checks.check_welfare_rows(rows, hh.ids, box.lower, box.upper, levels, hh.delta, hh.ystar), 0
        errs, failed = [], 0
        if [r["rank"] for r in rows] != [str(i + 1) for i in range(len(rows))]:
            errs.append(f"{sl.name}: ranks are not 1..N")
        if sorted(r["id"] for r in rows) != sorted(hh.ids):
            return errs + [f"{sl.name}: rows do not cover each household once"], 0
        wl_max = [checks.num(r["wl_max"]) for r in rows]
        if any(b < a for a, b in zip(wl_max, wl_max[1:])):
            errs.append(f"{sl.name}: rows are not sorted by wl_max")
        level = 1.0 - len(levels) * (1.0 - box.level)
        pos = {hid: i for i, hid in enumerate(hh.ids)}
        for r in rows:
            i = pos[r["id"]]
            if i not in sl.reference:  # same inputs every round: compute once
                rng = np.random.default_rng([inputs.K50_SEED, 8, i])
                c = hh.delta[i] * hh.ystar[i]
                sl.reference[i] = checks.sum_reference(c, box.lower, box.upper, box.sum_to, rng)
            row_errs, row_failed = checks.check_sum_row(r, sl.reference[i])
            if not checks.close(checks.num(r["level"]), level):
                row_errs.append(f"{r['id']}: joint level is not {level}")
            errs += [f"{sl.name} {e}" for e in row_errs]
            failed += row_failed
        return errs, failed


WORKLOADS = {w.name: w for w in (McThreeGoods, CliPipeline, HouseholdBounds)}
