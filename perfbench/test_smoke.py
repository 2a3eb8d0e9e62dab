"""Smoke tests of the benchmark harness at tiny sizes.  No timing is asserted.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, out.stdout
    assert res["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert res["metrics"][m["name"]]["value"] > 0
    if workload != "household_bounds":
        assert res["failed"] == 0
    else:
        # Only K = 50 households can fail, at most all of them in each round.
        sz = inputs.Sizes.smoke()
        per_round = sz.box_households + sz.sum_k3_households + sz.sum_k50_households
        assert res["failed"] * per_round <= res["attempted"] * sz.sum_k50_households


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "--workload", "cli_pipeline", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_branch_and_bound_matches_vertex_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        K = int(rng.integers(2, 9))
        lo = rng.uniform(0.05, 0.5, K)
        hi = lo + rng.uniform(0.05, 0.8, K)
        c = rng.uniform(0.0, 1.2, K)
        total = lo.sum() + rng.uniform() * (hi.sum() - lo.sum())
        assert checks.close(checks.bnb_min(c, lo, hi, total), checks.vertex_min(c, lo, hi, total), rel=1e-12)


def test_slice_maximum_beats_feasible_points():
    rng = np.random.default_rng(1)
    for _ in range(20):
        K = int(rng.integers(2, 12))
        lo = rng.uniform(0.05, 0.5, K)
        hi = lo + rng.uniform(0.05, 0.8, K)
        c = rng.uniform(0.0, 1.2, K)
        total = lo.sum() + rng.uniform() * (hi.sum() - lo.sum())
        pts = checks.feasible_points(rng, lo, hi, total, 32)
        assert np.allclose(pts.sum(axis=1), total)
        assert checks.loss(pts, c).max() <= checks.max_on_slice(c, lo, hi, total) * (1 + 1e-12)
