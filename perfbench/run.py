"""Benchmark of the welfarebounds pipeline: demand CSV -> theta intervals -> welfare bounds.

Run from the repository root:

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --seconds 20 --trace 0

Each run builds its inputs from --seed, then runs rounds of `welfarebounds`
commands, one child process at a time (a closed loop with one client), until
--seconds have passed; every output is checked against checks.py.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, measured on the child
processes; with --trace 1 the commands run in this process through
welfarebounds.cli.main with spans around each layer, and the metrics are
per layer.  --smoke shrinks every input so a run takes seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import marshal
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import spans
import workloads

SRC = os.path.join("src", "welfarebounds")
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 3
MAX_RUN_S = 120.0  # start no round after this, to end well inside 180 s


class SpeedProbe:
    """A fixed CPU kernel, timed in this process before every command.

    The sandbox's CPU speed drifts by tens of percent over minutes, with
    every workload and this kernel alike, and it also flips between a fast
    and a slow state within seconds.  A round spans many flips, so its time
    follows the mean speed over the run, and so does the kernel's mean time
    (its median would jump between the two states).  End-to-end times are
    rescaled by REF_S / (the run's mean kernel time): seconds at the speed
    where the kernel takes REF_S.  The kernel mixes what the commands do:
    numpy sorts, unmarshalling code objects (interpreter start-up) and a
    plain Python loop.
    """

    REF_S = 0.02  # about the kernel's time on the 2-vCPU Xeon sandbox when idle

    def __init__(self):
        self._x = np.random.default_rng(0).random((64, 4000))
        src = "\n".join(f"def f{i}(a, b):\n    return [a * k + b for k in range({i})]" for i in range(300))
        self._code = marshal.dumps(compile(src, "<probe>", "exec"))
        self.samples: list = []

    def sample(self, repeats: int = 5) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            np.argsort(self._x, axis=1)
            for _ in range(20):
                marshal.loads(self._code)
            acc = 0
            for i in range(150_000):
                acc += i * i % 7
            self.samples.append(time.perf_counter() - t0)

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        return self.REF_S / self.mean()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"))


def run_child(argv: list, workdir: str) -> dict:
    """One command as a child process: wall time, peak RSS, exit code, stdout."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "stdout": stdout, "stderr": stderr}


def run_inprocess(argv: list, cli) -> dict:
    """One command through welfarebounds.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed step, not a crashed benchmark
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return {"wall": time.perf_counter() - t0, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def set_up(workload) -> float:
    """Write the inputs and import the package in a fresh interpreter; seconds taken."""
    t0 = time.perf_counter()
    workload.make_inputs()
    res = run_child([sys.executable, "-c", "import welfarebounds.cli"], workload.workdir)
    if res["code"] != 0:
        raise RuntimeError(f"importing welfarebounds failed: {res['stderr'].strip()}")
    return time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, check errors, and per-step timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.step_walls: dict = {}
        self.steps: dict = {}
        self.round_walls: list = []
        self.peak_rss_mb = 0.0
        self.raw: dict = {}  # unscaled end-to-end times, for the run record

    def record(self, step, res: dict) -> None:
        self.attempted += step.ops
        self.step_walls.setdefault(step.name, []).append(res["wall"])
        self.steps[step.name] = step
        self.peak_rss_mb = max(self.peak_rss_mb, res.get("rss_mb", 0.0))
        if res["code"] != 0:
            self.failed += step.ops
            self.errors.append(f"{step.name}: exit {res['code']}: {res['stderr'].strip()[-300:]}")
            return
        try:
            errs, failed = step.check(res["stdout"])
        except Exception as exc:  # a malformed output file is a failed check
            errs, failed = [f"{type(exc).__name__}: {exc}"], 0
        self.failed += failed
        self.errors += [f"{step.name}: {e}" for e in errs]


def run_rounds(workload, seconds: float, tally: Tally, execute) -> None:
    """Closed loop: whole rounds, one command at a time, until `seconds` have passed.

    At least one round runs; none starts after MAX_RUN_S.
    """
    t_start = time.perf_counter()
    while True:
        round_wall = 0.0
        for step in workload.steps(len(tally.round_walls)):
            res = execute(step)
            round_wall += res["wall"]
            tally.record(step, res)
        tally.round_walls.append(round_wall)
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds or elapsed > MAX_RUN_S:
            return


def summary(tally: Tally) -> dict:
    """Throughput of each step kind: its operations over its median wall time."""
    out = {}
    for name, walls in tally.step_walls.items():
        step = tally.steps[name]
        out[f"{name}: {step.throughput}"] = {
            "value": step.ops / statistics.median(walls), "unit": f"{step.item}/s",
            "median_step_s": statistics.median(walls), "steps": len(walls),
        }
    return out


def end_to_end(workload, seconds: float, tally: Tally) -> dict:
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        setups.append(set_up(workload))

    def execute(step):
        probe.sample()
        return run_child([sys.executable, "-m", "welfarebounds.cli"] + step.argv, workload.workdir)

    run_rounds(workload, seconds, tally, execute)
    tally.raw = {"round_s": statistics.median(tally.round_walls),
                 "setup_s": statistics.median(setups), "probe_s": probe.mean(),
                 "probe_samples": len(probe.samples)}
    return {
        "round_ref_s": {"value": tally.raw["round_s"] * probe.scale(), "unit": "s"},
        "peak_rss_mb": {"value": tally.peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": tally.raw["setup_s"] * probe.scale(), "unit": "s"},
    }


def per_layer(workload, seconds: float, tally: Tally, trace_path: str) -> dict:
    set_up(workload)
    sys.path.insert(0, os.path.abspath("src"))
    modules = {m: importlib.import_module(f"welfarebounds.{m}") for m in ("cli", "confset", "simulate")}
    cli = modules["cli"]

    def untraced(step):
        return run_child([sys.executable, "-m", "welfarebounds.cli"] + step.argv, workload.workdir)

    run_rounds(workload, 0.0, tally, untraced)
    untraced_round = tally.round_walls[-1]
    tracer = spans.Tracer()

    def traced(step):
        with tracer.span(f"step.{step.name}"):
            return run_inprocess(step.argv, cli)

    tracer.install(modules)
    try:
        first = len(tally.round_walls)
        run_rounds(workload, seconds, tally, traced)
        rounds = len(tally.round_walls) - first
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)
    traced_round = statistics.median(tally.round_walls[first:])
    metrics = tracer.layer_metrics(rounds)
    metrics.update({
        "trace.traced_round_s": {"value": traced_round, "unit": "s"},
        "trace.untraced_round_s": {"value": untraced_round, "unit": "s"},
        "trace.untraced_minus_traced_s": {"value": untraced_round - traced_round, "unit": "s"},
    })
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"{SRC} not found: run from the root of a welfarebounds checkout", file=sys.stderr)
        return 2
    seed = args.seed & 0xFFFFFFFF
    sizes = inputs.Sizes.smoke() if args.smoke else inputs.Sizes()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.abspath(os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}"))
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[args.workload](seed, sizes, workdir)
    tally = Tally()
    try:
        if args.trace:
            metrics = per_layer(workload, args.seconds, tally, os.path.join(OUT_DIR, f"{tag}-spans.json"))
        else:
            metrics = end_to_end(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=len(tally.round_walls), round_walls=tally.round_walls,
                  raw_seconds=tally.raw, throughputs=summary(tally), errors=tally.errors[:50])
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for e in tally.errors[:20]:
        print(f"CHECK FAILED {e}")
    for name, m in detail["throughputs"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (median of {m['steps']} steps)")
    for name, value in tally.raw.items():
        if name.endswith("_s"):
            print(f"unscaled {name} = {value:.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
