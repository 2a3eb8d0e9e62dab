"""Units spread over worker processes give the bytes of a serial run.

Each test runs the same work with the worker count set to 1 (every unit
inline) and to 2 (forked workers) and compares the reports, the files and
the output streams.  A worker that is killed ends the call with WorkerLost.
"""

import dataclasses
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from welfarebounds import _fanout
from welfarebounds.cli import main
from welfarebounds.errors import DegenerateResponse
from welfarebounds.simulate import mc_table1, mc_table2


def _workers(count):
    return mock.patch.object(_fanout, "_cpus", lambda: count)


def _unit_and_pid(unit):
    return unit, os.getpid()


def _fail_on_three(unit):
    if unit == 3:
        raise DegenerateResponse("unit 3")
    return unit


def test_fan_out_returns_results_in_unit_order_from_other_processes():
    units = list(range(7))
    with _workers(2):
        results = _fanout.fan_out(_unit_and_pid, units)
        with pytest.raises(DegenerateResponse, match="unit 3"):
            _fanout.fan_out(_fail_on_three, units)
    assert [unit for unit, _ in results] == units
    assert os.getpid() not in {pid for _, pid in results}
    with _workers(1):
        assert _fanout.fan_out(_unit_and_pid, units) == [(u, os.getpid()) for u in units]


def test_fan_out_queues_more_units_than_a_pipe_buffer_holds():
    # 40 000 4-byte indices outgrow a 64 KiB pipe buffer
    units = list(range(40_000))
    with _workers(2):
        results = _fanout.fan_out(_unit_and_pid, units)
    assert [unit for unit, _ in results] == units
    assert os.getpid() not in {pid for _, pid in results}


def test_fan_out_runs_inline_where_the_os_has_no_affinity_mask(monkeypatch):
    # as on macOS: one CPU is assumed, and multiprocessing is not imported
    monkeypatch.delattr(os, "sched_getaffinity")
    # an import of multiprocessing would now raise ImportError
    monkeypatch.setitem(sys.modules, "multiprocessing", None)
    assert _fanout._cpus() == 1
    assert _fanout.fan_out(_unit_and_pid, [0, 1, 2]) == [(unit, os.getpid()) for unit in (0, 1, 2)]


def _report_fields(report):
    # every field but the CPU seconds, which differ from run to run
    fields = dataclasses.asdict(report)
    fields["timings"] = list(fields["timings"])
    return repr(fields)


@pytest.mark.parametrize("study", [
    lambda: mc_table1(reps=4, seed=7, n_values=(200, 1000), grid_nodes=200),
    lambda: mc_table2(K=4, reps=3, seed=8, n_values=(200, 500), grid_nodes=150),
], ids=["mc_table1", "mc_table2"])
def test_mc_report_does_not_depend_on_the_worker_count(study):
    with _workers(1):
        serial = study()
    with _workers(2):
        pooled = study()
    assert _report_fields(pooled) == _report_fields(serial)
    assert pooled.timings.keys() == serial.timings.keys()
    # ci_n<n> sums the units' own CPU seconds, not the parent's idle wait
    assert all(pooled.timings[key] > 0 for key in pooled.timings if key.startswith("ci_n"))


def _small_study(seed):
    report = mc_table1(reps=2, seed=seed, n_values=(200,), grid_nodes=100)
    return _report_fields(report), os.getpid()


def _may_fork_here(unit):
    return _fanout._may_fork()


def test_a_worker_runs_its_own_study_inline():
    # fan_out's workers do not fork again; their studies run inline
    with _workers(2):
        nested = _fanout.fan_out(_small_study, [5, 6])
        assert _fanout.fan_out(_may_fork_here, [0, 1]) == [False, False]
    with _workers(1):
        serial = [_small_study(seed)[0] for seed in (5, 6)]
    assert [fields for fields, _ in nested] == serial
    assert os.getpid() not in {pid for _, pid in nested}


def test_units_run_inline_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with _workers(2):
            results = _fanout.fan_out(_unit_and_pid, [0, 1, 2])
    finally:
        release.set()
        other.join()
    assert results == [(unit, os.getpid()) for unit in (0, 1, 2)]


def _run(argv, workers, capsys):
    """main(argv) with `workers` workers: exit code, stdout without timings, stderr, files."""
    out_dir = os.path.dirname(argv[argv.index("--out") + 1])
    before = set(os.listdir(out_dir))
    capsys.readouterr()
    with _workers(workers):
        code = main(argv)
    out, err = capsys.readouterr()
    out = "".join(line for line in out.splitlines(True) if not line.startswith("timing "))
    files = {}
    for name in sorted(set(os.listdir(out_dir)) - before):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
        os.remove(os.path.join(out_dir, name))
    return code, out, err, files


@pytest.mark.parametrize("argv", [
    ["mc", "--table", "1", "--reps", "1", "--seed", "11"],
    ["mc", "--table", "2", "--k", "3", "--reps", "1", "--seed", "12"],
], ids=["table1", "table2"])
def test_mc_command_does_not_depend_on_the_worker_count(tmp_path, capsys, argv):
    argv = argv + ["--out", str(tmp_path / "m")]
    serial = _run(argv, 1, capsys)
    assert serial[0] == 0 and len(serial[3]) == 2
    assert _run(argv, 2, capsys) == serial


def _mixed_goods_csv(tmp_path):
    """g1 and g4 plain, g2 with repeated rows, g3 with a constant price (EMPTY
    in xi mode, FAILED in ls and intersect), and one rejected row."""
    rng = np.random.default_rng(21)
    lines = ["good_id,price,quantity,instrument"]
    for gid, theta in (("g1", 0.3), ("g2", 0.4), ("g3", 0.5), ("g4", 0.6)):
        z = rng.uniform(1.0, 2.0, 120)
        w = rng.uniform(0.0, 1.0, 120)
        p = np.full(120, 1.5) if gid == "g3" else z
        q = theta / (p - w)
        if gid == "g2":
            # 30 repeated (price, quantity) rows, each with its own instrument
            rows = rng.integers(0, 120, 30)
            p, q, z = np.append(p, p[rows]), np.append(q, q[rows]), np.append(z, rng.uniform(1.0, 2.0, 30))
        lines += [f"{gid},{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(p, q, z)]
    lines.insert(5, "g1,-1.0,0.5,1.2")
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_ci_all_modes_does_not_depend_on_the_worker_count(tmp_path, capsys):
    data = _mixed_goods_csv(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["ci", "--data", data, "--mode", "all", "--jitter", "0.005", "--seed", "3",
            "--grid-nodes", "300", "--out", str(out_dir / "c")]
    serial = _run(argv, 1, capsys)
    code, _, err, files = serial
    assert code == 4
    assert err.startswith("rejected row 6")
    assert err.count("SingularDesign: g3: price is constant") == 2
    statuses = [line.rsplit(b",", 1)[1] for line in files["c_intervals.csv"].splitlines()[2:]]
    assert statuses == [b"OK"] * 6 + [b"EMPTY"] + [b"FAILED:SingularDesign"] * 2 + [b"OK"] * 3
    assert len(files) == 5
    assert _run(argv, 2, capsys) == serial


# Each run is a fresh interpreter under a timeout: a worker pool that waits
# for a killed worker's results would hang the test process.
_SRC = os.path.dirname(os.path.dirname(_fanout.__file__))

_KILL_ONE_WORKER = """
import os, signal, sys
from welfarebounds import _fanout
from welfarebounds.errors import WorkerLost

def unit(u):
    if u == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return u

_fanout._cpus = lambda: 2
try:
    _fanout.fan_out(unit, list(range(8)))
except WorkerLost as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def _fresh(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=60)


def test_a_killed_worker_raises_worker_lost():
    run = _fresh("-c", _KILL_ONE_WORKER)
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout == ("a worker process ended by signal 9 before returning its results\n"
                          "no child left\n")


def test_ci_exits_4_when_a_worker_is_killed(tmp_path):
    # the ls units kill their worker; a worker writes its pid before each unit
    assert main(["simulate", "--seed", "5", "--theta", "0.3,0.6", "--n", "150",
                 "--out", str(tmp_path / "s")]) == 0
    script = """
import os, signal, sys
from welfarebounds import _fanout, confset
from welfarebounds.cli import main

good_unit = confset._good_unit

def unit(u):
    with open("pids.txt", "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    if u[2] == "ls":
        os.kill(os.getpid(), signal.SIGKILL)
    return good_unit(u)

confset._good_unit = unit
_fanout._cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""
    run = _fresh("-c", script, "ci", "--data", "s_data.csv", "--mode", "all", "--grid-nodes", "100",
                 "--seed", "1", "--out", "c", cwd=tmp_path)
    assert run.returncode == 4
    assert run.stderr == "WorkerLost: a worker process ended by signal 9 before returning its results\n"
    assert not list(tmp_path.glob("c_*"))
    pids = {int(pid) for pid in (tmp_path / "pids.txt").read_text().split()}
    assert 1 <= len(pids) <= 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
