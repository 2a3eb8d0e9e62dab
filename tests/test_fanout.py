"""Units spread over worker processes give the bytes of a serial run.

Each test runs the same work with the worker count set to 1 (every unit
inline) and to 2 (a forked pool) and compares the reports, the files and
the output streams.
"""

import dataclasses
import os
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


def test_a_pool_worker_runs_its_own_study_inline():
    # a pool's workers are daemonic and may not fork; their studies run inline
    with _workers(2):
        nested = _fanout.fan_out(_small_study, [5, 6])
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
