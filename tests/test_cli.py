import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import welfarebounds

from welfarebounds.cli import (
    RunConfig,
    ingest_csv,
    main,
    read_intervals_csv,
    read_query_csv,
)
from welfarebounds.errors import (
    ConfigError,
    InvalidQuery,
    ParseError,
    SchemaError,
    TooFewObservations,
)

TWO_GOOD_CSV = """good_id,price,quantity
a,1.1,2.0
a,1.4,1.5
a,1.8,1.1
b,1.2,0.9
b,1.5,0.7
b,1.9,0.5
"""


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_ingest_two_goods(tmp_path):
    samples = ingest_csv(_write(tmp_path, "d.csv", TWO_GOOD_CSV))
    assert [s.good_id for s in samples] == ["a", "b"]
    assert all(s.n == 3 for s in samples)
    assert samples[0].instrument is None
    assert samples[1].price.tolist() == [1.2, 1.5, 1.9]


def test_ingest_missing_column(tmp_path):
    path = _write(tmp_path, "d.csv", "good_id,price\na,1.0\n")
    with pytest.raises(SchemaError):
        ingest_csv(path)


def test_ingest_nonnumeric_cell(tmp_path):
    text = TWO_GOOD_CSV.replace("1.5,0.7", "1.5,seven")
    with pytest.raises(ParseError) as err:
        ingest_csv(_write(tmp_path, "d.csv", text))
    assert err.value.col == "quantity"
    assert "row 6" in str(err.value)


def test_ingest_rejects_nonpositive_rows(tmp_path):
    text = TWO_GOOD_CSV + "b,1.7,0.0\n"
    rejects = []
    samples = ingest_csv(_write(tmp_path, "d.csv", text), reject_log=rejects)
    assert rejects == [(8, "nonpositive price or quantity")]
    assert samples[1].n == 3


def test_ingest_too_few_observations(tmp_path):
    text = "good_id,price,quantity\na,1.0,1.0\na,1.2,0.9\n"
    with pytest.raises(TooFewObservations):
        ingest_csv(_write(tmp_path, "d.csv", text))


def test_tsls_without_instrument_is_schema_error(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    code = main(["ci", "--data", data, "--mode", "ls", "--ls", "tsls",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "instrument" in capsys.readouterr().err


def test_round_trip_simulate_ci(tmp_path):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--seed", "42", "--theta", "0.2,0.5", "--n", "600",
                 "--out", out]) == 0
    run = str(tmp_path / "run")
    assert main(["ci", "--data", f"{out}_data.csv", "--alpha", "0.1",
                 "--grid-nodes", "400", "--grid-hi", "1.0", "--seed", "7",
                 "--out", run]) == 0
    rows = _rows(f"{run}_intervals.csv")
    assert {r["method"] for r in rows} == {"xi", "ls", "intersect"}
    truth = {"good1": 0.2, "good2": 0.5}
    for r in rows:
        assert r["status"] == "OK"
        assert float(r["lower"]) <= truth[r["good_id"]] <= float(r["upper"])
    assert (tmp_path / "run_profile_good1.csv").exists()


def test_byte_identical_reruns(tmp_path):
    data = _write(
        tmp_path,
        "d.csv",
        TWO_GOOD_CSV,
    )
    args = ["ci", "--data", data, "--alpha", "0.2", "--grid-nodes", "50",
            "--grid-hi", "2.0", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    a = (tmp_path / "one_intervals.csv").read_bytes()
    b = (tmp_path / "two_intervals.csv").read_bytes()
    assert a == b


def test_empty_set_yields_empty_row_not_failure(tmp_path):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--seed", "3", "--theta", "0.5", "--n", "2000",
                 "--out", out]) == 0
    run = str(tmp_path / "run")
    # grid far from the truth: every node is rejected
    code = main(["ci", "--data", f"{out}_data.csv", "--mode", "xi",
                 "--grid-lo", "0.8", "--grid-hi", "0.9", "--grid-nodes", "50",
                 "--seed", "5", "--out", run])
    assert code == 0
    rows = _rows(f"{run}_intervals.csv")
    assert rows[0]["status"] == "EMPTY"
    assert rows[0]["lower"] == ""


def test_exit_codes(tmp_path):
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    assert main(["ci", "--data", data, "--alpha", "1.5", "--out", str(tmp_path / "x")]) == 2
    assert main(["ci", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")]) == 3
    assert main(["mc", "--table", "1", "--reps", "1"]) == 2  # seed is mandatory
    # decreasing inverse demand: negative slope is a numerical error in ls mode
    bad = _write(
        tmp_path,
        "bad.csv",
        "good_id,price,quantity\na,1.0,1.0\na,1.5,2.0\na,2.0,4.0\na,2.5,8.0\n",
    )
    assert main(["ci", "--data", bad, "--mode", "ls", "--out", str(tmp_path / "x")]) == 4


def test_welfare_from_intervals_long_and_wide(tmp_path):
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\n"
        "a,intersect,0.2,0.4,0.95,OK\n"
        "b,intersect,0.5,0.8,0.95,OK\n",
    )
    long_q = _write(
        tmp_path,
        "ql.csv",
        "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\nh2,a,0.1,0.3\nh2,b,0.4,0.5\n",
    )
    wide_q = _write(
        tmp_path,
        "qw.csv",
        "id,delta_a,ystar_a,delta_b,ystar_b\nh1,0.5,0.2,0.2,0.8\nh2,0.1,0.3,0.4,0.5\n",
    )
    assert main(["welfare", "--intervals", intervals, "--query", long_q,
                 "--alpha", "0.1", "--out", str(tmp_path / "wl")]) == 0
    assert main(["welfare", "--intervals", intervals, "--query", wide_q,
                 "--alpha", "0.1", "--out", str(tmp_path / "ww")]) == 0
    rows_l = _rows(str(tmp_path / "wl_welfare.csv"))
    rows_w = _rows(str(tmp_path / "ww_welfare.csv"))
    assert rows_l == rows_w
    maxes = [float(r["wl_max"]) for r in rows_l]
    assert maxes == sorted(maxes)
    assert [r["rank"] for r in rows_l] == ["1", "2"]
    assert all(float(r["wl_min"]) <= float(r["wl_max"]) for r in rows_l)
    assert rows_l[0]["level"] == "0.9"


def test_welfare_empty_interval_propagates(tmp_path):
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\n"
        "a,intersect,,,0.95,EMPTY\n"
        "b,intersect,0.5,0.8,0.95,OK\n",
    )
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n")
    assert main(["welfare", "--intervals", intervals, "--query", query,
                 "--out", str(tmp_path / "w")]) == 0
    rows = _rows(str(tmp_path / "w_welfare.csv"))
    assert rows[0]["status"] == "EMPTY"
    assert rows[0]["wl_max"] == ""


def test_welfare_with_sum_constraint(tmp_path):
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\n"
        "a,intersect,0.2,0.6,0.95,OK\n"
        "b,intersect,0.3,0.7,0.95,OK\n",
    )
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.5\nh1,b,0.5,0.5\n")
    assert main(["welfare", "--intervals", intervals, "--query", query,
                 "--sum-to", "0.9", "--out", str(tmp_path / "w")]) == 0
    row = _rows(str(tmp_path / "w_welfare.csv"))[0]
    assert float(row["wl_min"]) <= float(row["wl_max"])


def test_diagnose_reports_unbounded_above(tmp_path):
    rng = np.random.default_rng(6)
    n = 1500
    z = rng.uniform(0.361, 3.391, n)
    w = rng.uniform(0, 1, n)
    p = 1.02 + 0.06 * z + rng.uniform(0, 0.005, n)
    eps = rng.uniform(0, 0.05, n)
    outlier = rng.random(n) < 0.08
    eps[outlier] = rng.uniform(0, 2.5, outlier.sum())
    y = 1.0 / ((p - w) / 4.0 + eps)
    lines = ["good_id,price,quantity,instrument"]
    lines += [f"gas,{p[i]},{y[i]},{z[i]}" for i in range(n)]
    data = _write(tmp_path, "gas.csv", "\n".join(lines) + "\n")
    assert main(["diagnose", "--data", data, "--alpha", "0.05", "--seed", "123",
                 "--out", str(tmp_path / "diag")]) == 0
    rows = _rows(str(tmp_path / "diag_diagnostics.csv"))
    assert rows[0]["case_id"] == "UNBOUNDED_ABOVE"


def test_mc_command_smoke(tmp_path, capsys):
    assert main(["mc", "--table", "2", "--reps", "1", "--k", "2", "--seed", "4",
                 "--out", str(tmp_path / "mc")]) == 0
    out = capsys.readouterr().out
    assert "timing" in out
    rows = _rows(str(tmp_path / "mc_mc_intervals.csv"))
    assert {r["n"] for r in rows} == {"200", "1000", "5000"}
    wl = _rows(str(tmp_path / "mc_mc_welfare.csv"))
    assert {r["label"] for r in wl} >= {"upper", "lower", "joint_coverage"}


def test_mc_table1_layout(tmp_path):
    assert main(["mc", "--table", "1", "--reps", "1", "--seed", "4",
                 "--out", str(tmp_path / "m1")]) == 0
    rows = _rows(str(tmp_path / "m1_mc_intervals.csv"))
    assert {(r["n"], r["good_id"]) for r in rows} == {
        (str(n), f"good{k}") for n in (200, 1000, 5000) for k in (1, 2, 3)
    }
    wl = _rows(str(tmp_path / "m1_mc_welfare.csv"))
    assert {r["label"] for r in wl} >= {"i", "ii", "iii", "iv"}


def test_config_file_round_trip_and_errors(tmp_path):
    cfg = RunConfig(alpha=0.07, grid_nodes=123, seed=9, sum_to=None, out="zzz")
    path = tmp_path / "run.cfg"
    cfg.to_file(str(path))
    loaded = RunConfig.from_file(str(path))
    assert loaded == cfg

    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = 0.1\nwhat is this\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(str(bad))
    assert ":2:" in str(err.value)

    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("grid_nodes = many\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(str(bad2))
    assert ":1:" in str(err.value)

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("gridnodes = 7\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(unknown))


def test_config_file_feeds_command(tmp_path):
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data = {data}\nalpha = 0.2\nmode = ls\nout = {tmp_path / 'cfgrun'}\n",
        encoding="utf-8",
    )
    assert main(["ci", "--config", str(cfg)]) == 0
    rows = _rows(str(tmp_path / "cfgrun_intervals.csv"))
    assert {r["method"] for r in rows} == {"ls"}


def test_intervals_reader_requires_unique_rows(tmp_path):
    path = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\n"
        "a,xi,0.1,0.2,0.95,OK\n"
        "a,ls,0.1,0.3,0.95,OK\n",
    )
    with pytest.raises(ConfigError):
        read_intervals_csv(path, None)
    out = read_intervals_csv(path, "ls")
    assert out["a"].upper == 0.3


def test_query_reader_validates(tmp_path):
    path = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\n")
    with pytest.raises(Exception):
        read_query_csv(path, ["a", "b"])  # h1 is missing good b
    wide = _write(tmp_path, "qw.csv", "id,d,y\nh1,0.5,0.2\n")
    with pytest.raises(SchemaError):
        read_query_csv(wide, ["a", "b"])  # needs 2K + 1 columns


def test_query_values_rejected_with_file_and_row(tmp_path, capsys):
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\n"
        "a,intersect,0.2,0.4,0.95,OK\n"
        "b,intersect,0.5,0.8,0.95,OK\n",
    )
    long_ok = "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n"
    wide_ok = "id,delta_a,ystar_a,delta_b,ystar_b\nh1,0.5,0.2,0.2,0.8\n"
    bad = [  # (query text, offending column kind, its line in the file)
        (long_ok.replace("h1,b,0.2,0.8", "h1,b,0.2,0"), "ystar", 3),
        (long_ok.replace("h1,a,0.5,0.2", "h1,a,-0.5,0.2"), "delta", 2),
        (long_ok.replace("h1,b,0.2,0.8", "h1,b,nan,0.8"), "delta", 3),
        (wide_ok.replace("0.2,0.8\n", "0.2,-1\n"), "ystar", 2),
        (wide_ok.replace("0.2,0.8\n", "0.2,inf\n"), "ystar", 2),
        (wide_ok.replace("h1,0.5,", "h1,-0.5,"), "delta", 2),
    ]
    for i, (text, kind, line) in enumerate(bad):
        query = _write(tmp_path, f"q{i}.csv", text)
        with pytest.raises(InvalidQuery) as err:
            read_query_csv(query, ["a", "b"])
        assert f"{query}: row {line}: {kind}" in str(err.value)
        capsys.readouterr()
        code = main(["welfare", "--intervals", intervals, "--query", query,
                     "--out", str(tmp_path / "w")])
        err_text = capsys.readouterr().err
        assert code == 3
        assert err_text.startswith("InvalidQuery:") and "Traceback" not in err_text


def test_wide_query_row_with_missing_cell(tmp_path):
    wide = _write(tmp_path, "qw.csv", "id,delta_a,ystar_a,delta_b,ystar_b\nh1,0.5,0.2,0.2\n")
    with pytest.raises(ParseError) as err:
        read_query_csv(wide, ["a", "b"])
    assert "row 2" in str(err.value)


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(welfarebounds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, welfarebounds.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
