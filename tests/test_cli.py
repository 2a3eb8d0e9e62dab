import contextlib
import csv
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import welfarebounds

from welfarebounds import cli
from welfarebounds.cli import (
    ingest_csv,
    main,
    read_intervals_csv,
    read_query_csv,
)
from welfarebounds.errors import (
    ConfigError,
    InvalidLevel,
    InvalidQuery,
    InvalidSample,
    ParseError,
    SchemaError,
)
from welfarebounds.regress import LsFit, theta_interval_delta
from welfarebounds.xicor import critical_value

TWO_GOOD_CSV = """good_id,price,quantity
a,1.1,2.0
a,1.4,1.5
a,1.8,1.1
b,1.2,0.9
b,1.5,0.7
b,1.9,0.5
"""


TWO_GOOD_INTERVALS = """good_id,method,lower,upper,level,status
a,ls,0.2,0.4,0.95,OK
b,ls,0.5,0.8,0.95,OK
"""
LONG_QUERY = "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n"
WIDE_QUERY = "id,delta_a,ystar_a,delta_b,ystar_b\nh1,0.5,0.2,0.2,0.8\n"


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
    # every message names the file: a run reads more than one
    for old, new, message in (("1.5,0.7", "1.5,seven", "row 6: column 'quantity' value 'seven'"),
                              ("b,1.5,0.7", ",1.5,0.7", "row 6: empty good_id")):
        path = _write(tmp_path, "d.csv", TWO_GOOD_CSV.replace(old, new))
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert str(err.value).startswith(f"{path}: {message}")


def test_non_finite_data_cell_names_file_and_row(tmp_path, capsys):
    # nan and inf parse as floats, but no data row may hold one: the fault
    # names the file, row and column like any other cell that is not a number
    text = "good_id,price,quantity,instrument\na,1.1,2.0,1\na,1.4,1.5,2\na,1.8,1.1,3\n"
    for old, new, where in (("a,1.4,1.5,2", "a,nan,1.5,2", "row 3: column 'price' value 'nan'"),
                            ("a,1.4,1.5,2", "a,-inf,1.5,2", "row 3: column 'price' value '-inf'"),
                            ("a,1.8,1.1,3", "a,1.8,1e400,3", "row 4: column 'quantity' value '1e400'"),
                            ("a,1.8,1.1,3", "a,1.8,1.1,inf", "row 4: column 'instrument' value 'inf'")):
        path = _write(tmp_path, "d.csv", text.replace(old, new))
        capsys.readouterr()
        assert main(["ci", "--data", path, "--out", str(tmp_path / "n")]) == 3
        assert capsys.readouterr().err == f"ParseError: {path}: {where} is not a number\n"
    # a rejected row's instrument is not checked
    path = _write(tmp_path, "d.csv", text + "a,0,1.0,nan\n")
    assert ingest_csv(path)[0].n == 3
    assert not list(tmp_path.glob("n_*"))


def test_file_of_only_comments_has_no_header(tmp_path):
    path = _write(tmp_path, "d.csv", "# a note\n\n   \n# another\n")
    with pytest.raises(SchemaError) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}: no header row found"


def test_ingest_rejects_nonpositive_rows(tmp_path):
    text = TWO_GOOD_CSV + "b,1.7,0.0\n"
    rejects = []
    samples = ingest_csv(_write(tmp_path, "d.csv", text), reject_log=rejects)
    assert rejects == [(8, "nonpositive price or quantity")]
    assert samples[1].n == 3


def test_ingest_too_few_observations(tmp_path, capsys):
    # GoodSample's rule, in its words; a file left with no row says so
    text = "good_id,price,quantity\na,1.0,1.0\na,1.2,0.9\n"
    path = _write(tmp_path, "d.csv", text)
    with pytest.raises(InvalidSample, match="^a: need at least three observations, got 2$"):
        ingest_csv(path)
    assert main(["ci", "--data", path, "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == "InvalidSample: a: need at least three observations, got 2\n"
    path = _write(tmp_path, "d.csv", "good_id,price,quantity\na,1.0,0\na,1.2,-1\n")
    with pytest.raises(InvalidSample) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}: no usable data rows"


def test_tsls_without_instrument_is_schema_error(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    # xi mode fits no least squares, so --ls tsls needs no instrument there
    for mode, code, written in (("ls", 3, False), ("xi", 0, True)):
        assert main(["ci", "--data", data, "--mode", mode, "--ls", "tsls", "--grid-nodes", "50",
                     "--out", str(tmp_path / mode)]) == code
        assert ("instrument" in capsys.readouterr().err) == (not written)
        assert (tmp_path / f"{mode}_intervals.csv").exists() == written


def test_welfare_from_data_tsls_without_instrument_is_schema_error(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.5,0.2\n")
    code = main(["welfare", "--data", data, "--mode", "ls", "--ls", "tsls",
                 "--query", query, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("SchemaError:") and "instrument" in err
    assert not list(tmp_path.glob("o_*.csv"))


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


def test_profile_file_names_percent_encode_the_good_id(tmp_path):
    # %, /, \ and NUL become %25, %2F, %5C and %00: one file per good, even
    # for an id that is another id's encoding
    names = {"milk/2%": "milk%2F2%25", "eggs": "eggs", "a\0b": "a%00b", "c\\d": "c%5Cd",
             "milk%2F2%25": "milk%252F2%2525"}
    data = _write(tmp_path, "d.csv", "good_id,price,quantity\n" + "".join(
        f"{gid},{p},{q}\n" for gid in names for p, q in ((1.1, 2.0), (1.4, 1.5), (1.8, 1.1))))
    assert main(["ci", "--data", data, "--mode", "xi", "--grid-nodes", "20",
                 "--out", str(tmp_path / "r")]) == 0
    assert [r["good_id"] for r in _rows(str(tmp_path / "r_intervals.csv"))] == list(names)
    assert sorted(p.name for p in tmp_path.glob("r_profile_*.csv")) == sorted(
        f"r_profile_{name}.csv" for name in names.values())


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


def test_empty_intersect_row_keeps_level_and_xi_profile(tmp_path):
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--seed", "5", "--theta", "0.4,0.7", "--n", "500",
                 "--endogeneity", "0.5", "--out", sim]) == 0
    common = ["--data", f"{sim}_data.csv", "--ls", "ols", "--seed", "9", "--grid-nodes", "150"]
    # good1's OLS slope is negative (FAILED); good2's intersect grid rejects every node
    assert main(["ci", "--mode", "all", "--out", str(tmp_path / "a")] + common) == 4
    lines = (tmp_path / "a_intervals.csv").read_text(encoding="utf-8").splitlines()
    assert "good1,intersect,,,0.975,FAILED:NonpositiveSlope" in lines
    assert "good2,intersect,,,0.975,EMPTY" in lines
    # the profile file is the xi-mode grid at its own critical value
    header = (tmp_path / "a_profile_good2.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith("critical value = 1.23959006461")
    assert main(["ci", "--mode", "intersect", "--out", str(tmp_path / "i")] + common) == 4
    assert "good2,intersect,,,0.975,EMPTY" in (tmp_path / "i_intervals.csv").read_text(encoding="utf-8")
    assert not list(tmp_path.glob("i_profile_*.csv"))


def test_exit_codes(tmp_path, capsys):
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
    # a slope whose square underflows is a numerical error too, not a traceback
    flat = _write(
        tmp_path,
        "flat.csv",
        "good_id,price,quantity\na,1.1,2e200\na,1.4,1.5e200\na,1.8,1.1e200\na,2.0,1e200\n",
    )
    capsys.readouterr()
    assert main(["ci", "--data", flat, "--mode", "ls", "--out", str(tmp_path / "f")]) == 4
    assert capsys.readouterr().err.startswith("NearZeroSlope: a: slope ")
    assert _rows(str(tmp_path / "f_intervals.csv"))[0]["status"] == "FAILED:NearZeroSlope"
    # a subnormal quantity: its reciprocal overflows, a data error up front
    tiny = _write(
        tmp_path,
        "tiny.csv",
        "good_id,price,quantity\na,1.0,1.0\na,1.5,2.0\na,2.0,1e-320\na,2.5,0.5\na,3.0,0.4\n",
    )
    capsys.readouterr()
    assert main(["ci", "--data", tiny, "--mode", "all", "--grid-nodes", "20",
                 "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("InvalidSample: a: a quantity is so small") and "Traceback" not in err
    assert not list(tmp_path.glob("t_*"))
    # a normal but tiny quantity: theta / quantity overflows on the grid and
    # the least-squares moments overflow; each mode fails as a data error
    huge = _write(
        tmp_path,
        "huge.csv",
        "good_id,price,quantity\na,1.0,1.0\na,1.5,2.0\na,2.0,1e-308\na,2.5,0.5\na,3.0,0.4\n",
    )
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["ci", "--data", huge, "--mode", "all", "--grid-nodes", "20",
                     "--out", str(tmp_path / "h")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("InvalidSample: a: ") and "Traceback" not in err
    assert [r["status"] for r in _rows(str(tmp_path / "h_intervals.csv"))] == [
        "FAILED:InvalidSample"
    ] * 3
    assert main(["simulate", "--seed", "1", "--theta", "0.2,1.5", "--out", str(tmp_path / "s")]) == 2
    assert main(["simulate", "--seed", "1", "--theta", "0,0.5", "--out", str(tmp_path / "s")]) == 2
    # a non-finite float flag is a config error that names the flag
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\na,ls,0.2,0.6,0.95,OK\nb,ls,0.3,0.7,0.95,OK\n",
    )
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n")
    welfare = ["welfare", "--intervals", intervals, "--query", query]
    for argv, flag in (
        (["ci", "--data", data, "--seed", "1", "--jitter", "inf"], "jitter"),
        (["ci", "--data", data, "--seed", "1", "--jitter", "nan"], "jitter"),
        (["ci", "--data", data, "--grid-hi", "inf"], "grid-hi"),
        (welfare + ["--sum-to", "inf"], "sum-to"),
        (welfare + ["--sum-to", "nan"], "sum-to"),
        (["simulate", "--seed", "1", "--endogeneity", "nan"], "endogeneity"),
    ):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "nf")]) == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {flag} must be finite")
    assert not list(tmp_path.glob("nf_*"))
    # mc and simulate read no alpha, so they take no --alpha flag; theta's
    # lower edge is a constant, so no command takes --floor or a floor key
    for argv in (["mc", "--table", "2", "--k", "2", "--reps", "1", "--seed", "4", "--alpha", "0.01"],
                 ["simulate", "--seed", "1", "--alpha", "0.3"],
                 ["ci", "--data", data, "--floor", "1e-6"],
                 welfare + ["--floor", "1e-6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "na")])
        assert exc.value.code == 2
    floor_cfg = _write(tmp_path, "floor.cfg", "floor = 1e-6\n")
    for argv in (["ci", "--data", data], welfare):
        capsys.readouterr()
        assert main(argv + ["--config", floor_cfg, "--out", str(tmp_path / "na")]) == 2
        assert capsys.readouterr().err == f"ConfigError: {floor_cfg}:1: unknown key 'floor'\n"
    assert not list(tmp_path.glob("na_*"))
    # a negative seed, as a flag or a config key, is a config error naming the
    # seed, and the config file's line when the file set it
    sim = ["simulate", "--theta", "0.3", "--n", "20"]
    commands = (["ci", "--data", data], sim, ["mc", "--table", "2", "--k", "1", "--reps", "1"],
                ["diagnose", "--data", data])
    neg_cfg = _write(tmp_path, "neg.cfg", "seed = -1\n")
    for argv, where in [(c + ["--seed", "-1"], "") for c in commands] + [(sim + ["--config", neg_cfg], f"{neg_cfg}:1: ")]:
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "ns")]) == 2
        assert capsys.readouterr().err == f"ConfigError: {where}seed must be nonnegative, got -1\n"
    assert not list(tmp_path.glob("ns_*"))
    # an allocation too large for memory is one line and exit 4: 10**15
    # float64s is about 8 PB, beyond any address space, so numpy refuses the
    # allocation before touching memory
    for argv in (["ci", "--mode", "xi", "--data", data, "--grid-nodes", str(10**15)],
                 ["simulate", "--seed", "1", "--n", str(10**15)]):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "m")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("MemoryError: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("m_*"))


def _three_goods_one_constant_price(tmp_path):
    rng = np.random.default_rng(1)
    lines = ["good_id,price,quantity,instrument"]
    for gid, theta in (("g01", 0.3), ("g02", 0.5), ("g03", 0.7)):
        z = rng.uniform(1.0, 2.0, 300)
        w = rng.uniform(0.0, 1.0, 300)
        p = np.full(300, 1.5) if gid == "g02" else z
        q = theta / (p - w)
        lines += [f"{gid},{float(p[i])!r},{float(q[i])!r},{float(z[i])!r}" for i in range(300)]
    return _write(tmp_path, "d.csv", "\n".join(lines) + "\n")


def test_failed_good_keeps_the_other_goods(tmp_path, capsys):
    data = _three_goods_one_constant_price(tmp_path)
    code = main(["ci", "--data", data, "--mode", "all", "--jitter", "0.005", "--seed", "1",
                 "--grid-nodes", "100", "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.count("SingularDesign: g02: price is constant") == 2
    rows = {(r["good_id"], r["method"]): r for r in _rows(str(tmp_path / "c_intervals.csv"))}
    assert len(rows) == 9
    for mode in ("ls", "intersect"):
        row = rows[("g02", mode)]
        assert row["status"] == "FAILED:SingularDesign"
        assert row["lower"] == row["upper"] == ""
        assert float(row["level"]) == pytest.approx(1 - 0.05 / 3)
    for gid in ("g01", "g03"):
        assert all(rows[(gid, m)]["status"] == "OK" for m in ("xi", "ls", "intersect"))
    for gid in ("g01", "g02", "g03"):
        assert (tmp_path / f"c_profile_{gid}.csv").exists()
    # a FAILED interval makes every household row FAILED, as EMPTY does
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\n" + "".join(
        f"h{h},{g},0.5,0.5\n" for h in range(3) for g in ("g01", "g02", "g03")))
    assert main(["welfare", "--intervals", str(tmp_path / "c_intervals.csv"), "--mode", "ls",
                 "--query", query, "--out", str(tmp_path / "w")]) == 0
    wl = _rows(str(tmp_path / "w_welfare.csv"))
    assert [r["status"] for r in wl] == ["FAILED"] * 3
    assert all(r["wl_max"] == "" for r in wl)


def test_diagnose_keeps_the_other_goods_and_names_the_failed_one(tmp_path, capsys):
    # good b has a constant price and no instrument, so its rank response is degenerate
    data = _write(tmp_path, "d.csv", "good_id,price,quantity\na,1.0,2.0\na,1.5,1.0\na,1.2,1.4\n"
                  "b,1.5,1\nb,1.5,2\nb,1.5,3\n")
    assert main(["diagnose", "--data", data, "--out", str(tmp_path / "dg")]) == 3
    lines = (tmp_path / "dg_diagnostics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[2].startswith("a,") and lines[2].endswith(",1.04029677575,WHOLE_SPACE")
    assert lines[3:] == ["b,,,1.04029677575,FAILED:DegenerateResponse"]
    assert capsys.readouterr().err == "DegenerateResponse: b: all response values are equal\n"
    # every per-good stderr line names the good exactly once; good a's xi
    # set is the whole grid, so its xi row reaches --grid-hi
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.5\nh1,b,0.5,0.5\n")
    edge = "GridEdge: a: xi interval reaches --grid-hi 6; the set may extend beyond it"
    for argv, code, edges in ((["ci", "--mode", "all"], 3, 1),
                              (["welfare", "--mode", "xi", "--query", query], 3, 1),
                              (["welfare", "--mode", "ls", "--query", query], 4, 0)):
        assert main(argv + ["--data", data, "--out", str(tmp_path / "c")]) == code
        err = capsys.readouterr().err.splitlines()
        assert err.count(edge) == edges
        failed = [line for line in err if line != edge]
        assert failed and all(line.count("b: ") == 1 for line in failed)
        assert {line.split(":")[0] for line in failed} <= {"DegenerateResponse", "SingularDesign"}


def _welfare_rows(path):
    return [(r["id"], r["status"], r["wl_min"], r["wl_max"], r["level"]) for r in _rows(path)]


def _assert_same_welfare(a, b):
    assert [r[:2] for r in a] == [r[:2] for r in b]
    for ra, rb in zip(a, b):
        for x, y in zip(ra[2:], rb[2:]):
            assert (x == y == "") or float(x) == pytest.approx(float(y), rel=1e-9)


@pytest.mark.parametrize("mode", ["xi", "ls", "intersect"])
def test_welfare_from_data_matches_ci_then_intervals(tmp_path, mode):
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--seed", "8", "--theta", "0.2,0.4,0.6", "--n", "400",
                 "--out", sim]) == 0
    # repeated rows give exact ties, so the seeded tie-breaking is exercised too
    lines = (tmp_path / "sim_data.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "sim_data.csv").write_text("".join(lines + lines[2:402:40]), encoding="utf-8")
    rng = np.random.default_rng(2)
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\n" + "".join(
        f"h{h},good{k},{rng.uniform(0, 1)!r},{rng.uniform(0.1, 1)!r}\n"
        for h in range(25) for k in (1, 2, 3)))
    common = ["--seed", "4", "--alpha", "0.1", "--grid-nodes", "200", "--grid-hi", "1.0"]
    assert main(["ci", "--data", f"{sim}_data.csv", "--mode", mode,
                 "--out", str(tmp_path / "ci")] + common) == 0
    for extra in ([], ["--sum-to", "1.1"]):
        assert main(["welfare", "--data", f"{sim}_data.csv", "--mode", mode, "--query", query,
                     "--out", str(tmp_path / "direct")] + common + extra) == 0
        assert main(["welfare", "--intervals", str(tmp_path / "ci_intervals.csv"),
                     "--query", query, "--out", str(tmp_path / "two")] + common + extra) == 0
        direct = _welfare_rows(str(tmp_path / "direct_welfare.csv"))
        assert {r[1] for r in direct} == {"OK"}
        _assert_same_welfare(direct, _welfare_rows(str(tmp_path / "two_welfare.csv")))


@pytest.mark.parametrize(
    "case, mode, code, status",
    [("empty", "xi", 0, "EMPTY"), ("failed", "ls", 4, "FAILED")],
)
def test_welfare_from_data_with_unusable_good(tmp_path, case, mode, code, status):
    if case == "empty":
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--seed", "8", "--theta", "0.2,0.8", "--n", "400",
                     "--out", sim]) == 0
        data, goods = f"{sim}_data.csv", ("good1", "good2")
    else:
        data, goods = _three_goods_one_constant_price(tmp_path), ("g01", "g02", "g03")
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\n" + "".join(
        f"h{h},{g},0.5,0.5\n" for h in range(3) for g in goods))
    common = ["--seed", "4", "--grid-nodes", "100", "--grid-lo", "0.5", "--grid-hi", "1.0"]
    assert main(["welfare", "--data", data, "--mode", mode, "--query", query,
                 "--out", str(tmp_path / "direct")] + common) == code
    assert main(["ci", "--data", data, "--mode", mode, "--out", str(tmp_path / "ci")] + common) == code
    assert main(["welfare", "--intervals", str(tmp_path / "ci_intervals.csv"), "--query", query,
                 "--out", str(tmp_path / "two")] + common) == 0
    direct = (tmp_path / "direct_welfare.csv").read_bytes()
    assert direct == (tmp_path / "two_welfare.csv").read_bytes()
    assert [r[1] for r in _welfare_rows(str(tmp_path / "direct_welfare.csv"))] == [status] * 3
    # an unmeetable sum target keeps the unusable good's status and exit code
    assert main(["welfare", "--data", data, "--mode", mode, "--query", query, "--sum-to", "-1",
                 "--out", str(tmp_path / "sum")] + common) == code
    assert (tmp_path / "sum_welfare.csv").read_bytes() == direct


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
    # a query with no individuals writes a header-only file, box and sum alike
    for layout, text in (("long", "id,good_id,delta,ystar\n"),
                         ("wide", "id,delta_a,ystar_a,delta_b,ystar_b\n")):
        query = _write(tmp_path, f"q0_{layout}.csv", text)
        for extra in ([], ["--sum-to", "1.0"]):
            out = tmp_path / f"w0_{layout}"
            assert main(["welfare", "--intervals", intervals, "--query", query,
                         "--out", str(out)] + extra) == 0
            assert _rows(f"{out}_welfare.csv") == []


def test_welfare_header_states_no_alpha(tmp_path):
    # --alpha sets nothing under --intervals: the rows' level comes from the file
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\na,ls,0.2,0.6,0.95,OK\nb,ls,0.3,0.7,0.95,OK\n",
    )
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n")
    assert main(["welfare", "--intervals", intervals, "--query", query,
                 "--alpha", "0.01", "--out", str(tmp_path / "w")]) == 0
    header = (tmp_path / "w_welfare.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == (
        "# welfare-loss bounds per individual in units of the numeraire;"
        " 'level' is the joint box level"
    )
    assert [r["level"] for r in _rows(str(tmp_path / "w_welfare.csv"))] == ["0.9"]


def test_welfare_empty_interval_propagates(tmp_path, capsys):
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n"
                   "h2,a,0.9,0.2\nh2,b,0.9,0.8\nh0,a,0.1,0.2\nh0,b,0.1,0.8\n")
    # an interval wholly below the positivity floor is as empty as an EMPTY row;
    # the rows keep the query's order, with empty bounds and level
    for row in ("a,intersect,,,0.95,EMPTY", "a,ls,0,5e-7,0.975,OK"):
        intervals = _write(
            tmp_path,
            "iv.csv",
            f"good_id,method,lower,upper,level,status\n{row}\nb,intersect,0.5,0.8,0.95,OK\n",
        )
        (tmp_path / "w_welfare.csv").unlink(missing_ok=True)
        assert main(["welfare", "--intervals", intervals, "--query", query,
                     "--out", str(tmp_path / "w")]) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "w_welfare.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert lines == ["rank,id,wl_min,wl_max,level,status", "1,h1,,,,EMPTY", "2,h2,,,,EMPTY", "3,h0,,,,EMPTY"]


def test_welfare_with_sum_constraint(tmp_path, capsys):
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\n"
        "a,intersect,0.2,0.6,0.95,OK\n"
        "b,intersect,0.3,0.7,0.95,OK\n",
    )
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.5\nh1,b,0.5,0.5\n"
                   "h2,a,0.1,0.5\nh2,b,0.2,0.5\n")
    assert main(["welfare", "--intervals", intervals, "--query", query,
                 "--sum-to", "0.9", "--out", str(tmp_path / "w")]) == 0
    row = _rows(str(tmp_path / "w_welfare.csv"))[0]
    assert float(row["wl_min"]) <= float(row["wl_max"])
    # a target no theta in the box meets (sums span [0.5, 1.3]) empties the set:
    # EMPTY rows, exit 0 and nothing on stderr, as for an interval below the floor
    header_only = _write(tmp_path, "q0.csv", "id,good_id,delta,ystar\n")
    for target in ("0.1", "1.4", "-1"):
        for q, ids in ((query, {"h1", "h2"}), (header_only, set())):
            capsys.readouterr()
            assert main(["welfare", "--intervals", intervals, "--query", q,
                         "--sum-to", target, "--out", str(tmp_path / "e")]) == 0
            assert capsys.readouterr().err == ""
            rows = _rows(str(tmp_path / "e_welfare.csv"))
            assert {r["id"] for r in rows} == ids
            assert all(r["status"] == "EMPTY" and r["wl_max"] == "" for r in rows)


def test_welfare_where_c_over_theta_overflows(tmp_path, capsys):
    # delta * ystar = 1e305 over theta = 1e-6 overflows: wl_min is the loss at
    # (1e-6, 0.3), box and slice alike, with nothing on stderr
    intervals = _write(
        tmp_path,
        "iv.csv",
        "good_id,method,lower,upper,level,status\n"
        "a,ls,0.0000001,0.6,0.95,OK\n"
        "b,ls,0.3,0.7,0.95,OK\n",
    )
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,1e305,1\nh1,b,0.2,0.8\n")
    on_slice = 0.2 * math.log(1e305 / 0.2) + 0.7 * math.log1p(0.16 / 0.7)  # at (0.2, 0.7)
    for extra, wl_min in (([], 0.128949), (["--sum-to", "0.9"], on_slice)):
        capsys.readouterr()
        assert main(["welfare", "--intervals", intervals, "--query", query,
                     "--out", str(tmp_path / "w")] + extra) == 0
        assert capsys.readouterr().err == ""
        row = _rows(str(tmp_path / "w_welfare.csv"))[0]
        assert float(row["wl_min"]) == pytest.approx(wl_min, abs=1e-6)
        assert float(row["wl_min"]) < float(row["wl_max"])


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


def test_diagnose_stat_at_zero_is_the_ci_profile_at_zero(tmp_path, capsys):
    from test_golden import _tie_good_rows

    # the golden test's data; with --jitter the tie good's order comes from its seed
    assert main(["simulate", "--seed", "1", "--theta", "0.2,0.5", "--n", "300",
                 "--out", str(tmp_path / "sim")]) == 0
    data = _write(tmp_path, "data.csv", (tmp_path / "sim_data.csv").read_text(encoding="utf-8")
                  + "\n".join(_tie_good_rows()) + "\n")
    common = ["--data", data, "--seed", "3", "--jitter", "0.01"]
    assert main(["ci", "--mode", "xi", "--grid-lo", "0", "--grid-nodes", "300", "--grid-hi", "1.5",
                 "--out", str(tmp_path / "ci")] + common) == 0
    assert main(["diagnose", "--out", str(tmp_path / "dg")] + common) == 0
    capsys.readouterr()
    diag = {r["good_id"]: r["stat_at_zero"] for r in _rows(str(tmp_path / "dg_diagnostics.csv"))}
    assert list(diag) == ["good1", "good2", "tie"]
    for good, stat in diag.items():
        first = _rows(str(tmp_path / f"ci_profile_{good}.csv"))[0]
        assert (first["theta"], first["stat"]) == ("0", stat)


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
    for name in ("m1_mc_intervals.csv", "m1_mc_welfare.csv"):
        header = (tmp_path / name).read_text(encoding="utf-8").splitlines()[0]
        assert "; joint alpha = 0.1" in header


def _parsed(monkeypatch, argv):
    """The namespace main(argv) hands its command, which is not run."""
    seen = []
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    return seen[0]


def test_config_file_round_trip_and_errors(tmp_path, monkeypatch, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a run\nalpha = 0.07\ngrid-nodes = 123  # dashed key\nseed = 9\nsum_to = none\nout = zzz\n",
        encoding="utf-8",
    )
    loaded = _parsed(monkeypatch, ["welfare", "--config", str(path)])
    flags = _parsed(monkeypatch, ["welfare", "--alpha", "0.07", "--grid-nodes", "123",
                                  "--seed", "9", "--out", "zzz"])
    assert vars(loaded) == dict(vars(flags), config=str(path))
    assert loaded.sum_to is None

    for name, text, where in (("bad.cfg", "alpha = 0.1\nwhat is this\n", ":2: expected key = value"),
                              ("bad2.cfg", "grid_nodes = many\n", ":1: bad value for grid_nodes"),
                              ("unknown.cfg", "gridnodes = 7\n", ":1: unknown key 'gridnodes'")):
        cfg = _write(tmp_path, name, text)
        capsys.readouterr()
        assert main(["welfare", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {cfg}{where}")


def test_every_flag_is_a_config_key_of_its_command(tmp_path, monkeypatch, capsys):
    # a key is its flag's name without the dashes, parsed as the flag is
    _, subparsers = cli._build_parser()
    values = {int: "7", float: "0.25", None: "x.csv"}
    for command, sub in subparsers.items():
        for action in sub._actions:
            if action.dest in ("help", "config"):
                continue
            flag = action.option_strings[-1]
            if action.choices:
                text = str(next(c for c in action.choices if c != action.default))
            else:
                text = values[action.type]
            cfg = _write(tmp_path, "one.cfg", f"{flag.lstrip('-')} = {text}\n")
            from_file = _parsed(monkeypatch, [command, "--config", cfg])
            from_flag = _parsed(monkeypatch, [command, flag, text])
            assert vars(from_file) == dict(vars(from_flag), config=cfg), (command, flag)
            assert getattr(from_file, action.dest) != action.default, (command, flag)
    # a flag beats the file, before or after --config
    cfg = _write(tmp_path, "two.cfg", "alpha = 0.07\nmode = xi\n")
    for argv in (["ci", "--alpha", "0.2", "--config", cfg], ["ci", "--config", cfg, "--alpha", "0.2"]):
        got = _parsed(monkeypatch, argv)
        assert (got.alpha, got.mode) == (0.2, "xi")
    # a value outside the flag's choices names the file and line; the old
    # long names of --ls, --k and --n are no keys
    for command, text, message in (
        ("ci", "mode = bogus\n", ":1: bad value for mode: 'bogus' is not one of xi, ls, intersect, all"),
        ("mc", "# study\ntable = 3\n", ":2: bad value for table: 3 is not one of 1, 2"),
        ("ci", "ls_fit = ols\n", ":1: unknown key 'ls_fit'"),
        ("mc", "k_goods = 5\n", ":1: unknown key 'k_goods'"),
        ("simulate", "n_obs = 50\n", ":1: unknown key 'n_obs'"),
    ):
        cfg = _write(tmp_path, "bad.cfg", text)
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == f"ConfigError: {cfg}{message}\n"


def test_config_file_range_error_names_file_and_line(tmp_path, capsys):
    # a value the file sets that fails a range check names the file and
    # line, as a value outside a flag's choices does; a flag that overrides
    # the file is the command line's and carries no location
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    for text, message in (
        ("alpha = 2\n", ":1: alpha must lie strictly in (0, 1), got 2.0"),
        ("# run\njitter = inf\n", ":2: jitter must be finite, got inf"),
        ("grid-nodes = 1\n", ":1: grid-nodes must be at least 2, got 1"),
        ("grid-lo = 3\ngrid_hi = 2\n", ":2: grid-hi (2.0) must exceed grid-lo (3.0)"),
    ):
        cfg = _write(tmp_path, "range.cfg", text)
        capsys.readouterr()
        assert main(["ci", "--data", data, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"ConfigError: {cfg}{message}\n"
    cfg = _write(tmp_path, "range.cfg", "alpha = 0.1\n")
    assert main(["ci", "--data", data, "--config", cfg, "--alpha", "2", "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == "ConfigError: alpha must lie strictly in (0, 1), got 2.0\n"


def test_library_range_error_names_the_config_line(tmp_path, capsys):
    # a rule that a library type owns is that type's ConfigError, and it
    # names the config line that set the first parameter the rule reads
    missing = str(tmp_path / "missing.csv")
    for argv, text, message in (
        (["simulate", "--seed", "1"], "n = 2\n", ":1: need a sample size of at least 3, got 2"),
        (["simulate", "--seed", "1"], "# truth\ntheta = 0.2,1.5\n", ":2: theta entries must lie in (0, 1]"),
        (["simulate", "--seed", "1"], "theta = 0.2,x\n", ":1: bad --theta list '0.2,x': could not convert"
                                                          " string to float: 'x'"),
        (["mc", "--table", "2", "--seed", "1"], "reps = 0\n", ":1: need at least one replication"),
        (["mc", "--table", "2", "--seed", "1", "--reps", "1"], "k = 0\n", ":1: need at least one good, got K=0"),
        # the grid is built before the data file is read
        (["ci", "--data", missing], "grid-lo = -1\n", ":1: grid-lo must be nonnegative, got -1.0"),
        (["welfare", "--data", missing, "--mode", "xi"], "grid_hi = 0\n",
         ":1: grid-hi (0.0) must exceed grid-lo (1e-06)"),
    ):
        cfg = _write(tmp_path, "lib.cfg", text)
        capsys.readouterr()
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "lib")]) == 2
        assert capsys.readouterr().err == f"ConfigError: {cfg}{message}\n"
    assert not list(tmp_path.glob("lib_*"))


def test_config_faults_come_before_the_data_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for argv, message in (
        (["welfare", "--data", missing], "pick one --mode (xi, ls, or intersect) when computing from raw data"),
        (["ci", "--data", missing, "--jitter", "0.1"], "--jitter requires --seed for reproducible noise"),
        (["ci", "--data", missing, "--alpha", "2"], "alpha must lie strictly in (0, 1), got 2.0"),
        (["ci", "--data", missing, "--jitter", "-1", "--seed", "1"], "jitter must be nonnegative, got -1.0"),
        (["diagnose", "--data", missing, "--alpha", "0"], "alpha must lie strictly in (0, 1), got 0.0"),
        (["welfare", "--data", missing, "--mode", "ls", "--alpha", "1"], "alpha must lie strictly in (0, 1), got 1.0"),
    ):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "cf")]) == 2
        assert capsys.readouterr().err == f"ConfigError: {message}\n"
    # the grid is built first, so its fault comes before alpha's
    capsys.readouterr()
    assert main(["ci", "--data", missing, "--alpha", "2", "--grid-nodes", "1", "--out", str(tmp_path / "cf")]) == 2
    assert capsys.readouterr().err == "ConfigError: grid-nodes must be at least 2, got 1\n"


def test_jitter_needs_an_instrument_column(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    assert main(["ci", "--data", data, "--jitter", "0.1", "--seed", "1", "--out", str(tmp_path / "j")]) == 2
    assert capsys.readouterr().err == "ConfigError: --jitter requires an instrument column\n"
    assert not list(tmp_path.glob("j_*"))


def test_negative_endogeneity_is_a_config_error(tmp_path, capsys):
    # price - shock is positive for every draw exactly when endogeneity >= 0,
    # so a negative value fails whatever the draw, naming the parameter
    cfg = _write(tmp_path, "e.cfg", "# run\nendogeneity = -0.01\n")
    for argv, where, value in ((["--n", "200", "--endogeneity", "-0.5"], "", "-0.5"),
                               (["--n", "1000", "--config", cfg], f"{cfg}:2: ", "-0.01")):
        capsys.readouterr()
        assert main(["simulate", "--seed", "1", *argv, "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == f"ConfigError: {where}endogeneity must be nonnegative, got {value}\n"
    assert not list(tmp_path.glob("e_*"))


def test_a_flag_the_command_does_not_read_is_not_range_checked(tmp_path, monkeypatch, capsys):
    # the grid flags, --alpha and --jitter under welfare --intervals and --k
    # under mc --table 1 are read by nothing; a non-finite float flag is
    # still an error
    intervals = _write(tmp_path, "iv.csv", TWO_GOOD_INTERVALS)
    query = _write(tmp_path, "q.csv", LONG_QUERY)
    welfare = ["welfare", "--intervals", intervals, "--query", query, "--out", str(tmp_path / "w")]
    assert main(welfare) == 0
    written = (tmp_path / "w_welfare.csv").read_bytes()
    # welfare --intervals takes its levels from the file, and smooths no instrument
    for ignored in (["--grid-nodes", "1", "--grid-lo", "-1", "--grid-hi", "-2"], ["--alpha", "2", "--jitter", "-1"]):
        assert main(welfare + ignored) == 0
        assert (tmp_path / "w_welfare.csv").read_bytes() == written
    assert _parsed(monkeypatch, ["mc", "--table", "1", "--k", "0", "--reps", "1", "--seed", "1"]).k == 0
    capsys.readouterr()
    assert main(welfare + ["--grid-hi", "nan"]) == 2
    assert capsys.readouterr().err == "ConfigError: grid-hi must be finite, got nan\n"


def test_xi_interval_at_a_grid_edge_is_reported(tmp_path, capsys):
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--seed", "1", "--theta", "0.2,0.3", "--n", "1000", "--out", sim]) == 0
    # good1's interval ends at the grid's first node, then at its last; good2's
    # ends inside the first grid, and the second grid, below its θ = 0.3,
    # accepts none of its nodes
    beyond = ("GridEdge: good2: no xi node of [--grid-lo 1e-06, --grid-hi 0.22] was accepted;"
              " the set may lie beyond the grid")
    for grid, rows, edge, more in (
        (["--grid-lo", "0.2", "--grid-hi", "0.35", "--grid-nodes", "300"],
         [("0.2", "0.242642140468", "OK"), ("0.250668896321", "0.349498327759", "OK")], "--grid-lo 0.2", []),
        (["--grid-hi", "0.22", "--grid-nodes", "500"],
         [("0.165771789579", "0.22", "OK"), ("", "", "EMPTY")], "--grid-hi 0.22", [beyond]),
    ):
        out = str(tmp_path / "ge")
        capsys.readouterr()
        assert main(["ci", "--data", f"{sim}_data.csv", "--mode", "xi", "--seed", "1", *grid, "--out", out]) == 0
        err = [f"GridEdge: good1: xi interval reaches {edge}; the set may extend beyond it"] + more
        assert capsys.readouterr().err.splitlines() == err
        assert [(r["lower"], r["upper"], r["status"]) for r in _rows(f"{out}_intervals.csv")] == rows
    # welfare --data prints the same lines, and the empty set makes every household EMPTY
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,good1,0.5,0.2\nh1,good2,0.2,0.8\n")
    assert main(["welfare", "--data", f"{sim}_data.csv", "--mode", "xi", "--seed", "1", *grid,
                 "--query", query, "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == err
    assert [r["status"] for r in _rows(f"{out}_welfare.csv")] == ["EMPTY"]


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


def test_config_key_the_command_does_not_read_is_config_error(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    for argv, text, where in (
        (["simulate", "--seed", "1", "--n", "50"], "alpha = 0.01\n", ":1: key 'alpha'"),
        (["mc", "--table", "1", "--reps", "1", "--seed", "1"], "# study\ndata = x.csv\n", ":2: key 'data'"),
        (["ci", "--data", data], "mode = ls\ntheta = 0.5\n", ":2: key 'theta'"),
    ):
        cfg = _write(tmp_path, "run.cfg", text)
        capsys.readouterr()
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "nr")]) == 2
        err = capsys.readouterr().err
        assert err == f"ConfigError: {cfg}{where} is not read by '{argv[0]}'\n"
    assert not list(tmp_path.glob("nr_*"))


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


@pytest.mark.parametrize(
    "row, message",
    [
        ("b,intersect,0.5", "row 3: expected 6 cells, got 3"),
        ("b,intersect,0.4,0.2,0.95,OK", "row 3: lower 0.4 exceeds upper 0.2"),
        ("b,ls,nan,nan,0.975,OK", "row 3: endpoints nan, nan must be finite"),
        ("b,ls,0.2,inf,0.975,OK", "row 3: endpoints 0.2, inf must be finite"),
        ("b,ls,0.2,0.6,1.5,OK", "row 3: level 1.5 lies outside [0, 1]"),
        ("b,ls,0.2,x,0.975,OK", "row 3: column 'upper' value 'x' is not a number"),
    ],
)
def test_intervals_reader_bad_rows_name_file_and_line(tmp_path, capsys, row, message):
    path = _write(
        tmp_path,
        "iv.csv",
        f"good_id,method,lower,upper,level,status\na,intersect,0.1,0.2,0.95,OK\n{row}\n",
    )
    with pytest.raises(ParseError) as err:
        read_intervals_csv(path, None)
    assert f"{path}: {message}" in str(err.value)
    query = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n")
    capsys.readouterr()
    assert main(["welfare", "--intervals", path, "--query", query,
                 "--out", str(tmp_path / "w")]) == 3
    assert capsys.readouterr().err.startswith("ParseError:")


def test_query_reader_validates(tmp_path, capsys):
    path = _write(tmp_path, "q.csv", "id,good_id,delta,ystar\nh1,a,0.5,0.2\n")
    with pytest.raises(InvalidQuery) as err:
        read_query_csv(path, ["a", "b"])  # h1 is missing good b
    assert str(err.value) == f"{path}: individual 'h1': missing goods ['b']"
    wide = _write(tmp_path, "qw.csv", "id,d,y\nh1,0.5,0.2\n")
    with pytest.raises(SchemaError):
        read_query_csv(wide, ["a", "b"])  # needs 2K + 1 columns
    # a cell that is no number names the query file, not only its row
    intervals = _write(tmp_path, "iv.csv", TWO_GOOD_INTERVALS)
    for text, col in ((LONG_QUERY.replace("h1,a,0.5,0.2", "h1,a,abc,1"), "delta"),
                      (WIDE_QUERY.replace("h1,0.5,", "h1,abc,"), "delta_a")):
        query = _write(tmp_path, "qbad.csv", text)
        message = f"{query}: row 2: column {col!r} value 'abc' is not a number"
        with pytest.raises(ParseError) as err:
            read_query_csv(query, ["a", "b"])
        assert str(err.value) == message
        capsys.readouterr()
        assert main(["welfare", "--intervals", intervals, "--query", query,
                     "--out", str(tmp_path / "w")]) == 3
        assert capsys.readouterr().err == f"ParseError: {message}\n"


def test_wide_query_columns_follow_the_good_order(tmp_path, capsys):
    # a wide column named for a known good must stand where the good order
    # puts that good; free-form names are read by position
    intervals = _write(tmp_path, "iv.csv", TWO_GOOD_INTERVALS)
    swapped = {
        "id,delta_b,ystar_b,delta_a,ystar_a\nh1,0.0,0.8,0.5,0.2\n": "column 2 is 'delta_b'",
        "id,ystar_a,delta_a,delta_b,ystar_b\nh1,0.2,0.5,0.0,0.8\n": "column 2 is 'ystar_a'",
        "id,d1,y1,DELTA_A,ystar_b\nh1,0.5,0.2,0.0,0.8\n": "column 4 is 'delta_a'",
    }
    for i, (text, what) in enumerate(swapped.items()):
        query = _write(tmp_path, f"qs{i}.csv", text)
        with pytest.raises(SchemaError) as err:
            read_query_csv(query, ["a", "b"])
        assert str(err.value).startswith(f"{query}: {what} where the good order puts ")
        capsys.readouterr()
        assert main(["welfare", "--intervals", intervals, "--query", query,
                     "--out", str(tmp_path / "w")]) == 3
        assert capsys.readouterr().err.startswith("SchemaError: ")
    assert not list(tmp_path.glob("w_*"))
    free = _write(tmp_path, "qf.csv", "id,d1,y1,d2,y2\nh1,0.5,0.2,0.2,0.8\n")
    named = _write(tmp_path, "qn.csv", WIDE_QUERY)
    (ids_f, q_f), (ids_n, q_n) = read_query_csv(free, ["a", "b"]), read_query_csv(named, ["a", "b"])
    assert ids_f == ids_n == ["h1"]
    assert q_f.delta.tolist() == q_n.delta.tolist() and q_f.y_star.tolist() == q_n.y_star.tolist()


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
    bad = [  # (query text, what the message names, its line in the file)
        (long_ok.replace("h1,b,0.2,0.8", "h1,b,0.2,0"), "ystar", 3),
        (long_ok.replace("h1,a,0.5,0.2", "h1,a,-0.5,0.2"), "delta", 2),
        (long_ok.replace("h1,b,0.2,0.8", "h1,b,nan,0.8"), "delta", 3),
        (wide_ok.replace("0.2,0.8\n", "0.2,-1\n"), "ystar", 2),
        (wide_ok.replace("0.2,0.8\n", "0.2,inf\n"), "ystar", 2),
        (wide_ok.replace("h1,0.5,", "h1,-0.5,"), "delta", 2),
        (long_ok + "h1,c,0.1,0.3\n", "unknown good_id 'c'", 4),
        (long_ok.replace("h1,b,", ",b,"), "empty individual id", 3),
        (wide_ok.replace("h1,", ","), "empty individual id", 2),
        (long_ok.replace("h1,a,0.5,0.2", "h1,a,1e200,1e200"), "delta times ystar", 2),
        (wide_ok.replace("0.2,0.8\n", "1e200,1e200\n"), "delta times ystar", 2),
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
    # a repeated (id, good_id) pair in the long layout names both rows
    dup = _write(tmp_path, "qdup.csv", long_ok + "h1,a,0.9,0.2\n")
    with pytest.raises(InvalidQuery) as err:
        read_query_csv(dup, ["a", "b"])
    assert f"{dup}: rows 2 and 4" in str(err.value)
    assert main(["welfare", "--intervals", intervals, "--query", dup,
                 "--out", str(tmp_path / "w")]) == 3
    # so is a repeated id in the wide layout
    dup_wide = _write(tmp_path, "qdupw.csv", wide_ok + "h1,0.1,0.3,0.4,0.5\n")
    with pytest.raises(InvalidQuery) as err:
        read_query_csv(dup_wide, ["a", "b"])
    assert str(err.value) == f"{dup_wide}: rows 2 and 3: individual 'h1' is listed twice"
    assert main(["welfare", "--intervals", intervals, "--query", dup_wide,
                 "--out", str(tmp_path / "w")]) == 3


# query values at each rule's edge: zeros, negatives, subnormals, non-finite
# values, and pairs whose product overflows
_QUERY_VALUES = st.sampled_from([0.0, -0.0, -1.0, -5e-324, 5e-324, 2.2e-308, 0.5, 1e200,
                                 math.inf, -math.inf, math.nan])


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(_QUERY_VALUES, _QUERY_VALUES), min_size=1, max_size=3), long=st.booleans())
def test_query_reader_rejects_exactly_what_welfare_query_rejects(pairs, long):
    # one home for the value rules: a one-row query file fails exactly when
    # WelfareQuery on its values does, and by a rule that names the row
    goods = ["a", "b", "c"][: 1 if long else len(pairs)]
    pairs = pairs[: len(goods)]
    if long:
        text = "id,good_id,delta,ystar\n" + "".join(f"h1,a,{d!r},{y!r}\n" for d, y in pairs)
    else:
        text = ("id," + ",".join(f"delta_{g},ystar_{g}" for g in goods) + "\nh1,"
                + ",".join(f"{d!r},{y!r}" for d, y in pairs) + "\n")
    delta, y_star = (np.array([[pair[c] for pair in pairs]]) for c in (0, 1))

    def fault(build):
        try:
            build()
        except InvalidQuery as exc:
            return str(exc)
        return None

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        read = fault(lambda: read_query_csv(path, goods))
    if fault(lambda: welfarebounds.WelfareQuery(delta, y_star)) is None:
        assert read is None
    else:
        assert read is not None and read.startswith(f"{path}: row 2: ")


def test_wide_query_row_with_missing_cell(tmp_path):
    wide = _write(tmp_path, "qw.csv", "id,delta_a,ystar_a,delta_b,ystar_b\nh1,0.5,0.2,0.2\n")
    with pytest.raises(ParseError) as err:
        read_query_csv(wide, ["a", "b"])
    assert "row 2" in str(err.value)


def test_cli_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency: no scipy module at all; the
    # import starts no thread, and the process pool's modules are imported
    # only by a call that fans work out over more than one worker
    src = os.path.dirname(os.path.dirname(welfarebounds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, threading, welfarebounds, welfarebounds.cli;"
             " print(sorted(m for m in sys.modules if m.split('.')[0] in"
             " ('scipy', 'multiprocessing', 'concurrent')), threading.active_count())")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[] 1"


def test_least_squares_bits_do_not_depend_on_the_cpu_count():
    # Above ~10 000 rows OpenBLAS splits a dot product over its threads, so
    # a fit's last bits followed the CPU count until the CLI pinned numpy to
    # one BLAS thread.  The child sees no thread setting but the CLI's own.
    if shutil.which("taskset") is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs taskset and at least two CPUs in the affinity mask")
    src = os.path.dirname(os.path.dirname(welfarebounds.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    probe = (
        "import welfarebounds.cli\n"
        "from welfarebounds.regress import fit_inverse_demand\n"
        "from welfarebounds.simulate import DgpConfig, draw_sample\n"
        "for n in (10_001, 50_000, 200_000):\n"
        "    sample = draw_sample(DgpConfig(theta=[0.4], n=n, seed=1, endogeneity=0.5))[0]\n"
        "    fit = fit_inverse_demand(sample, 'tsls')\n"
        "    print(n, fit.beta_hat.hex(), fit.se_beta.hex())\n"
    )
    one_cpu = ["taskset", "-c", str(min(os.sched_getaffinity(0)))]
    outs = [
        subprocess.run(prefix + [sys.executable, "-c", probe], env=env, capture_output=True,
                       text=True, timeout=120, check=True).stdout
        for prefix in ([], one_cpu)
    ]
    assert len(outs[0].splitlines()) == 3
    assert outs[0] == outs[1]


def test_level_that_rounds_to_one_is_invalid_level(tmp_path, capsys):
    with pytest.raises(InvalidLevel):
        critical_value(1e-17)
    fit = LsFit(beta_hat=2.0, intercept_hat=0.0, se_beta=0.5, n=30, mode="OLS")
    with pytest.raises(InvalidLevel):
        theta_interval_delta(fit, 1.0 - 2.0**-53)
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    for argv in (["ci", "--mode", "xi"], ["diagnose"]):
        capsys.readouterr()
        assert main(argv + ["--data", data, "--alpha", "1e-17", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("InvalidLevel: ") and "Traceback" not in err
    assert not list(tmp_path.glob("x_*"))


# flag: (valid file text, line given a non-UTF-8 byte, error name, exit code)
_NON_UTF8_CASES = {
    "--data": (TWO_GOOD_CSV, 4, "ParseError", 3),
    "--query": (LONG_QUERY, 3, "ParseError", 3),
    "--config": ("mode = ls\nseed = 1\n", 2, "ConfigError", 2),
}


@pytest.mark.parametrize("flag", list(_NON_UTF8_CASES))
def test_non_utf8_input_is_named_and_a_bom_is_read(tmp_path, capsys, flag):
    text, line, error, code = _NON_UTF8_CASES[flag]
    data = _write(tmp_path, "d.csv", TWO_GOOD_CSV)
    intervals = _write(tmp_path, "iv.csv", TWO_GOOD_INTERVALS)
    argv = {
        "--data": ["ci", "--mode", "ls", "--data"],
        "--query": ["welfare", "--intervals", intervals, "--query"],
        "--config": ["ci", "--data", data, "--config"],
    }[flag]
    lines = text.encode().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(b"\n", b"\xff\n")
    outputs = {}
    for name, raw in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode()),
                      ("bad", b"".join(lines))):
        path = tmp_path / f"in_{name}"
        path.write_bytes(raw)
        capsys.readouterr()
        got = main(argv + [str(path), "--out", str(tmp_path / name)])
        err = capsys.readouterr().err
        outputs[name] = [f.read_bytes() for f in sorted(tmp_path.glob(f"{name}_*"))]
        if name == "bad":
            assert got == code and "Traceback" not in err
            if error == "ParseError":
                assert err == f"ParseError: {path}: row {line}: byte 0xff is not UTF-8\n"
            else:
                assert err.startswith(f"ConfigError: cannot read config file {path}: ")
        else:
            assert got == 0, err
    # a leading byte-order mark, as spreadsheet "CSV UTF-8" exports write it, changes nothing
    assert outputs["bom"] == outputs["plain"] != []
    assert outputs["bad"] == []


# file kind: (valid file text, line whose last cell is padded past the csv field limit)
_LONG_CELL_CASES = {
    "data": (TWO_GOOD_CSV, 3),
    "query": (LONG_QUERY, 2),
    "intervals": (TWO_GOOD_INTERVALS, 3),
}


@pytest.mark.parametrize("kind", list(_LONG_CELL_CASES))
def test_a_cell_past_the_csv_field_limit_is_a_parse_error(tmp_path, capsys, kind):
    # the padded cell is valid once stripped; the csv module refuses it for its length
    text, line = _LONG_CELL_CASES[kind]
    limit = csv.field_size_limit()
    lines = text.splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace("\n", " " * limit + "\n")
    path = _write(tmp_path, "long.csv", "".join(lines))
    argv = {
        "data": ["ci", "--mode", "ls", "--data", path],
        "query": ["welfare", "--intervals", _write(tmp_path, "iv.csv", TWO_GOOD_INTERVALS), "--query", path],
        "intervals": ["welfare", "--query", _write(tmp_path, "q.csv", LONG_QUERY), "--intervals", path],
    }[kind]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == f"ParseError: {path}: row {line}: field larger than field limit ({limit})\n"
    assert not list(tmp_path.glob("x_*"))


_ODD_CELLS = st.one_of(
    st.sampled_from(["", "a", "b", "h1", "0", "-1", "1e-320", "1e308", "nan", "-inf",
                     "EMPTY", "FAILED:X", "xi", "ls", '"', '"a,b"', "#", "\ufeff"]),
    st.floats().map(repr),
    st.text(max_size=4),
)


@st.composite
def _malformed(draw, valid: str) -> bytes:
    """`valid` with data cells swapped or added and a row dropped, then raw bytes spliced in."""
    header, *rows = [line.split(",") for line in valid.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(row)))
        row[j:j + 1] = [draw(_ODD_CELLS)]
    lines = [header] + rows
    drop = draw(st.integers(-1, len(lines) - 1))
    raw = "".join(",".join(r) + "\n" for i, r in enumerate(lines) if i != drop).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.binary(min_size=1, max_size=8)) + raw[at:]
    return raw


@settings(max_examples=80, deadline=None)
@given(
    data=_malformed(TWO_GOOD_CSV),
    intervals=_malformed(TWO_GOOD_INTERVALS),
    query=st.one_of(_malformed(LONG_QUERY), _malformed(WIDE_QUERY)),
)
def test_cli_error_contract_under_fuzzing(data, intervals, query):
    # every malformed input ends in a documented exit code, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, raw in (("d.csv", data), ("iv.csv", intervals), ("q.csv", query)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(raw)
        out = os.path.join(tmp, "out")
        for argv in (
            ["ci", "--mode", "ls", "--data", paths["d.csv"], "--out", out],
            ["welfare", "--intervals", paths["iv.csv"], "--query", paths["q.csv"], "--out", out],
        ):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()


# per column: a binary exponent, moderate or extreme, and the special values
# (zero and -1 make a rejected row); a quantity's reciprocal must stay finite
_PRICE = (st.integers(-1074, 1000), [5e-324, 1.0 + 2.0**-52, 1.7e308, 0.0, -1.0])
_QUANTITY = (st.integers(-1020, 1000), [2.2250738585072014e-308, 1.0 + 2.0**-52, 1.7e308, 0.0, -1.0])


@st.composite
def _numeric_demand(draw) -> str:
    """A two-good demand CSV whose cells are all numbers: extreme, repeated and near-equal rows."""
    lines = ["good_id,price,quantity,instrument"]
    for good in ("a", "b"):
        cells = []
        for wide, special in (_PRICE, _QUANTITY):
            e = draw(st.one_of(st.integers(-4, 4), wide))
            # numbers near the column's magnitude, one in four a special value
            near = st.floats(0.5, 2.0).map(lambda v, e=e: math.ldexp(v, e))
            cells.append(st.one_of(near, near, near, st.sampled_from(special)))
        rows = [[draw(cells[0]), draw(cells[1]), draw(st.floats(-1e6, 1e6))]
                for _ in range(draw(st.integers(3, 8)))]
        for _ in range(draw(st.integers(0, 3))):
            price, quantity, _ = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                # a near-equal row: the next float up in price, same quantity
                price = float(np.nextafter(price, np.inf))
            rows.append([price, quantity, draw(st.floats(-1e6, 1e6))])
        lines += [f"{good},{p!r},{q!r},{z!r}" for p, q, z in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    data=_numeric_demand(),
    grid_hi=st.sampled_from(["2.0", "1e6", "1e150", "1e300", "1.7e308"]),
    jitter=st.sampled_from(["0", "0.005"]),
)
def test_cli_error_contract_under_numeric_fuzzing(data, grid_hi, jitter):
    # parseable files whose numbers reach the grid's extreme exponents end
    # in a documented exit code, never a traceback or a numpy warning
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
        out = os.path.join(tmp, "out")
        for mode in ("xi", "all"):
            argv = ["ci", "--mode", mode, "--data", path, "--out", out, "--seed", "1",
                    "--grid-nodes", "40", "--grid-hi", grid_hi, "--jitter", jitter]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
