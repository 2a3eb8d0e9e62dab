"""Byte contract of the primary outputs.

Every command runs in-process on fixed inputs, and each file it writes must
have the sha256 pinned below.  A change that alters an output on purpose
updates that file's hash here and says so in CHANGES.md.
"""

import hashlib

from welfarebounds.cli import main

GOLDEN = {
    "dg_diagnostics.csv": "2604965dad9fd1fc972e8b9f4f6f41c1ac9442973310d8883d45790c563b6a32",
    "jit_intervals.csv": "30e3c0fe1d4d917f5a55017fc7436eaf1536250bdc4e9eaca85ada42053c14da",
    "jit_profile_good1.csv": "2f804c5407707a804196d354286fac386452ac0edb01a573178f2c664c3f97fe",
    "jit_profile_good2.csv": "715bb8a43e76dd0bf59bc4059bf3c75d6084a389c35ea4e899a056103adcb3c7",
    "jit_profile_tie.csv": "982cd141ff78de0615d965fdeaea53f425c6bc22ca802c8906fa8dc873fba000",
    "mc1_mc_intervals.csv": "528ec73bbc9c1944262c8c2e82882bbdccf96ec2dc28cbe9f3607dd1ec161c77",
    "mc1_mc_welfare.csv": "803afb63d3d9d1fcab4b5ab2233774c6ecea6a799f170c94248356baf1e59797",
    "mc2_mc_intervals.csv": "93ca177641bdc09020df808a8c96beb69feb023e6582b53b9500fde66d3886c7",
    "mc2_mc_welfare.csv": "c1dab287e1f5d18e1117bf0e9baad7a2a95fd5d4e2c14167e7e74b1f7787b8df",
    "run_intervals.csv": "6d8654b43ac2d0f65c171253270db2863e2b618333afbf7c3e00bde5a77a0a40",
    "run_profile_good1.csv": "0e4bcbbc5ee5bdfaea2578f4a35b71afd4ad0e35635441176d1a9ee668d2202a",
    "run_profile_good2.csv": "7513338ef0fd8cfe0a16ceaf53bb5aabdb2b79b07d20e2270ecda0f2119491e0",
    "run_profile_tie.csv": "941ff8b5415296fa8293a377b5d2b27c82b42cee4225530cece4bcdcde211521",
    "sim_data.csv": "11fecfd5b9407e737ae5587c4c393e29251ecfed4ac9d3f5c663ad090892bfe8",
    "w_failed_welfare.csv": "46dc9727f4481862715ec7019c13a982838f55a2e9a7fec4c54ad2d623ab5fdb",
    "w_long_box_welfare.csv": "4a5bba8bb3aa2b8d09f2327c53be4e167ae5f498643215dbcf0761984be8742f",
    "w_long_sum_welfare.csv": "0bc4e935834cf7b9d0af6d1c26fd3172d4127dc8b2e608596b36ef9cd76e37f5",
    "w_wide_box_welfare.csv": "4a5bba8bb3aa2b8d09f2327c53be4e167ae5f498643215dbcf0761984be8742f",
    "w_wide_sum_welfare.csv": "0bc4e935834cf7b9d0af6d1c26fd3172d4127dc8b2e608596b36ef9cd76e37f5",
    "wd_intersect_welfare.csv": "01f6542b52010be3c6da8b65cbd01b16aa6c4eda3e60f8905fb6fcaf7ac8c85e",
}


def _tie_good_rows() -> list[str]:
    # 80 rows from quasi-random (z, w) and the first four of them again,
    # instrument included: repeated rows tie the residual at every node
    rows = []
    for j in range(84):
        z, w = 1.0 + j % 80 * 0.6180339887 % 1.0, j % 80 * 0.4142135624 % 1.0 * 0.5
        rows.append(f"tie,{z!r},{0.4 / (z - w)!r},{z!r}")
    return rows


def test_primary_outputs_keep_their_bytes(tmp_path, capsys):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out.splitlines()

    def out(stem):
        return str(tmp_path / stem)

    run(["simulate", "--seed", "1", "--theta", "0.2,0.5", "--n", "300", "--out", out("sim")])
    data = tmp_path / "data.csv"
    data.write_text(
        (tmp_path / "sim_data.csv").read_text(encoding="utf-8")
        + "\n".join(_tie_good_rows()) + "\n",
        encoding="utf-8",
    )
    lines = run(["ci", "--data", str(data), "--mode", "all", "--alpha", "0.1", "--grid-nodes",
                 "300", "--grid-hi", "1.5", "--seed", "3", "--out", out("run")])
    assert lines == [f"wrote {out('run')}_intervals.csv"] + [
        f"wrote {out('run')}_profile_{g}.csv" for g in ("good1", "good2", "tie")
    ]
    # The jitter gives each repeated row of the tie good its own instrument
    # value, so the good's tie order decides its profile.
    lines = run(["ci", "--data", str(data), "--mode", "all", "--alpha", "0.1", "--grid-nodes",
                 "300", "--grid-hi", "1.5", "--seed", "3", "--jitter", "0.01", "--out", out("jit")])
    assert lines == [f"wrote {out('jit')}_intervals.csv"] + [
        f"wrote {out('jit')}_profile_{g}.csv" for g in ("good1", "good2", "tie")
    ]
    run(["diagnose", "--data", str(data), "--seed", "3", "--out", out("dg")])
    # h4 has no price change on good2, a zero loss term on both solvers' paths
    households = [(f"h{h}", [(0.1 * (h + 1) * (h != 4 or k != 1), 0.5 + 0.2 * k) for k in range(3)])
                  for h in range(5)]
    long_q = tmp_path / "q_long.csv"
    long_q.write_text("id,good_id,delta,ystar\n" + "".join(
        f"{ind},{g},{d!r},{y!r}\n"
        for ind, pairs in households for g, (d, y) in zip(("good1", "good2", "tie"), pairs)
    ), encoding="utf-8")
    wide_q = tmp_path / "q_wide.csv"
    wide_q.write_text("id,delta_good1,ystar_good1,delta_good2,ystar_good2,delta_tie,ystar_tie\n"
                      + "".join(f"{ind}," + ",".join(f"{d!r},{y!r}" for d, y in pairs) + "\n"
                                for ind, pairs in households), encoding="utf-8")
    for layout, query in (("long", long_q), ("wide", wide_q)):
        for name, extra in (("box", []), ("sum", ["--sum-to", "1.2"])):
            lines = run(["welfare", "--intervals", f"{out('run')}_intervals.csv", "--mode", "xi",
                         "--query", str(query), "--out", out(f"w_{layout}_{name}")] + extra)
            assert lines == [f"wrote {out(f'w_{layout}_{name}')}_welfare.csv"]
    # the box straight from the data, one intersect interval per good
    lines = run(["welfare", "--data", str(data), "--mode", "intersect", "--alpha", "0.1", "--grid-nodes", "300",
                 "--grid-hi", "1.5", "--seed", "3", "--query", str(long_q), "--out", out("wd_intersect")])
    assert lines == [f"wrote {out('wd_intersect')}_welfare.csv"]
    # a FAILED row fails the box, ahead of the EMPTY row
    failed = tmp_path / "iv_failed.csv"
    failed.write_text("good_id,method,lower,upper,level,status\ngood1,ls,0.15,0.25,0.9,OK\n"
                      "good2,ls,,,0.9,FAILED:NonpositiveSlope\ntie,ls,,,0.9,EMPTY\n", encoding="utf-8")
    lines = run(["welfare", "--intervals", str(failed), "--query", str(long_q), "--out", out("w_failed")])
    assert lines == [f"wrote {out('w_failed')}_welfare.csv"]
    run(["mc", "--table", "1", "--reps", "2", "--seed", "11", "--out", out("mc1")])
    run(["mc", "--table", "2", "--k", "5", "--reps", "2", "--seed", "11", "--out", out("mc2")])
    assert {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name not in ("data.csv", "iv_failed.csv", "q_long.csv", "q_wide.csv")
    } == GOLDEN
