"""The process entry, cli.run, against sys.exit(main()), in fresh interpreters.

run() ends the process at os._exit once its exit handlers have run; what a
user sees must be what sys.exit(main()) gives: the exit code, stdout,
stderr and the files written.  stdout is block-buffered here (no
PYTHONUNBUFFERED), as when a user pipes it, so the exit's flush is the one
that writes it.
"""

import os
import subprocess
import sys

import pytest

import welfarebounds

SRC = os.path.dirname(os.path.dirname(welfarebounds.__file__))

ENTRIES = {
    "run": ["-m", "welfarebounds.cli"],
    "main": ["-c", "import sys; from welfarebounds.cli import main; sys.exit(main())"],
}


def _env():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _inputs(tmp_path):
    (tmp_path / "d.csv").write_text(
        "good_id,price,quantity\n"
        + "".join(f"{g},{1.0 + 0.1 * i},{t / (1.0 + 0.1 * i - 0.05 * (i % 3))}\n"
                  for g, t in (("a", 0.3), ("b", 0.5)) for i in range(12))
    )
    (tmp_path / "nocol.csv").write_text("good_id,price\na,1.0\n")
    (tmp_path / "down.csv").write_text("good_id,price,quantity\na,1.0,1.0\na,1.5,2.0\na,2.0,4.0\na,2.5,8.0\n")
    (tmp_path / "iv.csv").write_text(
        "good_id,method,lower,upper,level,status\na,ls,0.2,0.4,0.95,OK\nb,ls,0.5,0.8,0.95,OK\n"
    )
    (tmp_path / "q.csv").write_text("id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n")


def _run(entry, argv, tmp_path, stdout=subprocess.PIPE):
    """One command: (exit code, stdout, stderr, {file: bytes}) in a directory of its own."""
    cwd = tmp_path / entry
    cwd.mkdir()
    run = subprocess.run([sys.executable, *ENTRIES[entry], *argv], env=_env(), cwd=cwd,
                         stdout=stdout, stderr=subprocess.PIPE, timeout=60)
    files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
    return run.returncode, run.stdout, run.stderr.decode(), files


@pytest.mark.parametrize("argv, code", [
    (["ci", "--data", "../d.csv", "--mode", "all", "--grid-nodes", "50", "--seed", "1", "--out", "c"], 0),
    (["welfare", "--intervals", "../iv.csv", "--query", "../q.csv", "--out", "w"], 0),
    (["ci", "--data", "../d.csv", "--alpha", "1.5", "--out", "c"], 2),
    (["ci", "--data", "../nocol.csv", "--out", "c"], 3),
    (["ci", "--data", "../down.csv", "--mode", "ls", "--out", "c"], 4),
    (["ci", "--no-such-flag"], 2),
    (["--help"], 0),
], ids=["ok", "ok_welfare", "config_error", "data_error", "failed_good", "usage_error", "help"])
def test_run_is_sys_exit_of_main(tmp_path, argv, code):
    _inputs(tmp_path)
    ran = _run("run", argv, tmp_path)
    assert ran[0] == code
    assert ran == _run("main", argv, tmp_path)


def test_run_on_a_closed_stdout_is_sys_exit_of_main(tmp_path):
    # the reader of stdout is gone before the command writes: the exit's
    # flush fails, and Python reports it and exits 120 in both entries
    _inputs(tmp_path)
    argv = ["welfare", "--intervals", "../iv.csv", "--query", "../q.csv", "--out", "w"]
    ran = {}
    for entry in ENTRIES:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            ran[entry] = _run(entry, argv, tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
    code, _, err, files = ran["run"]
    assert code == 120
    assert err.startswith("Exception ignored") and err.endswith("\nBrokenPipeError: [Errno 32] Broken pipe\n")
    assert list(files) == ["w_welfare.csv"]
    assert ran["run"] == ran["main"]


@pytest.mark.parametrize("tracer, late", [
    ("", ""),
    ("sys.settrace(lambda *args: None)", "an earlier exit handler ran\n"),
], ids=["untraced", "traced"])
def test_exit_handlers_registered_before_the_command_run_only_under_a_tracer(tmp_path, tracer, late):
    # a tracer or profiler (coverage, say) saves its data in such a handler
    _inputs(tmp_path)
    script = f"""
import atexit, sys
{tracer}
atexit.register(print, "an earlier exit handler ran")
from welfarebounds.cli import run
sys.argv[1:] = ["welfare", "--intervals", "iv.csv", "--query", "q.csv", "--out", "w"]
run()
"""
    ran = subprocess.run([sys.executable, "-c", script], env=_env(), cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert (ran.returncode, ran.stdout, ran.stderr) == (0, "wrote w_welfare.csv\n" + late, "")


def test_cprofile_still_prints_its_report(tmp_path):
    _inputs(tmp_path)
    ran = subprocess.run([sys.executable, "-m", "cProfile", "-m", "welfarebounds.cli", "welfare", "--intervals",
                          "iv.csv", "--query", "q.csv", "--out", "w"], env=_env(), cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert ran.returncode == 0 and ran.stderr == ""
    assert ran.stdout.startswith("wrote w_welfare.csv\n")
    assert "function calls" in ran.stdout and "Ordered by" in ran.stdout
