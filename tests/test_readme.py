import os
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert "WelfareBounds(" in capsys.readouterr().out


def _pipeline_block() -> str:
    """The README's shell block that runs simulate, ci, welfare and diagnose."""
    blocks = re.findall(r"```sh\n(# synthetic data -> intervals -> welfare bounds.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_pipeline_runs(tmp_path):
    # every command of the block exits 0 under bash -e, with welfarebounds
    # the package's command line run by this interpreter
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    script = f'welfarebounds() {{ {shlex.quote(sys.executable)} -m welfarebounds.cli "$@"; }}\n' + _pipeline_block()
    run = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    welfare = (tmp_path / "wl_welfare.csv").read_text(encoding="utf-8").splitlines()
    # a comment, the header and two households
    assert len(welfare) == 4 and all(line.endswith(",OK") for line in welfare[2:])
    assert (tmp_path / "diag_diagnostics.csv").exists()
