"""What each entry point imports, checked in fresh interpreters.

The package resolves its public names on first use, and the CLI imports
the grid, Monte Carlo and statistics modules only in the commands that run
them, so a command pays the import time of the layers it uses alone.
"""

import ast
import os
import pathlib
import subprocess
import sys

import welfarebounds

SRC = os.path.dirname(os.path.dirname(welfarebounds.__file__))


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=60, check=True)


def test_importing_the_package_loads_no_submodule():
    probe = "import sys, welfarebounds; print(sorted(m for m in sys.modules if m.startswith('welfarebounds')))"
    assert _python("-c", probe).stdout.strip() == "['welfarebounds']"


def test_welfare_from_intervals_loads_no_grid_monte_carlo_or_statistics_module(tmp_path):
    (tmp_path / "iv.csv").write_text(
        "good_id,method,lower,upper,level,status\na,ls,0.2,0.4,0.95,OK\nb,ls,0.5,0.8,0.95,OK\n"
    )
    (tmp_path / "q.csv").write_text("id,good_id,delta,ystar\nh1,a,0.5,0.2\nh1,b,0.2,0.8\n")
    # -X importtime names each module the command imports, on stderr
    run = _python("-X", "importtime", "-m", "welfarebounds.cli", "welfare", "--intervals", "iv.csv",
                  "--query", "q.csv", "--out", "w", cwd=tmp_path)
    assert run.stdout == "wrote w_welfare.csv\n"
    loaded = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"welfarebounds.errors", "welfarebounds.regress", "welfarebounds.welfare"} <= loaded
    unwanted = {"welfarebounds.confset", "welfarebounds.simulate", "welfarebounds.xicor",
                "welfarebounds._fanout", "statistics"}
    assert sorted(loaded & unwanted) == []


def test_every_public_name_resolves_on_first_use():
    probe = """
import welfarebounds
names = welfarebounds.__all__
assert names == sorted(set(names)) and names
listed = set(dir(welfarebounds))
star = {}
exec("from welfarebounds import *", star)
assert set(names) <= listed and set(names) <= star.keys()
assert all(getattr(welfarebounds, name) is star[name] for name in names)
try:
    welfarebounds.no_such_name
except AttributeError as exc:
    print(exc)
"""
    out = _python("-c", probe).stdout.strip()
    assert out == "module 'welfarebounds' has no attribute 'no_such_name'"


def test_library_code_raises_only_the_package_errors():
    # every `raise Name(...)` names a class of errors.py, which the CLI maps
    # to an exit code, or a function of its own module that builds one
    # (cli._not_a_number); a re-raise (`raise exc`) and a raise of a
    # looked-up callable (`raise rules[i][1](i)`) pass, and __getattr__'s
    # AttributeError is the one the module protocol asks for
    package = pathlib.Path(welfarebounds.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    ours = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    hits = []
    for path in sorted(package.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        builders = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
        hits += [
            f"{path.name}:{node.lineno}: {node.exc.func.id}"
            for node in ast.walk(module)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id not in ours | builders
        ]
    allowed = [hit for hit in hits if hit.startswith("__init__.py:") and hit.endswith(": AttributeError")]
    assert len(allowed) == 1 and hits == allowed
