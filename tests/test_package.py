"""The package's public surface: its lazy export list, the CLI's BLAS thread
setting, the README's example, and no unused import in its modules. Each
import check runs in a fresh interpreter, since this one has loaded numpy
and every module already."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(code, **env):
    """Run `code` in a fresh interpreter whose environment sets none of the
    BLAS thread variables but those in `env`; fail on a nonzero exit."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(base, PYTHONPATH=str(SRC), **env), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_numpy():
    _fresh("import sys, lpsubsel\n"
           "assert 'numpy' not in sys.modules, sorted(sys.modules)")


def test_every_export_resolves_once():
    # each name once, and each resolves to the object its module defines
    _fresh("""
import importlib, lpsubsel
names = lpsubsel.__all__
assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
assert set(names) == {"__version__", *lpsubsel._MODULE_OF}
for module, exported in lpsubsel._EXPORTS.items():
    defined = vars(importlib.import_module(f"lpsubsel.{module}"))
    for name in exported:
        obj = getattr(lpsubsel, name)
        assert obj is defined[name], name
        assert getattr(obj, "__module__", f"lpsubsel.{module}") == f"lpsubsel.{module}", name
assert set(names) <= set(dir(lpsubsel))
""")


def test_an_unknown_name_raises():
    _fresh("""
import lpsubsel
try:
    lpsubsel.nope
except AttributeError as exc:
    assert "nope" in str(exc)
else:
    raise SystemExit("lpsubsel.nope resolved")
try:
    from lpsubsel import nope
except ImportError:
    pass
else:
    raise SystemExit("from lpsubsel import nope resolved")
""")


def test_a_star_import_binds_every_export():
    _fresh("""
import lpsubsel
namespace = {}
exec("from lpsubsel import *", namespace)
assert [n for n in lpsubsel.__all__ if n not in namespace] == []
""")


_REPORT_BLAS = ("import os, sys\nimport lpsubsel.cli\n"
                "print([os.environ.get(v) for v in lpsubsel.cli._BLAS_THREADS])\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/task is Linux's")
def test_the_cli_runs_one_blas_thread_by_default():
    out = _fresh(_REPORT_BLAS + "assert 'numpy' in sys.modules\n"
                 "print(len(os.listdir('/proc/self/task')))")
    assert out.split("\n")[:2] == ["['1', '1', '1']", "1"]


def test_the_cli_keeps_a_blas_thread_count_the_environment_sets():
    assert _fresh(_REPORT_BLAS, OMP_NUM_THREADS="2") == "[None, '2', None]\n"


def test_the_cli_keeps_the_environment_of_a_process_that_loaded_numpy():
    assert _fresh("import numpy\n" + _REPORT_BLAS) == "[None, None, None]\n"


def test_runs_that_fork_no_helper_never_load_it(tmp_path):
    # the parse helper's module loads only for a file large enough that a
    # pass may fork it; loading it costs a run time and memory
    path, out = tmp_path / "small.csv", tmp_path / "report"
    np.savetxt(path, np.random.default_rng(5).standard_normal((300, 4)), delimiter=",")
    _fresh(f"""
import sys
import lpsubsel.cli
import numpy as np
from lpsubsel import stream
from lpsubsel.experiment import ExperimentSpec, run_experiment
assert {path.stat().st_size} < stream._HELPER_MIN_BYTES
X = np.random.default_rng(6).standard_normal((300, 4))
run_experiment(ExperimentSpec(input=X, k=2, t=3, seed=0))
assert lpsubsel.cli.main(["--input", {str(path)!r}, "--out", {str(out)!r}, "--k", "2",
                          "--t", "3"]) == 0
assert "lpsubsel._parse_helper" not in sys.modules
""")


def test_readme_library_example_runs_as_printed(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    X = np.random.default_rng(3).standard_normal((60, 4))
    np.savetxt(tmp_path / "points.csv", X, delimiter=",")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    *members, selection, evaluation = capsys.readouterr().out.split()
    assert members and (selection, evaluation) == ("1", "0")


@pytest.mark.parametrize("path", sorted((SRC / "lpsubsel").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # no linter ships with the package's test tools, so the check is an AST
    # walk: every name an import binds is read somewhere in the module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - read) == []
