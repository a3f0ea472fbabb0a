"""The package's public surface: its export list and the README's example."""

import re
from pathlib import Path

import numpy as np

import lpsubsel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    names = lpsubsel.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(lpsubsel, n)] == []


def test_readme_library_example_runs_as_printed(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    X = np.random.default_rng(3).standard_normal((60, 4))
    np.savetxt(tmp_path / "points.csv", X, delimiter=",")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    *members, selection, evaluation = capsys.readouterr().out.split()
    assert members and (selection, evaluation) == ("1", "0")
