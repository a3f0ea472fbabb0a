"""The repository's pytest configuration, run on tests of its own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5
'''


def test_a_failing_property_test_is_reported_as_a_failure(tmp_path):
    # on a failure Hypothesis imports its patch writer, and so libcst,
    # whose import warns DeprecationWarning; under the error filter that
    # warning used to end the session with an INTERNALERROR (exit 3)
    # before any later test ran or the falsifying example was printed
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in run.stdout and "Falsifying example" in run.stdout, output
    assert "INTERNALERROR" not in output
