"""The test configuration in pyproject.toml reports failing hypothesis examples.

Warnings are errors there; a failing hypothesis test must still show its
falsifying example and let the rest of the session run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_FIRST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_fails(x):
    assert x < 5


def test_b_runs():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_example.py").write_text(FAILING_FIRST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
    assert run.returncode == 1
