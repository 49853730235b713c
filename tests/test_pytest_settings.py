"""The repository's pytest settings report a failing hypothesis test as a
failure and go on with the session.

On a failure hypothesis imports libcst to describe the example, and
libcst's use of mypy_extensions.TypedDict raises a DeprecationWarning,
which the settings otherwise turn into an error inside pytest's report
hook (an INTERNALERROR that stops the session).  This runs the settings
on a failing and a passing test in a child pytest, in tmp_path.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    res = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
                          "-p", "no:cacheprovider", "test_pair.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    out = res.stdout + res.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
