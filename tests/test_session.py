"""The repository's pytest settings report a failing Hypothesis property as
one failed test, so the rest of the session still runs."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_FILE = """\
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_a_failing_property(n):
    assert n < 5


def test_a_passing_test():
    assert True
"""


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE)
    # Hypothesis writes its example database and patches under the working
    # directory, which is the temp directory here
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
