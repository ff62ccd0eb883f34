"""The repository's pytest configuration reports a failing property test like any other."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report imports libcst, which warns that mypy_extensions.TypedDict is
    # deprecated; with every warning an error, that warning ended the session in INTERNALERROR
    # and the tests after the failing one never ran
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_pair.py").write_text(ONE_FAILING_ONE_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_pair.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
