"""The warning filters in ``pyproject.toml`` let a failing hypothesis test
fail on its own: the session goes on and reports the tests after it."""

import shutil
import subprocess
import sys
from pathlib import Path

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
