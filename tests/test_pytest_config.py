"""The suite's own pytest settings: a failing test fails alone."""
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_falsified_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis's plugin warns while it reports a falsifying example; under
    # the repo's filterwarnings that warning must not stop the run
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
