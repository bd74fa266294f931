"""The repo's pytest settings report a failing property test as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    # hypothesis explains a failure with a module that warns on import; the
    # warning filters must let that through and still fail the test
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
