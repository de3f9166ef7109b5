"""The suite's pytest settings turn warnings into errors.  A failing
hypothesis property must still fail only its own test: while hypothesis
reports the falsifying example it imports `mypy_extensions.TypedDict`, whose
DeprecationWarning, raised as an error inside a reporting hook, would end
the whole session with INTERNALERROR and skip every test after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_THEN_PLAIN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_failing_property(n):
    assert n < 5


def test_after_it():
    assert True
'''


def test_failing_property_fails_one_test_under_the_suite_settings(tmp_path):
    path = tmp_path / "test_property.py"
    path.write_text(PROPERTY_THEN_PLAIN)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
