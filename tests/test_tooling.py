"""The test session's own configuration: warnings are errors, yet a failing
property test is reported like any other failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(max_examples=5, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10))
    def test_property_fails(x):
        assert x < 0


    def test_after_the_failure():
        pass
""")


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY, encoding="ascii")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
