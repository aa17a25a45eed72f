"""The test session's own configuration: warnings are errors, yet a failing
property test is reported like any other failure, and every third-party
module a test imports is declared in the project metadata."""

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"
TESTS = Path(__file__).resolve().parent

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


def undeclared_imports(sources: list[str], declared: set[str], local: set[str]) -> list[str]:
    """Top-level modules the sources import absolutely that are neither in the
    standard library, nor in ``local``, nor in ``declared``."""
    imported = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return sorted(imported - set(sys.stdlib_module_names) - local - declared)


def test_finder_flags_undeclared_imports():
    source = ("import json, numpy as np\nfrom hypothesis import given\n"
              "from _common import x\nfrom . import sibling\nimport scipy.linalg\n")
    assert undeclared_imports([source], {"numpy"}, {"_common"}) == ["hypothesis", "scipy"]
    assert undeclared_imports([source], {"numpy", "hypothesis", "scipy"}, {"_common"}) == []


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(CONFIG.read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    local = {path.stem for path in TESTS.glob("*.py")} | {project["name"]}
    sources = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))]
    assert undeclared_imports(sources + [FAILING_PROPERTY], declared, local) == []
