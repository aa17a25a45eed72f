"""Package modules use each other only through public names."""

import ast
from pathlib import Path

import pytest

import xdfrelax

PACKAGE = Path(xdfrelax.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def private_reach_ins(source: str) -> list[str]:
    """Every ``<package module>._name`` use and private-name import in source."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("xdfrelax"):
            continue  # an import from another package
        origin = (node.module or "").removeprefix("xdfrelax").lstrip(".")
        for alias in node.names:
            if not origin and alias.name in MODULES:
                aliases.add(alias.asname or alias.name)
            elif origin in MODULES and alias.name.startswith("_"):
                found.append(f"{origin}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_finder_flags_private_access():
    assert private_reach_ins("from . import qsim\nqsim._bits(3)\n") == ["qsim._bits"]
    assert private_reach_ins("from xdfrelax import qsim as q\nq._x\n") == ["q._x"]
    assert private_reach_ins("from .lagrange import _eight_fold\n") == ["lagrange._eight_fold"]
    assert private_reach_ins("from . import qsim\nqsim.energy\nqsim.__name__\n") == []
    assert private_reach_ins("import numpy as np\nnp._core\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_reach_ins(path):
    assert private_reach_ins(path.read_text(encoding="utf-8")) == []
