"""Package modules use each other only through public names, their
dataclasses hold no mutable containers, every name they export exists and
every module constant they define is read."""

import ast
import re
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


MUTABLE_FACTORIES = {"dict", "list", "set"}


def _terminal_name(node) -> str | None:
    """``f`` for ``f``, ``m.f``, ``f(...)`` and ``m.f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def mutable_dataclass_fields(source: str) -> list[str]:
    """``Class.name`` of every dataclass field declared with
    ``field(default_factory=dict|list|set)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef)
                and any(_terminal_name(d) == "dataclass" for d in node.decorator_list)):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Call)
                    and _terminal_name(stmt.value) == "field"):
                continue
            if any(kw.arg == "default_factory" and _terminal_name(kw.value) in MUTABLE_FACTORIES
                   for kw in stmt.value.keywords):
                found.append(f"{node.name}.{stmt.target.id}")
    return found


def test_finder_flags_mutable_dataclass_fields():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    cache: dict = field(default_factory=dict, repr=False)\n"
        "    items: list = dataclasses.field(default_factory=list)\n"
        "    frames: tuple = field(init=False)\n"
        "    names: tuple = field(default_factory=tuple)\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    seen: set = field(default_factory=set)\n"
        "class C:\n"
        "    table: dict = field(default_factory=dict)\n"
    )
    assert mutable_dataclass_fields(source) == ["A.cache", "A.items", "B.seen"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_mutable_dataclass_fields(path):
    assert mutable_dataclass_fields(path.read_text(encoding="utf-8")) == []


def undefined_exports(source: str) -> list[str]:
    """Names listed in the module's ``__all__`` that no top-level statement binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if getattr(target, "id", None) == "__all__":
                    exported = [ast.literal_eval(elt) for elt in stmt.value.elts]
    return [name for name in exported if name not in bound]


def test_finder_flags_undefined_exports():
    source = (
        "import numpy as np\n"
        "from .qsim import Frame as F\n"
        "__all__ = ['f', 'C', 'X', 'np', 'F', 'gone']\n"
        "X, Y = 1, 2\n"
        "def f(): pass\n"
        "class C: pass\n"
    )
    assert undefined_exports(source) == ["gone"]
    assert undefined_exports("x = 1\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_exports_are_defined(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


TESTS = Path(__file__).parent
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def unread_constants(source: str, readers: list[str]) -> list[str]:
    """Module-level UPPER_CASE names bound in source that neither source nor
    any reader loads by name or as an attribute."""
    defined = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined += [t.id for t in targets
                        if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    read = set()
    for text in [source, *readers]:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_finder_flags_unread_constants():
    source = (
        "import numpy as np\n"
        "TOL = 1e-10\n"
        "GUARD: float = 1e-8\n"
        "STEPS = (1, 2)\n"
        "CAP = 8\n"
        "Mixed_Case = 3\n"
        "def f():\n"
        "    LOCAL = 1\n"
        "    return STEPS\n"
    )
    reader = "from xdfrelax import m\nm.CAP\nfrom xdfrelax.m import GUARD\n"
    assert unread_constants(source, [reader]) == ["TOL", "GUARD"]
    assert unread_constants(source, [reader, "GUARD + m.TOL\n"]) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_constants(path):
    readers = [p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))]
    assert unread_constants(path.read_text(encoding="utf-8"), readers) == []
