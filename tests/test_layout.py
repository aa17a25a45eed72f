"""Package modules use each other only through public names, their
dataclasses hold no mutable containers and compare by identity when they
hold arrays, every name they export exists and every public function and
class is exported, no two of them define the same top-level function or
class, only ``givens.read_only`` calls ``setflags``, only
``qsim.ansatz_table`` constructs a ``GateTable``, they import only numpy and
the standard library, every module constant, function, class, method and
field they define is read, and every CLI flag a subcommand registers is read
by that subcommand. The README's CLI flag table lists each subcommand's flags,
and every ``xdfrelax`` example line in it parses.

The referees live in ``verify``: no production module imports it, the
referee names are defined nowhere else, it loads no gate or fabric kernel,
and its names count as read when a test reads them. Every other package name
must be read by the package itself. The direct RDM oracle in ``qsim`` loads
no frame, gate or Hamiltonian kernel, and only ``cli`` runs it.

Each source file is read and parsed once per session (``read``, ``parse``).
"""

import argparse
import ast
import inspect
import re
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import xdfrelax
from xdfrelax import cli, givens, hammodel, vqe, xdf

PACKAGE = Path(xdfrelax.__file__).parent
TESTS = Path(__file__).parent
PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(TESTS.glob("*.py"))
MODULES = {path.stem for path in PACKAGE_FILES} - {"__init__"}


@lru_cache(maxsize=None)
def read(path: Path) -> str:
    """A source file's text, read once per session."""
    return path.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def parse(source: str) -> ast.Module:
    """The syntax tree of a source text, parsed once per session; the
    finders only read it."""
    return ast.parse(source)


def private_reach_ins(source: str) -> list[str]:
    """Every ``<package module>._name`` use and private-name import in source."""
    tree = parse(source)
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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_private_reach_ins(path):
    assert private_reach_ins(read(path)) == []


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
    for node in ast.walk(parse(source)):
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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_mutable_dataclass_fields(path):
    assert mutable_dataclass_fields(read(path)) == []


def array_records_compared_by_value(source: str) -> list[str]:
    """Every dataclass with a field annotated as an ndarray that keeps the
    generated ``__eq__`` (and with frozen=True, ``__hash__``): comparing two
    instances would compare arrays and raise."""
    found = []
    for node in ast.walk(parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            if _terminal_name(deco) != "dataclass":
                continue
            eq = next((kw.value for kw in getattr(deco, "keywords", ())
                       if kw.arg == "eq"), None)
            if isinstance(eq, ast.Constant) and eq.value is False:
                continue
            if any(isinstance(stmt, ast.AnnAssign) and "ndarray" in ast.unparse(stmt.annotation)
                   for stmt in node.body):
                found.append(node.name)
    return found


def test_finder_flags_array_records_compared_by_value():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: np.ndarray\n"
        "@dataclass\n"
        "class B:\n"
        "    x: np.ndarray | None = None\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class C:\n"
        "    x: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: float\n"
    )
    assert array_records_compared_by_value(source) == ["A", "B"]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_array_records_compare_by_identity(path):
    assert array_records_compared_by_value(read(path)) == []


def _twin_records():
    """Two distinct, equal-valued instances of every array-holding record."""
    def build():
        ham = hammodel.synth_hamiltonian(3, 1, 1, 2)
        return {
            "GivensFabric": givens.decompose(np.eye(3)),
            "Hamiltonian": ham,
            "EffectiveOperators": xdf.factorize(ham, xdf.TruncationPolicy.exact()).eff,
            "Perturbation": hammodel.random_one_body_perturbation(3, 1),
            "VQEResult": vqe.VQEResult(np.zeros(2), -1.0, 0.0, True, 3, np.eye(2)),
        }

    first, second = build(), build()
    return [pytest.param(first[name], second[name], id=name) for name in first]


@pytest.mark.parametrize("a,b", _twin_records())
def test_array_records_compare_and_hash_without_raising(a, b):
    assert a == a and a != b  # identity, whatever the values
    assert a in {a} and b not in {a}


def undefined_exports(source: str) -> list[str]:
    """Names listed in the module's ``__all__`` that no top-level statement binds."""
    tree = parse(source)
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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_exports_are_defined(path):
    assert undefined_exports(read(path)) == []


def unexported_names(source: str) -> list[str]:
    """Public top-level functions and classes of a module with ``__all__``
    that it does not list there."""
    tree = parse(source)
    exported = None
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in stmt.targets):
            exported = {ast.literal_eval(elt) for elt in stmt.value.elts}
    if exported is None:
        return []
    return [stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in exported]


def test_finder_flags_unexported_names():
    source = ("__all__ = ['f', 'TOL']\nTOL = 1\ndef f(): pass\ndef g(): pass\n"
              "class C: pass\ndef _h(): pass\n")
    assert unexported_names(source) == ["g", "C"]
    assert unexported_names("def g(): pass\n") == []


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_public_names_are_exported(path):
    assert unexported_names(read(path)) == []


def duplicate_definitions(sources: dict[str, str]) -> list[str]:
    """``name: module, module`` for every top-level function or class name
    that more than one of the named sources defines."""
    homes = {}
    for module, source in sorted(sources.items()):
        for stmt in parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(stmt.name, []).append(module)
    return [f"{name}: {', '.join(mods)}" for name, mods in homes.items() if len(mods) > 1]


def test_finder_flags_duplicate_definitions():
    sources = {
        "a": "def _read_only(x): pass\nclass Plan: pass\ndef used(): pass\n",
        "b": "def _read_only(x): pass\ndef f():\n    def used(): pass\n",
        "c": "class Plan: pass\nPlan2 = Plan\n",
    }
    assert duplicate_definitions(sources) == ["_read_only: a, b", "Plan: a, c"]
    assert duplicate_definitions({"a": sources["a"]}) == []


def test_no_helper_defined_twice():
    sources = {path.stem: read(path) for path in PACKAGE_FILES}
    assert duplicate_definitions(sources) == []


def callers(source: str, module: str, name: str) -> list[str]:
    """``module.Class.function`` of the innermost function or method around
    every call of ``name`` (``name(...)`` or ``x.name(...)``), or ``module``
    for one at top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _terminal_name(child) == name:
                found.append(".".join([module] + scope))
            visit(child, scope)

    visit(parse(source), [])
    return found


def test_finder_flags_setflags_callers():
    source = (
        "def read_only(*arrays):\n"
        "    for arr in arrays:\n"
        "        arr.setflags(write=False)\n"
        "class Record:\n"
        "    def __post_init__(self):\n"
        "        self.x.setflags(write=False)\n"
        "        read_only(self.y)\n"
        "np.zeros(2).setflags(write=False)\n"
    )
    assert callers(source, "m", "setflags") == ["m.read_only", "m.Record.__post_init__", "m"]


def test_only_read_only_freezes_arrays():
    # one way to freeze an array: every other package function calls givens.read_only
    found = [caller for path in PACKAGE_FILES
             for caller in callers(read(path), path.stem, "setflags")]
    assert found == ["givens.read_only"]


def test_finder_flags_gate_table_builders():
    source = (
        "from . import qsim\n"
        "from .qsim import GateTable\n"
        "def ansatz_table(n):\n"
        "    return GateTable(n, ())\n"
        "class Fabric:\n"
        "    def table(self):\n"
        "        return qsim.GateTable(4, ())\n"
        "def gate(table: GateTable) -> GateTable:\n"
        "    return table.factors(1.0, 0.0)\n"
    )
    assert callers(source, "m", "GateTable") == ["m.ansatz_table", "m.Fabric.table"]


def test_only_the_ansatz_builds_a_gate_table():
    # the frames act through compound matrices; a table for them would be a
    # second path
    found = [caller for path in PACKAGE_FILES
             for caller in callers(read(path), path.stem, "GateTable")]
    assert found == ["qsim.ansatz_table"]


def imported_packages(source: str) -> set[str]:
    """Top-level names of the modules source imports absolutely, wherever
    the import statement sits."""
    imported = set()
    for node in ast.walk(parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


def test_finder_flags_imported_packages():
    source = ("import os.path\nfrom . import qsim\nfrom .xdf import factorize\n"
              "import numpy as np\ndef f():\n    from scipy.optimize import minimize\n")
    assert imported_packages(source) == {"os", "numpy", "scipy"}


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_package_imports_only_numpy_and_the_standard_library(path):
    # numpy is the one runtime dependency; scipy serves only the test suite
    imported = imported_packages(read(path))
    assert imported - set(sys.stdlib_module_names) <= {"numpy"}


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _other_package_aliases(tree: ast.Module) -> set[str]:
    """Names the imports of another package bind: ``np`` for ``import numpy
    as np``, ``scipy`` for ``import scipy.linalg``, ``la`` for ``from scipy
    import linalg as la``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name).split(".")[0] for a in node.names
                           if a.name.split(".")[0] != "xdfrelax")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] != "xdfrelax"):
            aliases.update(a.asname or a.name for a in node.names)
    return aliases


@lru_cache(maxsize=None)
def _loaded(text: str) -> frozenset[str]:
    """``loaded_names`` of one source, found once per session."""
    tree = parse(text)
    foreign = _other_package_aliases(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                found.add(node.attr)
    return frozenset(found)


def loaded_names(texts: list[str]) -> set[str]:
    """Every name the sources load by name or use as an attribute, except
    the attributes of a dotted chain rooted at another package's import:
    ``np.linalg.norm`` reads ``np``, not a package ``norm``."""
    return set().union(*map(_loaded, texts))


def unread_constants(source: str, readers: list[str]) -> list[str]:
    """Module-level UPPER_CASE names bound in source that neither source nor
    any reader loads by name or as an attribute."""
    defined = []
    for stmt in parse(source).body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined += [t.id for t in targets
                        if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    read = loaded_names([source, *readers])
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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_unread_constants(path):
    readers = [read(p) for p in PACKAGE_FILES + TEST_FILES]
    assert unread_constants(read(path), readers) == []


# The referees, and the one module that holds them. Production is every
# other package module but `cli`, which runs both.
REFEREE_HOME = "verify"
PRODUCTION = sorted(MODULES - {REFEREE_HOME, "cli"})
REFEREE_NAMES = (
    "dense_energy", "density_energy", "exact_ground_state",
    "jacobian", "angle_gradients", "denergy_dtheta_shift", "SHIFT_STEPS",
    "projection_lossiness_demo", "LossinessReport",
)
# the kernels production runs its gates and fabrics on; a referee that used
# one would move with the code it checks
KERNELS = frozenset({"reconstruct", "apply_gate", "GateTable", "ansatz_table",
                     "pair_rows", "pair_exchange_rows", "rotation_generators"})
# perfbench builds its inputs with these; no package module calls them
FIXTURE_GENERATORS = ("synth_hamiltonian", "write_fcidump")


def package_imports(source: str) -> set[str]:
    """The package modules source imports, relatively or as ``xdfrelax``,
    wherever the import statement sits."""
    found = set()
    for node in ast.walk(parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("xdfrelax."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("xdfrelax"):
                continue
            origin = (node.module or "").removeprefix("xdfrelax").lstrip(".")
            found.update([origin] if origin else [a.name for a in node.names])
    return found


def test_finder_flags_package_imports():
    source = ("import numpy as np\nimport xdfrelax.verify\nfrom . import qsim, vqe\n"
              "from .givens import brickwork\nfrom xdfrelax.lagrange import solve_mu\n"
              "from xdfrelax import xdf\nfrom numpy import linalg\n"
              "if TYPE_CHECKING:\n    from .cli import main\n")
    assert package_imports(source) == {"verify", "qsim", "vqe", "givens", "lagrange",
                                       "xdf", "cli"}
    assert package_imports("import numpy\nfrom os import path\n") == set()


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_does_not_import_the_referees(module):
    assert REFEREE_HOME not in package_imports(read(PACKAGE / f"{module}.py"))


def definition_homes(sources: dict[str, str], names) -> dict[str, list[str]]:
    """The modules whose top level defines each of ``names``: a function, a
    class or an assigned name."""
    homes = {name: [] for name in names}
    for module, source in sorted(sources.items()):
        for stmt in parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in bound:
                if name in homes:
                    homes[name].append(module)
    return homes


def test_finder_flags_definition_homes():
    sources = {"a": "def f(): pass\nTOL = 1\n", "b": "class f: pass\ndef g():\n    TOL = 2\n"}
    assert definition_homes(sources, ("f", "TOL", "h")) == {
        "f": ["a", "b"], "TOL": ["a"], "h": []}


def test_referees_are_defined():
    # in verify, and nowhere else
    homes = definition_homes({path.stem: read(path) for path in PACKAGE_FILES}, REFEREE_NAMES)
    assert homes == {name: [REFEREE_HOME] for name in REFEREE_NAMES}


# Production holds no Givens angle: its frames act through compound matrices
# of their orbital frames, and only the referees decompose them.
GIVENS_WORK = frozenset({"decompose", "reconstruct", "GivensFabric"})


def givens_imports(source: str) -> list[str]:
    """The names source imports from the package's ``givens``, by ``from``
    import or as an attribute of an imported ``givens`` module."""
    tree = parse(source)
    aliases, found = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("xdfrelax"):
            continue  # an import from another package
        origin = (node.module or "").removeprefix("xdfrelax").lstrip(".")
        for alias in node.names:
            if origin == "givens":
                found.add(alias.name)
            elif not origin and alias.name == "givens":
                aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add(node.attr)
    return sorted(found)


def test_finder_flags_givens_imports():
    source = ("from .givens import decompose as dec, brickwork\nfrom . import givens as g\n"
              "g.reconstruct(fabric)\nfrom xdfrelax.givens import GivensFabric\n"
              "from numpy.givens import lower_indices\n")
    assert givens_imports(source) == ["GivensFabric", "brickwork", "decompose", "reconstruct"]
    assert givens_imports("from . import qsim\nqsim.Frames(u, 1, 1, d)\n") == []


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_does_no_givens_work(module):
    assert sorted(GIVENS_WORK.intersection(givens_imports(read(PACKAGE / f"{module}.py")))) == []


def kernel_uses(source: str) -> list[str]:
    """The ``KERNELS`` source imports or loads, by name or as an attribute."""
    imported = {a.name for node in ast.walk(parse(source))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    return sorted((loaded_names([source]) | imported) & KERNELS)


def test_finder_flags_kernel_uses():
    source = ("from .givens import reconstruct as rebuild, brickwork\nfrom . import qsim\n"
              "qsim.pair_rows(3, 1, 0)\nlagrange.reconstruct_rdms(fac, state)\n"
              "def apply_gate(): pass\n")
    assert kernel_uses(source) == ["pair_rows", "reconstruct"]
    assert kernel_uses("from . import qsim\nqsim.measure_densities(state, fac)\n") == []


def test_referees_load_no_kernel():
    assert kernel_uses(read(PACKAGE / f"{REFEREE_HOME}.py")) == []


# The direct RDM oracle builds its own Jordan-Wigner tables: no production
# kernel enters it, and in the package only `cli` runs it.
ORACLE_PARTS = ("measure_rdms_direct", "_excitation_tables")
ORACLE_BARRED = frozenset({"Frames", "_rotated", "_compound_matrices", "rotation_generators",
                           "apply_gate", "ansatz_table", "apply_hamiltonian",
                           "measure_densities"})


def function_loads(source: str, names) -> dict[str, set[str]]:
    """``loaded_names`` of each top-level function of source in ``names``."""
    return {stmt.name: loaded_names([ast.get_source_segment(source, stmt)])
            for stmt in parse(source).body
            if isinstance(stmt, ast.FunctionDef) and stmt.name in names}


def test_finder_flags_function_loads():
    source = ("import numpy as np\n"
              "@lru_cache\ndef tables(n):\n    return rotation_generators(n, 1)\n"
              "def oracle(state):\n    return np.sum(qsim.measure_densities(state).omega0)\n"
              "def kernel(x):\n    return apply_gate(x)\n")
    loads = function_loads(source, ("tables", "oracle", "absent"))
    assert {name: found & ORACLE_BARRED for name, found in loads.items()} == {
        "tables": {"rotation_generators"}, "oracle": {"measure_densities"}}


def test_direct_oracle_loads_no_production_kernel():
    loads = function_loads(read(PACKAGE / "qsim.py"), ORACLE_PARTS)
    assert {name: found & ORACLE_BARRED for name, found in loads.items()} == {
        name: set() for name in ORACLE_PARTS}


def test_only_the_cli_runs_the_direct_oracle():
    found = {caller.split(".")[0] for path in PACKAGE_FILES
             for caller in callers(read(path), path.stem, "measure_rdms_direct")}
    assert found == {"cli"}


def unread_names(source: str, readers: list[str], skip=()) -> list[str]:
    """Module-level functions and classes in source, and the methods,
    properties and fields of those classes, whose name no reader loads by
    name or as an attribute. Dunder names, names in ``skip`` and the methods
    of a class derived from another module's class (hooks that base class
    calls, as ``argparse.ArgumentParser.error``) are exempt."""
    defined = []
    for stmt in parse(source).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name in skip:
            continue
        defined.append(stmt.name)
        if not isinstance(stmt, ast.ClassDef):
            continue
        hooks = any(isinstance(base, ast.Attribute) for base in stmt.bases)
        for member in stmt.body:
            if isinstance(member, ast.FunctionDef) and not hooks:
                defined.append(member.name)
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                defined.append(member.target.id)
    loaded = loaded_names(readers)
    return [name for name in defined
            if name not in loaded and not (name.startswith("__") and name.endswith("__"))]


def test_finder_flags_unread_names():
    source = (
        "import argparse\n"
        "from dataclasses import dataclass\n"
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "@dataclass\n"
        "class Record:\n"
        "    read: int\n"
        "    never: int\n"
        "    def __post_init__(self): pass\n"
        "    @property\n"
        "    def shown(self): return self.read\n"
        "    def hidden(self): pass\n"
        "class Referee:\n"
        "    value: float\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"
    )
    reader = "from m import used, Record, Parser\nused()\nRecord(1, 2).shown\nParser()\n"
    assert unread_names(source, [source, reader], skip=("Referee",)) == [
        "unused", "_private", "never", "hidden"]
    assert unread_names(source, [source, reader, "hidden(never(unused(_private)))\n"],
                        skip=("Referee",)) == []
    assert unread_names(source, [source, reader]) == [
        "unused", "_private", "never", "hidden", "Referee", "value"]


def test_finder_ignores_attributes_of_other_packages():
    source = "class Statevector:\n    def norm(self): pass\n"
    reader = ("import numpy as np\nimport scipy.linalg\nfrom scipy import linalg as la\n"
              "from xdfrelax import qsim\nqsim.Statevector\n"
              "np.linalg.norm(1)\nscipy.linalg.norm(1)\nla.norm(1)\n")
    assert unread_names(source, [source, reader]) == ["norm"]
    assert unread_names(source, [source, reader, "state.norm()\n"]) == []
    assert unread_names(source, [source, reader, "np.abs(x).norm\n"]) == []
    assert {"np", "scipy", "la"} <= loaded_names([reader])


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_unread_names(path):
    # a referee is read when a test reads it; every other name, by the package
    readers = PACKAGE_FILES + (TEST_FILES if path.stem == REFEREE_HOME else [])
    assert unread_names(read(path), [read(p) for p in readers],
                        skip=FIXTURE_GENERATORS) == []


def unread_flags(source: str, func: str, dests) -> list[str]:
    """The dests that function ``func`` in source never reads as
    ``args.<dest>``, itself or through a module-level function it passes
    ``args`` to (which reads it as ``args`` too)."""
    functions = {node.name: node for node in parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    read, todo, seen = set(), [func], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in functions
                  and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                todo.append(node.func.id)
    return [dest for dest in dests if dest not in read]


def test_finder_flags_unread_cli_flags():
    source = (
        "def _policy(args):\n"
        "    return args.threshold\n"
        "def _unused(args):\n"
        "    return args.seed\n"
        "def cmd_a(args):\n"
        "    return _policy(args), args.layers, len(args)\n"
        "def cmd_b(args):\n"
        "    return args.layers\n"
    )
    dests = ["threshold", "layers", "seed"]
    assert unread_flags(source, "cmd_a", dests) == ["seed"]
    assert unread_flags(source, "cmd_b", dests) == ["threshold", "seed"]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_cli_flags_are_read(command):
    sub = _subparsers()[command]
    # --out is read by main, which writes the payload; func is a default, not a flag
    dests = [action.dest for action in sub._actions if action.dest not in ("help", "out")]
    func = sub.get_default("func").__name__
    assert unread_flags(inspect.getsource(cli), func, dests) == []


README = TESTS.parent / "README.md"


def readme_flag_table(text: str) -> dict[str, set[str]]:
    """The flags of each row of the README's subcommand table, by subcommand."""
    rows = re.findall(r"^\| `([a-z]+)` *\|(.*)$", text, re.MULTILINE)
    return {command: set(re.findall(r"--[a-z0-9-]+", cells)) for command, cells in rows}


def test_finder_reads_the_flag_table():
    text = ("| subcommand | solve | own flags |\n|---|---|---|\n"
            "| `vqe` | `--layers` (default 3), `--tol` | — |\n| `rdm` | — | `--ablate` |\n")
    assert readme_flag_table(text) == {"vqe": {"--layers", "--tol"}, "rdm": {"--ablate"}}


def test_readme_flag_table_lists_every_flag():
    # every subcommand also takes --fcidump and --out, which the table leaves out
    table = readme_flag_table(README.read_text(encoding="utf-8"))
    flags = {command: {option for action in sub._actions for option in action.option_strings}
             - {"-h", "--help", "--fcidump", "--out"}
             for command, sub in _subparsers().items()}
    assert table == flags


def test_readme_examples_parse():
    lines = [line.split()[1:] for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("xdfrelax ")]
    assert sorted({argv[0] for argv in lines}) == sorted(_subparsers())
    for argv in lines:
        cli.build_parser().parse_args(argv)
