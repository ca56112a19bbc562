"""No module of the package or of the test suite imports a name it never
uses, and the package defines no function, method, class or module-level name
(a constant or a type alias) that nothing loads.

Each module is parsed with ``ast``; an imported binding counts as used when
its name appears anywhere else in the module as a load.  ``__init__.py``
re-exports its imports, and ``__future__`` imports are directives, so both
are skipped.  A definition counts as used when its name is loaded, as a name
or an attribute, anywhere in the package or the tests; dunders are called by
Python itself, and a re-export in ``__init__.py`` is not a use.

Every function the benchmark traces (``LAYERS`` in ``bench/spans.py``, read
with ``ast`` so the bench is not imported) exists in the package; the tracer
only warns about a missing one, and its layer metrics would read 0.

``import euscat`` leaves out ``scipy.integrate``, which only the quadrature
reference of ``euscat.model`` imports when it runs, and the
``scipy.optimize`` and ``scipy.sparse.linalg`` that it loads: each is
start-up time of every process.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import euscat

PACKAGE = Path(euscat.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES = SOURCES + sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unused_definitions(package, others):
    """Names defined in the ``package`` sources and loaded in none of
    ``package`` and ``others``."""
    defined, loaded = set(), set()
    for source in package + others:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    for source in package:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    return sorted(defined - loaded - dunders)


def test_detects_an_unused_definition():
    package = "class K:\n    def __repr__(self): ...\n    def m(self): ...\n"
    package += "def used(): ...\ndef dead(): ...\n"
    assert unused_definitions([package], ["used(); K().m"]) == ["dead"]


def test_detects_an_unused_module_level_name():
    package = "_DEEP = -26.0\nAlias = int\nLIMIT: float = 1.0\nA, _B = 1, 2\n"
    package += "__all__ = ['f']\ndef f(x: Alias):\n    y = 0\n    return x + A\n"
    assert unused_definitions([package], ["f(LIMIT)"]) == ["_B", "_DEEP"]


def test_every_definition_is_loaded():
    package = [path.read_text() for path in SOURCES]
    others = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert unused_definitions(package, others) == []


def traced_layers(source: str):
    """The (module, attribute) pairs of the ``LAYERS`` literal in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "LAYERS":
            return [entry[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError("no LAYERS assignment")


def resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner is not None


def test_every_traced_layer_exists():
    layers = traced_layers((TESTS.parent / "bench" / "spans.py").read_text())
    assert layers
    assert [f"{m}.{a}" for m, a in layers if not resolves(m, a)] == []


def test_import_loads_no_unused_scipy_subpackage():
    # a fresh interpreter, handed the directory that holds the package under test
    probe = "import sys, euscat; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "euscat" in loaded
    heavy = {"scipy.integrate", "scipy.optimize", "scipy.sparse.linalg"}
    assert sorted(heavy & loaded) == []
