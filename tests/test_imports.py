"""No module of the package or of the test suite imports a name it never
uses, and the package defines no function, method, class or module-level name
(a constant or a type alias) that nothing loads.

Each module is parsed with ``ast``; an imported binding counts as used when
its name appears anywhere else in the module as a load.  ``__init__.py``
re-exports its imports, and ``__future__`` imports are directives, so both
are skipped.  A definition counts as used when its name is loaded, as a name
or an attribute, anywhere in the package or the tests; dunders are called by
Python itself, and a re-export in ``__init__.py`` is not a use.

``euscat.__all__`` holds exactly the 75 public names, and each resolves.

Every function the benchmark traces (``LAYERS`` in ``bench/spans.py``, read
with ``ast`` so the bench is not imported) exists in the package; the tracer
only warns about a missing one, and its layer metrics would read 0.

``import euscat``, ``import euscat.cli``, a scattering point and a covariance
load none of ``scipy.special``, ``scipy.linalg``, ``scipy.integrate`` and the
``scipy.optimize`` and ``scipy.sparse.linalg`` that ``scipy.integrate``
loads: each is start-up time of every process.  The covariance evaluates
erfcx with numpy alone; only the quadrature reference of ``euscat.model``
imports ``scipy.integrate``, when it runs.  A scattering point loads neither
``numpy.fft``, which only the covariance's erfcx needs, nor ``numpy.ma``.
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


def unloaded_private_names(package):
    """Module-level private functions, classes and constants of the
    ``package`` sources that no ``package`` source loads or imports: what
    only the tests reach is dead code.  An import counts as a use, since
    ``test_every_import_is_used`` holds the importer to loading it."""
    defined, loaded = set(), set()
    for source in package:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    return sorted(private - loaded)


def test_detects_an_unloaded_private_name():
    package = [
        "from .b import _imported\n_LIMIT = 1.0\n_SPARE = 2.0\n__all__ = []\n"
        "def _used(x):\n    return x * _LIMIT\n"
        "def _require_resolved():\n    pass\n"
        "class _Only:\n    pass\n",
        "def _imported():\n    return _used(0)\n",
    ]
    assert unloaded_private_names(package) == ["_Only", "_SPARE", "_require_resolved"]


def test_every_private_name_is_loaded_by_the_package():
    package = [path.read_text() for path in SOURCES]
    assert unloaded_private_names(package) == []


# the public API; a name added, removed or renamed here is an API change
PUBLIC_API = """
AccuracyError ConfigError DomainError PreconditionError
DEFAULT_BINDING DEFAULT_MASS DEFAULT_MPI SeparableModel OnShellAmplitude default_model
coupling_for_binding critical_coupling bound_state_energy form_factor
resolvent_form_factor_element exact_t_on_shell exact_s_on_shell on_shell_amplitude
GridSpec RadialGrid SpectralOperator Semigroup build_grid discretize_h diagonalize
semigroup_apply semigroup_bounds
ChebyshevExpansion ErrorReport expansion_coefficients converged_expansion evaluate_scalar
apply_to_semigroup uniform_error_report
WavePacket KBConfig SMatrixEstimate SweepRow beta_for packet_grid_spec make_packet
packet_overlap kb_s_overlap exact_s_in_packets time_limit_s_overlap delta_e_overlap
sweep_n extract_sharp_t
EuclideanTestFunction WaveFunctional CovarianceKernel FDResult ClusterReport DispersionRow
covariance gf_value euclidean_inner physical_inner one_particle_inner time_translate
hamiltonian_element momentum_element mass_squared_element one_particle_hamiltonian
one_particle_momentum one_particle_mass_squared cluster_check dispersion_scan
standard_test_function random_test_functions cluster_probe_pair physical_gram
euclidean_gram
RunConfig resolve_config
""".split()


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == len(set(PUBLIC_API)) == 75
    assert sorted(euscat.__all__) == sorted(PUBLIC_API)  # no name twice either
    assert [name for name in euscat.__all__ if getattr(euscat, name, None) is None] == []


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
    # a fresh interpreter, handed the directory that holds the package under
    # test; it prints the loaded modules after a scattering point, then the
    # value of one covariance and the loaded modules after it
    probe = "\n".join(
        [
            "import sys, euscat, euscat.cli",
            "config = euscat.KBConfig(n=30, beta=None, sigma=700.0 / 24.0)",
            "euscat.extract_sharp_t(euscat.default_model(), config, 700.0)",
            "print(' '.join(sorted(sys.modules)))",
            "f = euscat.standard_test_function()",
            "print(euscat.covariance(euscat.CovarianceKernel(139.57), f, f))",
            "print(' '.join(sorted(sys.modules)))",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        check=True,
    )
    scattering, value, covariance = result.stdout.splitlines()
    heavy = {
        "scipy.integrate",
        "scipy.linalg",
        "scipy.optimize",
        "scipy.sparse.linalg",
        "scipy.special",
    }
    for modules in (scattering, covariance):
        loaded = set(modules.split())
        assert {"euscat", "euscat.cli"} <= loaded
        assert sorted(heavy & loaded) == []
    # the erfcx coefficients come from numpy.fft, built on first use; and
    # numpy.ma, which np.unique loads, costs about 10 ms and 1.3 MB
    assert {"numpy.fft", "numpy.ma"}.isdisjoint(scattering.split())
    assert float(value) > 0.0
