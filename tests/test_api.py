"""Every module's ``__all__`` names what it defines, and nothing else.

A name in ``__all__`` must resolve, and every public function and class a
module defines must be listed, so that a deletion leaves no stale export
and an addition is not left out of the public surface.  Every listed name
must also have a caller outside the tests, apart from a short keep-list
with a reason for each: no library function is called only by tests.
The package runs on numpy alone: no module imports scipy, and the
project's runtime dependencies name numpy only.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

MODULES = ("io", "optics", "lifshitz", "corrections", "metrology", "hypforce")


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"casimetry.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    module = importlib.import_module(f"casimetry.{name}")
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_package_exports_resolve():
    import casimetry
    assert all(hasattr(casimetry, n) for n in casimetry.__all__)


ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "perfbench")

# exported names that only the tests call, each with the reason it stays
KEEP = {
    "reflection_sq": "acceptance criterion 3 checks the static terms with it",
    "yukawa_plate_pressure": "acceptance criterion 6 holds it to the oracle",
    "yukawa_pressure_oracle": "acceptance criterion 6's independent check",
    "load_ensemble_csv": "it reads the file that save_ensemble_csv writes",
    "YukawaParams": "the parameter type of the two keep-listed Yukawa "
                    "functions",
}


def mentioned_names(source):
    """Every name an ast.Name, ast.Attribute or import alias mentions in
    `source`, leaving out type annotations: naming a type is not a call.
    The `annotation` fields of ast.arg and ast.AnnAssign and the `returns`
    field of a function hold the annotations."""
    names = set()

    def visit(node):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rpartition(".")[2])
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child)

    visit(ast.parse(source))
    return names


def referenced_names():
    """The names mentioned in the program, the demos and the benchmark,
    their test files left out."""
    return set().union(*(mentioned_names(path.read_text())
                         for top in CALLER_DIRS
                         for path in (ROOT / top).rglob("*.py")
                         if not path.name.startswith("test_")))


def test_annotations_are_not_callers():
    source = ("def f(x: Annotated, *a: Starred) -> Returned:\n"
              "    y: Assigned = g(x)\n"
              "    return Called(y)\n")
    assert mentioned_names(source) == {"g", "x", "y", "Called"}


@pytest.mark.parametrize("name", MODULES)
def test_exports_have_a_caller_outside_the_tests(name):
    module = importlib.import_module(f"casimetry.{name}")
    assert sorted(set(module.__all__) - referenced_names() - set(KEEP)) == []


def test_keep_list_is_current():
    exported = set()
    for name in MODULES:
        exported |= set(importlib.import_module(f"casimetry.{name}").__all__)
    assert set(KEEP) <= exported
    assert set(KEEP).isdisjoint(referenced_names())


def imported_modules(source):
    """Top-level package of every module an import statement in `source`
    names; relative imports are the package's own and are left out."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_imported_modules_sees_nested_imports():
    source = ("import numpy as np\nfrom .io import read_csv\n"
              "def f():\n    from scipy.special import ndtri\n")
    assert imported_modules(source) == {"numpy", "scipy"}


def test_package_does_not_import_scipy():
    importers = [str(path.relative_to(ROOT))
                 for path in (ROOT / "src").rglob("*.py")
                 if "scipy" in imported_modules(path.read_text())]
    assert importers == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements]
    assert names == ["numpy"]
