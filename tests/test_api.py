"""Every module's ``__all__`` names what it defines, and nothing else.

A name in ``__all__`` must resolve, and every public function and class a
module defines must be listed, so that a deletion leaves no stale export
and an addition is not left out of the public surface.  Every listed name
must also have a caller outside the tests, apart from a short keep-list
with a reason for each: no library function is called only by tests.
Likewise every parameter with a default, of an exported function, an
exported class's constructor or a public method, must be passed by some
call outside the tests: no setting is made only by tests.
The package runs on numpy alone: no module imports scipy, and the
project's runtime dependencies name numpy only.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest
from test_record import is_record, stdlib_twin

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


def program_sources():
    """The source of the program, the demos and the benchmark, their test
    files left out."""
    return [path.read_text() for top in CALLER_DIRS
            for path in (ROOT / top).rglob("*.py")
            if not path.name.startswith("test_")]


def referenced_names():
    """The names mentioned in the program, the demos and the benchmark."""
    return set().union(*map(mentioned_names, program_sources()))


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


# defaulted parameters that only the tests pass, each with the reason it stays
KEEP_PARAMS = {
    "lifshitz.casimir_free_energy(return_diagnostics)":
        "it mirrors casimir_pressure, and free-energy escalations are read "
        "through it",
    "metrology.load_ensemble_csv(z_range)":
        "the file does not record its range, and binning starts at "
        "z_range[0]",
}


def signatures(name):
    """(label, callee, positional names, defaulted names) of every exported
    function, exported class constructor and public method of module
    `name`, self and cls left out; a constructor's callee is its class."""
    module = importlib.import_module(f"casimetry.{name}")
    found = []

    def add(label, callee, fn, skip):
        params = list(inspect.signature(fn).parameters.values())[skip:]
        found.append((label, callee,
                      [p.name for p in params
                       if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)],
                      [p.name for p in params if p.default is not p.empty]))

    for export in module.__all__:
        obj = getattr(module, export)
        if inspect.isfunction(obj):
            add(f"{name}.{export}", export, obj, 0)
        elif inspect.isclass(obj):
            if "__init__" in vars(obj):
                # a record's __init__ takes *args and **kwargs; its stdlib
                # twin's has the fields' signature
                init = stdlib_twin(obj).__init__ if is_record(obj) else obj.__init__
                add(f"{name}.{export}", export, init, 1)
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    add(f"{name}.{export}.{attr}", attr, fn,
                        0 if isinstance(member, staticmethod) else 1)
    return found


def call_sites(source):
    """(callee, positional count, starred, keywords) of every call in
    `source`, the callee being the called name or attribute; a keyword of
    None stands for ``**``.  A ``cls(...)`` call inside a class is a call
    of that class."""
    sites = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            callee = (owner if isinstance(func, ast.Name) and func.id == "cls"
                      else getattr(func, "id", getattr(func, "attr", None)))
            sites.append((callee, len(node.args),
                          any(isinstance(a, ast.Starred) for a in node.args),
                          {k.arg for k in node.keywords}))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return sites


def unpassed(signature, sites):
    """The defaulted parameters of `signature` that no call in `sites`
    gives by keyword, by position or through ``*`` or ``**``."""
    _, callee, positional, left = signature
    left = set(left)
    for name, n_args, starred, keywords in sites:
        if name == callee:
            left -= set(positional if starred else positional[:n_args]) | keywords
            if None in keywords:
                left.clear()
    return left


def unpassed_parameters(modules):
    """``module.name(parameter)`` for every defaulted parameter of `modules`
    that no call in the program, the demos or the benchmark passes."""
    sites = [site for source in program_sources() for site in call_sites(source)]
    return {f"{sig[0]}({param})" for name in modules
            for sig in signatures(name) for param in unpassed(sig, sites)}


def test_call_sites_see_positions_keywords_stars_and_cls():
    source = ("f(1, c=2)\ng(*a)\nh(**k)\n"
              "class K:\n    @classmethod\n    def m(cls):\n        return cls(3)\n")
    sites = call_sites(source)
    assert sites == [("f", 1, False, {"c"}), ("g", 1, True, set()),
                     ("h", 0, False, {None}), ("K", 1, False, set())]
    names = ["a", "b", "c", "d"]
    assert unpassed(("", "f", names, names[1:]), sites) == {"b", "d"}
    assert unpassed(("", "g", names, names[1:] + ["e"]), sites) == {"e"}
    assert unpassed(("", "h", names, names), sites) == set()
    assert unpassed(("", "K", names, names), sites) == {"b", "c", "d"}


@pytest.mark.parametrize("name", MODULES)
def test_defaulted_parameters_have_a_caller_outside_the_tests(name):
    assert sorted(unpassed_parameters([name]) - set(KEEP_PARAMS)) == []


def test_parameter_keep_list_is_current():
    assert set(KEEP_PARAMS) <= unpassed_parameters(MODULES)


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
