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
project's runtime dependencies name numpy only.  Records are frozen, and
only a record's own methods write its fields: no code calls
``object.__setattr__`` on anything but ``self``.  Every array a record
keeps, and every array a query reads, is held to one table: a numeric
string is refused, so are NaN and +-inf where the values are documented
finite, and what a record keeps is read-only and its own.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from test_record import arrays_in, is_record, stdlib_twin

from casimetry import corrections, hypforce, lifshitz, metrology, optics

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
    "yukawa_plate_pressure": "acceptance criterion 6 holds it to the oracle",
    "load_ensemble_csv": "it reads the file that save_ensemble_csv writes",
    "YukawaParams": "the parameter type of the two keep-listed Yukawa "
                    "functions",
    "exclusion_test": "the band test of a band the caller built; "
                      "run_exclusion_analysis runs its helper on windows it shares",
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
    "metrology.exclusion_test(model_tag)":
        "the tag its verdict carries, as run_exclusion_analysis's verdicts do",
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


# every spelling of a reflection model but ReflectionModel(key, ...): the
# factories and cli.build_model that only the benchmark still calls, and the
# removed ones
ALIASES = {"impedance", "lifshitz_drude", "lifshitz_schwinger", "build_model",
           "exact_impedance", "lifshitz_plasma", "ideal_metal", "from_plasma"}
# the one caller outside the benchmark: it holds the factories to their keys
ALIAS_TEST = "test_factories_give_their_keys"


def alias_calls(source):
    """The calls of ALIASES in `source`, by callee, leaving out ALIAS_TEST."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == ALIAS_TEST:
            node.body = [ast.Pass()]
    return sorted(callee for callee, *_ in call_sites(ast.unparse(tree))
                  if callee in ALIASES)


def test_alias_calls_skip_the_factory_test():
    source = ("def test_factories_give_their_keys():\n"
              "    ReflectionModel.impedance(eps, wp)\n"
              "def other():\n"
              "    cli.build_model(key, gold, eps)\n"
              "    return ReflectionModel('ideal'), impedance\n")
    assert alias_calls(source) == ["build_model"]


def test_models_are_spelled_by_key_outside_the_benchmark():
    from casimetry.lifshitz import ReflectionModel
    from casimetry.optics import PermittivityFn
    found = {str(path.relative_to(ROOT)): calls for top in ("src", "demos", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             if (calls := alias_calls(path.read_text()))}
    assert found == {}
    removed = ("exact_impedance", "lifshitz_plasma", "ideal_metal")
    assert not any(hasattr(ReflectionModel, name) for name in removed)
    assert not hasattr(PermittivityFn, "from_plasma")


def setattr_targets(source):
    """The first argument, as source text, of each ``object.__setattr__``
    call in `source`."""
    return [ast.unparse(node.args[0]) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__" and node.args
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"]


def test_setattr_targets_reads_the_first_argument():
    source = ("object.__setattr__(self, 'a', 1)\n"
              "def f(ensemble):\n    object.__setattr__(ensemble, '_b', 2)\n"
              "setattr(x, 'c', 3)\nsuper().__setattr__(y, 'd', 4)\n")
    assert setattr_targets(source) == ["self", "ensemble"]


def test_records_are_written_only_by_their_own_methods():
    found = {str(path.relative_to(ROOT)): targets
             for path in sorted((ROOT / "src").rglob("*.py"))
             if (targets := [t for t in setattr_targets(path.read_text()) if t != "self"])}
    assert found == {}


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


Z = np.geomspace(2e-7, 4e-7, 4)
P = -1e-3 * (Z / 2e-7) ** -4
ROWS = np.column_stack([Z, P])
BAND = metrology.ConfidenceBand(Z, np.full(4, 1e-4), 0.95)
CURVE = lifshitz.PressureCurve(Z, P)
ENTRIES = np.column_stack([Z / 4, np.full(4, 1e12), Z])  # lam, alpha_max, z_best
LIMITS = hypforce.ConstraintCurve(ENTRIES)
W = np.array([0.1, 0.4, 0.3, 0.2])

# (record or query, its array argument, a call with `a` in that argument's
# place, a valid `a`, whether its values are documented finite); a singleton
# bin's variance is NaN, and BinnedStatistics documents no finite field
ARRAY_INPUTS = [
    ("OpticalDataset", "omega", lambda a: optics.OpticalDataset(a, W, W), Z * 1e22, True),
    ("OpticalDataset", "n", lambda a: optics.OpticalDataset(Z * 1e22, a, W), W, True),
    ("OpticalDataset", "k", lambda a: optics.OpticalDataset(Z * 1e22, W, a), W, True),
    ("PressureCurve", "z", lambda a: lifshitz.PressureCurve(a, P), Z, True),
    ("PressureCurve", "pressure", lambda a: lifshitz.PressureCurve(Z, a), P, True),
    ("BinnedStatistics", "z", lambda a: metrology.BinnedStatistics(a, P, W, W, W), Z, False),
    ("BinnedStatistics", "pressure_mean",
     lambda a: metrology.BinnedStatistics(Z, a, W, W, W), P, False),
    ("BinnedStatistics", "variance",
     lambda a: metrology.BinnedStatistics(Z, P, a, W, W), W, False),
    ("BinnedStatistics", "count", lambda a: metrology.BinnedStatistics(Z, P, W, a, W), W, False),
    ("BinnedStatistics", "dof", lambda a: metrology.BinnedStatistics(Z, P, W, W, a), W, False),
    ("ConfidenceBand", "z", lambda a: metrology.ConfidenceBand(a, W, 0.95), Z, True),
    ("ConfidenceBand", "half_width", lambda a: metrology.ConfidenceBand(Z, a, 0.95), W, True),
    ("ExclusionVerdict", "differences", lambda a: metrology.ExclusionVerdict(
        "drude", 0.95, 4, 0, 0.0, (), True, BAND, a), ROWS, True),
    ("RoughnessProfile", "heights", lambda a: corrections.RoughnessProfile(a, W), Z, True),
    ("RoughnessProfile", "weights", lambda a: corrections.RoughnessProfile(Z, a), W, True),
    ("ConstraintCurve", "entries", hypforce.ConstraintCurve, ENTRIES, True),
    ("MeasurementEnsemble", "sets", lambda a: metrology.MeasurementEnsemble((ROWS, a)),
     ROWS, True),
    ("pressure_at", "z", CURVE.pressure_at, Z[1:3], True),
    ("alpha_at", "lam", LIMITS.alpha_at, ENTRIES[1:3, 0], True),
    ("exclusion_test", "differences", lambda a: metrology.exclusion_test(a, BAND), ROWS, True),
]
QUERIES = {"pressure_at", "alpha_at", "exclusion_test"}


def test_array_table_covers_every_kept_array():
    # every ndarray field of an exported class, the ensemble's sets, the queries
    modules = [importlib.import_module(f"casimetry.{name}") for name in MODULES]
    fields = {(cls.__name__, field) for module in modules
              for cls in map(vars(module).get, module.__all__) if inspect.isclass(cls)
              for field, kind in inspect.get_annotations(cls).items() if "ndarray" in str(kind)}
    table = {(name, field) for name, field, *_ in ARRAY_INPUTS if name not in QUERIES}
    assert table == fields | {("MeasurementEnsemble", "sets")}
    assert QUERIES <= {name for name, *_ in ARRAY_INPUTS}


def by_name(rows):
    """rows as pytest parameters named record.field."""
    return [pytest.param(*row, id=f"{row[0]}.{row[1]}") for row in rows]


@pytest.mark.parametrize("name, field, call, good, finite", by_name(ARRAY_INPUTS))
def test_numeric_string_refused(name, field, call, good, finite):
    call(good.copy())
    with pytest.raises(ValueError):
        call(good.astype(str))


@pytest.mark.parametrize("name, field, call, good, finite",
                         by_name(row for row in ARRAY_INPUTS if row[4]))
def test_non_finite_refused_where_documented_finite(name, field, call, good, finite):
    for bad in (np.nan, np.inf, -np.inf):
        given = good.copy()
        given.flat[-1] = bad
        with pytest.raises(ValueError):
            call(given)


@pytest.mark.parametrize("name, field, call, good, finite", by_name(
    row for row in ARRAY_INPUTS if row[0] not in ("pressure_at", "alpha_at")))
def test_kept_arrays_are_read_only_and_own(name, field, call, good, finite):
    # exclusion_test's verdict keeps its differences too
    given = good.copy()
    record = call(given)
    assert is_record(type(record))
    kept = arrays_in(tuple(vars(record).values()))
    before = [a.copy() for a in kept]
    assert kept and not any(a.flags.writeable for a in kept)
    given *= 2.0
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(kept, before))
