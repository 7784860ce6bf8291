"""The package's record classes against their stdlib dataclasses twins.

``casimetry._record`` builds the record classes without ``dataclasses``.
Each class here is rebuilt from its own source under the stdlib's frozen
``dataclass`` and its ``field``: that twin is the reference implementation,
and the frozen dataclass is the one kind of record.  Real class and twin
are held to the same repr text, equality, hashing, frozen fields, argument
errors and defaults.  The module's input guard, ``positive``, is checked
here too.
"""

import __future__
import dataclasses
import functools
import inspect
import math
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from casimetry import _record, cli, corrections, hypforce, lifshitz, metrology, optics
from casimetry._record import positive


def is_record(cls):
    """Whether cls was built by casimetry._record."""
    init = vars(cls).get("__init__")
    return getattr(init, "__module__", None) == "casimetry._record"


def stdlib_twin(cls):
    """cls rebuilt from its source by a frozen dataclasses.dataclass and
    field, in a copy of its module's namespace."""
    module = sys.modules[cls.__module__]
    namespace = dict(vars(module), field=dataclasses.field,
                     dataclass=functools.partial(dataclasses.dataclass, frozen=True))
    code = compile(textwrap.dedent(inspect.getsource(cls)), module.__file__,
                   "exec", flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    exec(code, namespace)
    return namespace[cls.__name__]


Z = np.geomspace(2e-7, 4e-7, 4)
P = -1e-3 * (Z / 2e-7) ** -4
EPS = optics.PermittivityFn.from_drude(optics.DrudeParameters(1.37e16, 5.3e13))
GOLD = hypforce.Layer(19.3e3, math.inf)
BAND = metrology.ConfidenceBand(Z, np.full(4, 1e-4), 0.95)
SET = np.column_stack([Z, P])

# two valid argument tuples per record class, a and b, with a != b;
# an argument left out of a takes the field's default
CASES = {
    optics.DrudeParameters: ((1.37e16, 5.3e13), (1.37e16, 0.0)),
    optics.OpticalDataset: ((Z * 1e22, Z * 1e6, Z * 1e7),
                            (Z * 1e22, Z * 1e6, Z * 1e7, "Au")),
    optics.PermittivityFn: ((abs,), (abs, "abs")),
    lifshitz.ThermalState: ((300.0,), (30.0,)),
    lifshitz.ModelRule: ((0.0, abs), (1.0, abs)),
    lifshitz.ReflectionModel: (("ideal", EPS), ("impedance", EPS, 1.37e16)),
    lifshitz.EngineDiagnostics: ((12, 1e-12, 1e-13, 0), (12, 1e-12, 1e-13, 1)),
    lifshitz.PressureCurve: ((Z, P), (Z, 2 * P)),
    hypforce.YukawaParams: ((1e10, 1e-7), (-1e10, 1e-7)),
    hypforce.Layer: ((2.3e3, 1e-7), (2.3e3, math.inf)),
    hypforce.LayerStack: (((GOLD,),), ((hypforce.Layer(2.3e3, 1e-7), GOLD),)),
    hypforce.ConstraintCurve: ((((1e-8, 1e12, 2e-7),),),
                               (((1e-8, 1e12, 2e-7), (1e-7, 1e9, 3e-7)),)),
    metrology.MeasurementEnsemble: (((SET,),), ((SET, SET), (1e-7, 1e-6))),
    metrology.BinnedStatistics: ((Z, P, Z, Z, Z), (Z, P, P, Z, Z)),
    metrology.ConfidenceBand: ((Z, Z, 0.95), (Z, Z, 0.99)),
    # b differs from a only in the fields that __eq__ leaves out
    metrology.ExclusionVerdict: (("drude", 0.95, 9, 1, 0.1, ((2e-7, 3e-7),), False,
                                  BAND, SET),
                                 ("drude", 0.95, 9, 1, 0.1, ((2e-7, 3e-7),), False,
                                  metrology.ConfidenceBand(Z, np.full(4, 2e-4), 0.95),
                                  2 * SET)),
    corrections.SphereGeometry: ((1.5e-4,), (1.5e-4, 2e-7)),
    corrections.RoughnessProfile: (([0.0], [1.0]), ([-1e-9, 1e-9], [0.5, 0.5])),
    cli.RunConfig: (("kk", {}), ("kk", {"l_max": "3"})),
}
# the records whose hash would read an array or a mapping
UNHASHABLE = (optics.OpticalDataset, lifshitz.PressureCurve, metrology.BinnedStatistics,
              metrology.ConfidenceBand, metrology.MeasurementEnsemble,
              corrections.RoughnessProfile, hypforce.ConstraintCurve, cli.RunConfig)


def arrays_in(value):
    """The ndarrays in value, looking into tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in arrays_in(v)]
    return []


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_kept_arrays_are_read_only_copies(cls):
    # the rule behind PermittivityFn.from_table's memo and every kept result
    names = [f.name for f in dataclasses.fields(stdlib_twin(cls))]
    for args in CASES[cls]:
        record = cls(*args)
        for name in names:
            for array in arrays_in(getattr(record, name)):
                assert not array.flags.writeable, name
                assert not any(np.shares_memory(array, given)
                               for given in arrays_in(args)), name


def raises(exc, fn):
    """Whether fn() raises exc."""
    try:
        fn()
    except exc:
        return True
    return False


def outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001  (the type is the outcome)
        return type(exc)


def pairs(cls):
    """(real, twin) instances for the argument tuples a, a again and b."""
    twin = stdlib_twin(cls)
    a, b = CASES[cls]
    return [(cls(*args), twin(*args)) for args in (a, a, b)]


def test_every_record_class_has_a_case():
    modules = (cli, corrections, hypforce, lifshitz, metrology, optics)
    records = {obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__
               and is_record(obj)}
    assert records == set(CASES)
    assert len(records) == 19
    assert not any(hasattr(cls, "__dataclass_fields__") for cls in records)


def test_records_take_no_flags():
    # one kind of record: frozen, and compared and hashed by its fields
    assert list(inspect.signature(_record.dataclass).parameters) == ["cls"]
    assert {name for name in vars(_record.field) if not name.startswith("_")} == {
        "default", "compare", "repr"}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
class TestAgainstStdlib:

    def test_repr(self, cls):
        for real, twin in pairs(cls):
            assert repr(real) == repr(twin)

    def test_equality(self, cls):
        (ra, ta), (ra2, ta2), (rb, tb) = pairs(cls)
        for x, y, u, v in ((ra, ra2, ta, ta2), (ra, rb, ta, tb), (rb, ra, tb, ta)):
            assert outcome(lambda: x == y) == outcome(lambda: u == v)
            assert outcome(lambda: x != y) == outcome(lambda: u != v)
        assert (ra == ta) is False and (ra != ta) is True

    def test_hash(self, cls):
        for real, twin in pairs(cls):
            hashes = outcome(lambda: hash(real)), outcome(lambda: hash(twin))
            assert [isinstance(h, int) for h in hashes] == [cls not in UNHASHABLE] * 2
            if cls not in UNHASHABLE:
                assert hashes[0] == hashes[1]

    def test_frozen(self, cls):
        twin = stdlib_twin(cls)
        a = CASES[cls][0]
        for f in dataclasses.fields(twin):
            for make in (cls, twin):
                assert raises(AttributeError, lambda: setattr(make(*a), f.name, None))
                assert raises(AttributeError, lambda: delattr(make(*a), f.name))
        real = cls(*a)
        object.__setattr__(real, "marker", 1)
        assert real.marker == 1

    def test_argument_errors(self, cls):
        twin = stdlib_twin(cls)
        a = CASES[cls][0]
        first = dataclasses.fields(twin)[0].name
        extra = a + (None,) * (len(dataclasses.fields(twin)) - len(a) + 1)
        for args, kwargs in (((), {}), (a, {"bogus": 1}), (a, {first: a[0]}),
                             (extra, {})):
            for make in (twin, cls):
                with pytest.raises(TypeError, match=cls.__name__):
                    make(*args, **kwargs)
        by_name = dict(zip([f.name for f in dataclasses.fields(twin)], a))
        assert repr(cls(**by_name)) == repr(twin(**by_name))

    def test_defaults(self, cls):
        twin = stdlib_twin(cls)
        fields = dataclasses.fields(twin)
        required = [f for f in fields if f.default is f.default_factory
                    is dataclasses.MISSING]
        args = CASES[cls][0][:len(required)]
        real, ref = cls(*args), twin(*args)
        assert list(vars(real)) == list(vars(ref))
        for f in fields:
            assert repr(getattr(real, f.name)) == repr(getattr(ref, f.name))
            assert (repr(getattr(cls, f.name, "absent"))
                    == repr(getattr(twin, f.name, "absent")))


def test_run_config_keeps_its_own_read_only_values():
    given = {"L_MAX": "3"}
    cfg = cli.RunConfig("kk", given)
    given["l_max"] = "4"
    assert cfg.values == {"l_max": "3"} and "L_max" in cfg
    with pytest.raises(TypeError):
        cfg.values["l_max"] = "4"


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
BAD = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(max_value=-math.ulp(0.0))
SHAPES = array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
MESSAGE = "x must be positive and finite"


@given(st.one_of(POSITIVE, arrays(float, SHAPES, elements=POSITIVE)), st.booleans())
def test_positive_returns_finite_positive_input_as_floats(value, zero_ok):
    got = positive(value, MESSAGE, zero_ok=zero_ok)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == np.shape(value) and np.array_equal(got, value)


@given(arrays(float, SHAPES, elements=st.floats(min_value=0.0, allow_infinity=False)))
@example(0.0)
def test_positive_takes_zero_only_when_asked(value):
    assert np.array_equal(positive(value, MESSAGE, zero_ok=True), value)
    if np.any(value == 0.0):
        with pytest.raises(ValueError, match=f"^{MESSAGE}$"):
            positive(value, MESSAGE)


@given(arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=4), elements=POSITIVE),
       BAD, st.integers(min_value=0), st.booleans())
def test_positive_refuses_any_bad_entry(value, bad, at, zero_ok):
    # NaN, +-inf and negative entries, in an array, a list or alone
    value.flat[at % value.size] = bad
    for given_value in (value, value.tolist(), bad):
        with pytest.raises(ValueError, match=f"^{MESSAGE}$"):
            positive(given_value, MESSAGE, zero_ok=zero_ok)


@pytest.mark.parametrize("value", ["300", b"300", ["1e-4", 2.0], [1.0, b"2"],
                                   np.array(["1", "2"])],
                         ids=["str", "bytes", "mixed-str", "mixed-bytes", "str-array"])
@pytest.mark.parametrize("zero_ok", [False, True])
def test_positive_refuses_non_numeric_input(value, zero_ok):
    # a numeric string is refused, not parsed as its number
    with pytest.raises(ValueError, match=f"^{MESSAGE}$"):
        positive(value, MESSAGE, zero_ok=zero_ok)


def test_records_refuse_numeric_strings():
    with pytest.raises(ValueError, match="^temperature must be positive and finite$"):
        lifshitz.ThermalState("300")
    with pytest.raises(ValueError, match="^sphere radius must be positive and finite$"):
        corrections.SphereGeometry("1e-4")
