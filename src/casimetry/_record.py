"""Record classes without ``dataclasses``, whose one ``exec`` per generated
method made building the package's records most of the cost of importing
it.  The methods here are closures over each class's fields, and they
behave as those of the stdlib's frozen dataclass do.  Input must be numeric,
a record keeps a checked, read-only copy of an array, and positive, finite
input passes one guard that a NaN fails."""

from types import SimpleNamespace

import numpy as np

_MISSING = object()


class field(SimpleNamespace):  # noqa: N801  (as the dataclasses function)
    """A field's default, and whether __eq__ and __repr__ read it."""

    default = _MISSING
    compare = repr = True


def read_only(array):
    """`array`, made read-only, so that what a record keeps of it stays valid."""
    array.flags.writeable = False
    return array


def numeric(value, message):
    """`value` as an array; ValueError(message) unless its dtype is int or float."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ValueError(message)
    return array


def positive(value, message, zero_ok=False):
    """Numeric `value` as a float array; ValueError(message) unless every entry is
    finite and > 0 (>= 0 if zero_ok), written as not (...) so that a NaN fails."""
    array = numeric(value, message)
    if not (((array >= 0.0) if zero_ok else (array > 0.0)) & (array < np.inf)).all():
        raise ValueError(message)
    return np.asarray(array, dtype=float)


def kept(value, message, grid=False):
    """A read-only float copy of numeric, finite `value` for a record to keep, else
    ValueError(message); if grid, it must also be 1-d, non-empty, > 0 and strictly increasing."""
    array = read_only(np.array(numeric(value, message), dtype=float))
    if not (np.isfinite(array).all() and (not grid or (
            array.ndim == 1 and array.size and array[0] > 0.0 and (np.diff(array) > 0.0).all()))):
        raise ValueError(message)
    return array


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def dataclass(cls):
    """Make cls a frozen record: give it an __init__, __repr__, __eq__ and
    __hash__ over its annotated fields, in order, and refuse assignment
    and deletion of its attributes."""
    specs, defaults = {}, {}
    for name in cls.__dict__.get("__annotations__", {}):
        spec = getattr(cls, name, _MISSING)
        spec = specs[name] = spec if isinstance(spec, field) else field(default=spec)
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)
            defaults[name] = spec.default
        elif name in cls.__dict__:
            delattr(cls, name)
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(specs, args), **kwargs)
        # a repeated or surplus argument leaves given shorter than the call
        if (len(given) < len(args) + len(kwargs) or not given.keys() <= specs.keys()
                or not given.keys() | defaults.keys() >= specs.keys()):
            raise TypeError(f"{cls.__qualname__}() takes each of its fields "
                            f"({', '.join(specs)}) once, unless it has a default")
        self.__dict__.update({name: given[name] if name in given else defaults[name]
                              for name in specs})
        post_init(self)

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in specs if specs[name].repr)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def values(self):
        return tuple(getattr(self, name) for name in specs if specs[name].compare)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    for name, method in {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
                         "__hash__": __hash__, "__setattr__": _frozen,
                         "__delattr__": _frozen}.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
