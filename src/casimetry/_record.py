"""Record classes without ``dataclasses``, whose one ``exec`` per generated
method made building the package's records most of the cost of importing
it.  The methods here are closures over each class's fields; for the
flags the package uses they behave as the stdlib's do.  Kept arrays are
read-only, and positive, finite input passes one guard that a NaN fails."""

from types import SimpleNamespace

import numpy as np

_MISSING = object()


class field(SimpleNamespace):  # noqa: N801  (as the dataclasses function)
    """A field's default or default_factory, and whether __eq__ and
    __repr__ read it."""

    default = default_factory = _MISSING
    compare = repr = True


def read_only(array):
    """`array`, made read-only, so that what a record keeps of it stays valid."""
    array.flags.writeable = False
    return array


def positive(value, message, zero_ok=False):
    """`value` as a float array; ValueError(message) unless its dtype is bool,
    int or float (a numeric string is refused, not parsed) and every entry is
    finite and > 0 (>= 0 if zero_ok), written as not (...) so that a NaN fails."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf" or not (
            ((array >= 0.0) if zero_ok else (array > 0.0)) & (array < np.inf)).all():
        raise ValueError(message)
    return np.asarray(array, dtype=float)


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def dataclass(cls=None, /, *, frozen=False, eq=True):
    """Give cls an __init__ and __repr__ over its annotated fields, in
    order, and the __eq__, __hash__ and frozen methods its flags ask for."""
    if cls is None:
        return lambda cls: dataclass(cls, frozen=frozen, eq=eq)
    specs, defaults = {}, {}  # defaults: name -> a maker of the value
    for name in cls.__dict__.get("__annotations__", {}):
        spec = getattr(cls, name, _MISSING)
        spec = specs[name] = spec if isinstance(spec, field) else field(default=spec)
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)
            defaults[name] = lambda value=spec.default: value
        elif name in cls.__dict__:
            delattr(cls, name)
        if spec.default_factory is not _MISSING:
            defaults[name] = spec.default_factory
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(specs, args), **kwargs)
        # a repeated or surplus argument leaves given shorter than the call
        if (len(given) < len(args) + len(kwargs) or not given.keys() <= specs.keys()
                or not given.keys() | defaults.keys() >= specs.keys()):
            raise TypeError(f"{cls.__qualname__}() takes each of its fields "
                            f"({', '.join(specs)}) once, unless it has a default")
        self.__dict__.update({name: given[name] if name in given else defaults[name]()
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

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:  # the dataclasses rule: hashable if frozen, else unhashable
        methods.update(__eq__=__eq__, __hash__=__hash__ if frozen else None)
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
