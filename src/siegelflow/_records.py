"""Immutable record classes, built without generating source code.

``record`` turns a class whose body annotates its fields into an immutable
record.  It installs closures in the class's own namespace, so each class
carries its own methods:

* ``__init__`` taking the fields positionally or by keyword, in annotation
  order, with class attributes as defaults, and carrying the fields as its
  ``__signature__``; it calls ``__post_init__`` when the class defines one,
  which may normalise a field through ``object.__setattr__``;
* ``__repr__`` as ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` that raise ``FrozenRecordError``;
* with ``eq=True`` (the default), ``__eq__`` comparing the field tuples of
  two records of the same class and ``__hash__`` hashing that tuple;
  ``eq=False`` keeps identity comparison, for records that hold arrays;
* ``__match_args__``.

No source text is generated or executed, which keeps the package import
cheap.  The standard library's field helpers (``fields``, ``replace``,
``asdict``) do not apply to records.
"""

from __future__ import annotations

from inspect import Parameter, Signature
from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of an immutable record."""


def record(cls=None, /, *, eq: bool = True):
    """Class decorator: ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda cls: _build(cls, eq)
    return _build(cls, eq)


def _bind(cls, names, defaults, args, kwargs) -> list:
    """Field values in annotation order from a call's arguments."""
    title = cls.__name__
    if len(args) > len(names):
        raise TypeError(
            f"{title}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    values = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{title}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{title}() got multiple values for argument {key!r}")
        values[key] = value
    missing = [name for name in names if name not in values and name not in defaults]
    if missing:
        raise TypeError(
            f"{title}() missing required arguments: {', '.join(map(repr, missing))}"
        )
    return [values[name] if name in values else defaults[name] for name in names]


def _build(cls, eq: bool):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        state = self.__dict__
        if not kwargs and len(args) == count:  # no _bind: M 4% (README)
            state.update(zip(names, args))
        else:
            state.update(zip(names, _bind(cls, names, defaults, args, kwargs)))
        if post_init:
            self.__post_init__()

    # What inspect.signature, help() and editors show for the class.
    __init__.__signature__ = Signature(
        [Parameter("self", Parameter.POSITIONAL_OR_KEYWORD)]
        + [
            Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                      default=defaults.get(name, Parameter.empty))
            for name in names
        ]
    )

    def __repr__(self):
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({parts})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    methods = [__init__, __repr__, __setattr__, __delattr__]
    if eq:
        # A tuple even for one field, so equality and hashing are those of
        # the field tuple.
        get = attrgetter(*names)
        values = get if count > 1 else (lambda record: (get(record),))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        methods += [__eq__, __hash__]
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
