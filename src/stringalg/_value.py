"""Immutable value classes, declared without `dataclasses`.

A value class names its compared fields, in declaration order, in
`_compare` (and its repr fields in `_repr` when they differ) and writes
its own `__init__`, setting each field with `object.__setattr__`.  The
shared base supplies the rest: equality against the same class only,
the hash of the compared-field tuple, a `Name(field=value, ...)` repr,
and assignment and deletion that raise AttributeError.

`@dataclass(frozen=True)` generates the same methods, but importing
`dataclasses` (with `inspect`) and exec'ing the generated source of
every class is about a third of a `stringalg` process's import time.
"""

from operator import attrgetter


class Value:
    _repr = None

    def __init_subclass__(cls):
        # a C-level getter keeps == and hash as cheap as generated ones
        get = attrgetter(*cls._compare)
        if len(cls._compare) == 1:
            get = lambda self, field=get: (field(self),)
        cls._key = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._repr or self._compare)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
