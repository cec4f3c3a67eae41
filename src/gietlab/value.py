"""The base of the package's value classes.

A value class writes its own ``__init__`` and names its compared fields, in
order, in ``_fields``.  ``Value`` gives it ``__eq__`` over those fields,
through one ``operator.attrgetter`` per class, and a ``repr`` that shows
them; like a mutable dataclass it is unhashable.  ``Frozen`` adds
``__hash__`` over the same fields and refuses assignment after
``__init__``, which sets the fields with one ``self.__dict__.update``:
in CPython 3.11 that is quicker than ``object.__setattr__`` per field, and
attribute reads stay quick after a ``cached_property`` fills in its value.

The methods are written once here rather than generated per class at
import, as ``dataclasses`` does: every ``gietlab`` command pays its import.

>>> class Point(Frozen):
...     _fields = ("x", "y")
...     def __init__(self, x, y):
...         self.__dict__.update(x=x, y=y)
>>> p = Point(1, 2)
>>> p, p == Point(1, 2), hash(p) == hash((1, 2))
(Point(x=1, y=2), True, True)
>>> p.x = 3
Traceback (most recent call last):
...
AttributeError: cannot assign to field 'x'
"""

from operator import attrgetter


class Value:
    _fields = ()

    def __init_subclass__(cls):
        if "_fields" in cls.__dict__:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Value):
    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
