"""The base of the package's value classes: equality, hash and repr by the
fields a class names in `_fields`, and a guard against assignment.

A subclass lists its fields in constructor order in `_fields` and sets them
in its `__init__`.  Two instances are equal when they are of the same class
and their field tuples are equal, and a `Frozen` instance hashes as its
field tuple.  A `Frozen` `__init__` sets its fields with
`object.__setattr__`, and `functools.cached_property` writes the instance
`__dict__` directly, so both pass the guard.  No method is generated.
"""


class Value:
    """Equal by fields, unhashable, and mutable."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """Equal and hashed by fields; no attribute can be assigned or deleted."""

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
