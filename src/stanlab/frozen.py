"""The base of the package's immutable value classes.

A subclass names its fields, in order, in ``__match_args__`` and sets each
one once, in ``__init__``, through ``object.__setattr__``.  It then behaves as
a frozen dataclass would: it is equal only to an object of its own class with
equal fields, it hashes as the tuple of its fields, its repr lists the fields
by name, assigning or deleting an attribute raises AttributeError, and copy
and pickle rebuild it from its fields.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
