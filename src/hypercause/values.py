"""Immutable value classes without `dataclasses`.

Every value class of the package is a plain slotted class whose fields are
set once with ``object.__setattr__``.  A frozen dataclass would cost about
half a millisecond to create, paid by every process that imports the
package, and `dataclasses` itself imports `inspect`.  `Value` gives the
semantics a frozen dataclass has: equality between instances of the same
class with equal fields, the hash of the field tuple, a
``Name(field=value, ...)`` repr, and an error on assigning or deleting a
field.  Slots whose name starts with ``_`` are caches, not fields.  Classes
on hot paths (events, formula nodes, tokens) spell out their own
``__init__`` and, where it pays, ``__eq__`` and ``__hash__``.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if f[0] != "_")

    def _key(self) -> tuple:
        """The field values that equality and the hash compare."""
        return self._fields()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_")
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
