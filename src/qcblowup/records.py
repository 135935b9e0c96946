"""Bases of the package's record types.

A record lists its fields in ``_fields``, in constructor order, and stores
them in ``__init__``; a record equals itself at once, and otherwise
equality compares the fields of two records of the same type; the repr
names each field, as ``Name(field=value, ...)``.  A :class:`Frozen` record
is immutable once built (fields are stored with ``object.__setattr__``),
hashes as the tuple of its fields and is copied through its constructor; a
plain :class:`Record` is mutable and unhashable.  Record types whose hash
is on a hot path write it out themselves.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the
        # fields in order; the default would assign them one by one
        return type(self), self._astuple()
