"""Value semantics shared by the package's record classes.

A record lists its fields in __slots__, in constructor order, and sets them
in an explicit __init__.  Record gives field-wise ==, a Name(field=value, ...)
repr and a pickle and copy protocol that rebuilds the record through its
constructor; a Record is mutable and has no hash.  Frozen adds a hash of the
fields and makes them read-only: its __init__ sets them with _set.
"""

from __future__ import annotations

from typing import Any


class Record:
    __slots__ = ()

    def _fields(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._fields()


class Frozen(Record):
    __slots__ = ()

    def _set(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
