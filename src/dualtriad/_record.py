"""Value semantics shared by the package's record classes.

A record lists its fields in __slots__, in constructor order, and the values
of its optional ones in _defaults, where a type stands for a fresh instance.
Record's __init__ takes the fields by position or by name.  Record gives
field-wise ==, a Name(field=value, ...) repr and a pickle and copy protocol
that rebuilds the record through its constructor; a Record is mutable and has
no hash.  Frozen adds a hash and makes the fields read-only.
"""

from __future__ import annotations

from typing import Any


class Record:
    __slots__ = ()
    _defaults: dict[str, Any] = {}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        name, names = type(self).__name__, self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{name}(): {len(args)} fields given, {len(names)} taken")
        values = dict(zip(names, args))
        for field, value in kwargs.items():
            if field in values or field not in names:
                raise TypeError(f"{name}(): {'repeated' if field in values else 'unknown'} field {field!r}")
            values[field] = value
        for field in names:
            if field not in values:
                if field not in self._defaults:
                    raise TypeError(f"{name}(): missing field {field!r}")
                value = self._defaults[field]
                values[field] = value() if isinstance(value, type) else value
            object.__setattr__(self, field, values[field])

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

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
