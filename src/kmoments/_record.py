"""Read-only result records, built without the dataclasses module.

``dataclasses`` imports inspect, ast, dis and tokenize, which cost more
at start-up than everything a short CLI run computes.  A record lists
its fields in ``__slots__``; they are set once by the constructor, by
keyword or position, and compare, hash, print and copy as a frozen
dataclass's do.
"""

from __future__ import annotations


class Record:
    """Base of a read-only record whose fields are its ``__slots__``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(zip(fields, args))
        if len(args) > len(fields) or values.keys() & kwargs.keys():
            raise TypeError(f"{type(self).__name__} takes one value per field {fields}")
        values.update(kwargs)
        if values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {fields}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({inner})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return type(self), self._values()
