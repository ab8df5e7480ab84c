"""The base of the package's small immutable value types."""

from operator import attrgetter


class Record:
    """A value made of named fields, compared, hashed and shown as a frozen
    dataclass would be: equal only to a record of the same exact type with
    equal fields, hashed by its field tuple, and shown as
    ``Name(field=value, ...)``.

    A subclass lists its fields in ``__slots__``, in the order its
    ``__init__`` takes them, and sets each one there and nowhere else.  It
    is not frozen; ``tests/test_records.py`` finds every assignment to a
    field in the package's source.  Unlike a dataclass, defining it
    generates no code at import, and building one costs a few slot stores.
    The three reports, ``FreenessReport``, ``MaximalityReport`` and
    ``CombinedVerdict``, are dataclasses without ``frozen`` under the same
    rule: their fields are set in the generated ``__init__`` only.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # two or more fields, so that the getter returns a tuple
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields(self)
