"""The base of the records that check their fields when built."""

import collections


def checked_record(name: str, fields: str) -> type:
    """A `collections.namedtuple(name, fields)` subclass for a record whose
    own `__new__` checks its fields and holds their defaults.

    Every build goes through that `__new__`: `_make`, and so `_replace`,
    calls `cls(*iterable)`, and `__reduce__` names the class with its
    fields, so copies and unpickling under every protocol do too (protocols
    0 and 1 would otherwise rebuild the tuple unchecked, by `tuple.__new__`).
    """

    class CheckedRecord(collections.namedtuple(name, fields)):
        __slots__ = ()

        @classmethod
        def _make(cls, iterable):
            return cls(*iterable)

        def __reduce__(self):
            return self.__class__, tuple(self)

    return CheckedRecord
