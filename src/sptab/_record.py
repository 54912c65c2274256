"""The immutable record every value class builds on: letters, columns and
their doubles, tableaux, and the skew columns and states of the slides.

A record's fields are named by its class's `_fields` and given by position;
trailing ones may default to class attributes.  Records of one class are
equal when their fields are, and hash as the tuple of fields; the repr
names each field, and setting or deleting an attribute raises.  Written
out here, these cost a cold start far less than the standard library's
generated records, whose import loads `inspect` and compiles code per class.

Fields are stored by `object.__setattr__`, not through `__dict__`: on
CPython 3.11 an instance whose `__dict__` was once read is slower at every
later field read.  The facts a class memoises still go to that dict.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" in cls.__dict__:
            # the tuple of fields in one call, never by a generator: __eq__ runs in the memos' hot paths
            cls._key = attrgetter(*cls._fields)
            cls._arity = range(sum(not hasattr(cls, f) for f in cls._fields), len(cls._fields) + 1)

    def __init__(self, *args) -> None:
        if len(args) not in self._arity:
            arity = self._arity
            raise TypeError(f"{type(self).__name__} takes {arity[0]} to {arity[-1]} fields, got {len(args)}")
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalise the fields; looked up on each build."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
