"""``Record``, the base of the value classes that check or normalise their
inputs or cache a value derived from them; the package's other records are
``typing.NamedTuple``s.  Where a dataclass compiles each of its methods
when its class is created, a ``Record`` subclass compiles nothing and a
NamedTuple only its ``__new__``.  Both answer ``_fields`` and ``_replace``.
"""

from __future__ import annotations


class Record:
    """An immutable value.  ``_fields`` names its values in the order of
    its constructor's parameters: two records of one class are equal, and
    hash alike, when those values are, and ``repr`` shows them.
    ``__init__`` stores them with ``_set``; assigning an attribute later
    raises AttributeError.  A ``functools.cached_property`` still caches,
    since it writes the instance's ``__dict__`` directly."""

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A record of this class with ``changes`` in place of those fields."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")
