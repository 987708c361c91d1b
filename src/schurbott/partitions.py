"""Generalized Young diagrams: GL_r highest weights with possibly negative entries.

``Value`` is the base of all eight value types of the package.  ``Weight``
is the one immutable, hashable value, because it is the one key.
"""

from __future__ import annotations

import operator
from typing import Sequence


class Value:
    """Base of the package's plain value types.

    The fields are the subclass's ``__slots__``, in constructor order.  An
    instance is equal only to one of the same class with equal fields, prints
    as ``Name(field=value, ...)`` and, since it defines ``__eq__`` alone, is
    unhashable.  Equality reads the fields through ``_key``, one
    ``attrgetter`` call: a tuple of the fields, or the lone field of a
    one-field class.  ``Weight`` alone is immutable and hashable, because
    it is the one dict and cache key.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._key = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Weight(Value):
    """A non-increasing integer vector of fixed length r.

    The weight is stored dense, including zero tails; the rank is the
    length of ``entries``.  Negative entries are allowed (rational
    representations of GL_r / K-theory classes), so there is no canonical
    sparse form.  Non-integral entries (floats, strings) raise TypeError.
    The constructor is the one place a weight is validated.  Equality and
    hashing read ``entries`` directly.  A weight is the package's one dict
    and cache key, so it alone is immutable: ``__init__`` sets ``entries``
    once, and any later assignment or deletion raises.
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        entries = tuple(map(operator.index, entries))
        if not entries:
            raise ValueError("a weight needs at least one entry")
        if not all(map(operator.ge, entries, entries[1:])):
            raise ValueError(f"weight entries must be non-increasing: {entries}")
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Weight:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return Weight, (self.entries,)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def size(self) -> int:
        """Number of boxes |w| (may be negative for virtual weights)."""
        return sum(self.entries)

    def is_partition(self) -> bool:
        return self.entries[-1] >= 0

    def is_zero(self) -> bool:
        return not any(self.entries)

    def padded(self, rank: int) -> "Weight":
        """Extend a partition with trailing zeros up to the given rank."""
        if rank < self.rank:
            raise ValueError("cannot pad to a smaller rank")
        if rank == self.rank:
            return self
        if self.entries[-1] < 0:
            raise ValueError("cannot pad a weight with negative entries")
        return Weight(self.entries + (0,) * (rank - self.rank))

    def dual(self) -> "Weight":
        """Highest weight of the dual representation: entries negated and reversed."""
        return Weight(tuple(-e for e in reversed(self.entries)))

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def trivial(rank: int) -> Weight:
    return Weight((0,) * rank)


def parse_weight(text: str) -> Weight:
    """Parse the CLI syntax "a,b,...": comma-separated integers, rank inferred."""
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}") from exc
    return Weight(entries)


def _stripped(entries: Sequence[int]) -> tuple[int, ...]:
    n = len(entries)
    while n and entries[n - 1] == 0:
        n -= 1
    return tuple(entries[:n])


def sort_key(p: Weight) -> tuple:
    """Sort key realizing the total order on partitions.

    Diagrams with more boxes come first; ties at equal size are broken
    lexicographically with the larger first entry coming first.
    """
    return (-p.size, tuple(-e for e in p.entries))


def precedes(a: Weight, b: Weight) -> bool:
    return sort_key(a) < sort_key(b)
