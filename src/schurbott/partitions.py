"""Generalized Young diagrams: GL_r highest weights with possibly negative entries."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Weight:
    """A non-increasing integer vector of fixed length r.

    The weight is stored dense, including zero tails; the rank is the
    length of ``entries``.  Negative entries are allowed (rational
    representations of GL_r / K-theory classes), so there is no canonical
    sparse form.  Non-integral entries (floats, strings) raise TypeError.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(map(operator.index, self.entries))
        if len(entries) < 1:
            raise ValueError("a weight needs at least one entry")
        if any(a < b for a, b in zip(entries, entries[1:])):
            raise ValueError(f"weight entries must be non-increasing: {entries}")
        object.__setattr__(self, "entries", entries)

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
