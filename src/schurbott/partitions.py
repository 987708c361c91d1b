"""Generalized Young diagrams: GL_r highest weights with possibly negative entries."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


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
        return all(e == 0 for e in self.entries)

    def shifted(self, m: int) -> "Weight":
        """Add m to every entry (a determinant twist on the diagram level)."""
        return Weight(tuple(e + m for e in self.entries))

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


def weight(*entries: int) -> Weight:
    return Weight(tuple(entries))


def trivial(rank: int) -> Weight:
    return Weight((0,) * rank)


def parse_weight(text: str) -> Weight:
    """Parse the CLI syntax "a,b,...": comma-separated integers, rank inferred."""
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}") from exc
    return Weight(entries)


def weyl_vector(d: int) -> Weight:
    """The strictly decreasing vector (d, d-1, ..., 2, 1)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return Weight(tuple(range(d, 0, -1)))


def _stripped(entries: Sequence[int]) -> tuple[int, ...]:
    n = len(entries)
    while n and entries[n - 1] == 0:
        n -= 1
    return tuple(entries[:n])


def transpose(p: Weight) -> Weight:
    """Conjugate Young diagram (columns become rows).

    Only defined for partitions.  Trailing zeros are stripped before
    conjugating; the transpose of the zero partition is the rank-1 zero
    weight.
    """
    if not p.is_partition():
        raise ValueError(f"transpose needs non-negative entries, got {p}")
    rows = _stripped(p.entries)
    if not rows:
        return Weight((0,))
    cols = tuple(sum(1 for r in rows if r > j) for j in range(rows[0]))
    return Weight(cols)


def to_hook(p: Weight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Diagonal hook coordinates (u|v) of a non-empty partition.

    u_i counts the boxes of row i from the diagonal box (i,i) rightwards,
    v_i the boxes of column i from (i,i) downwards, both inclusive.
    """
    rows = _stripped(p.entries)
    if not rows:
        raise ValueError("the empty diagram has no hook coordinates")
    cols = transpose(p).entries
    u = []
    v = []
    for i, r in enumerate(rows):
        if r <= i:
            break
        u.append(r - i)
        v.append(cols[i] - i)
    return tuple(u), tuple(v)


def from_hook(arms: Iterable[int], legs: Iterable[int]) -> Weight:
    """Partition with i-th diagonal hook of arm arms[i] and leg legs[i]."""
    u = tuple(int(a) for a in arms)
    v = tuple(int(b) for b in legs)
    if len(u) != len(v):
        raise ValueError("arm and leg vectors must have equal length")
    if not u:
        raise ValueError("at least one hook is required")
    for seq, name in ((u, "arms"), (v, "legs")):
        if any(x <= 0 for x in seq) or any(a <= b for a, b in zip(seq, seq[1:])):
            raise ValueError(f"{name} must be strictly decreasing and positive")
    r = len(u)
    nrows = v[0] + 0  # column 0 reaches row v[0]-1
    rows = []
    for i in range(nrows):
        if i < r:
            length = u[i] + i
        else:
            length = sum(1 for j in range(r) if v[j] + j > i)
        rows.append(length)
    result = Weight(tuple(rows))
    if to_hook(result) != (u, v):
        raise ValueError(f"incompatible hook data (u={u}, v={v})")
    return result


def sort_key(p: Weight) -> tuple:
    """Sort key realizing the total order on partitions.

    Diagrams with more boxes come first; ties at equal size are broken
    lexicographically with the larger first entry coming first.
    """
    return (-p.size, tuple(-e for e in p.entries))


def compare(a: Weight, b: Weight) -> int:
    """Total order on partitions: -1 if a comes first, 0 if equal, 1 otherwise."""
    ka, kb = sort_key(a), sort_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def precedes(a: Weight, b: Weight) -> bool:
    return compare(a, b) < 0
