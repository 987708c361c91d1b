"""Young-diagram helpers and a Borel-Weil-Bott reference the tests use as oracles.

The package conjugates partitions only inside its Littlewood-Richardson
rule and never reads hook coordinates; ``transpose`` here is written
independently of it, for the plethysm closed forms and the hook-content
formula in the tests.  ``dotted_action`` is the generic Borel-Weil-Bott
computation with no shortcut, the reference for both of ``bwb_single``'s
rules: the repeat rule and the trivial-K interval.  ``char_product``
multiplies two characters monomial by monomial, the oracle the tests hold
``tensor`` and ``decompose`` to.
"""

from __future__ import annotations

from typing import Iterable

from schurbott.partitions import Weight


def weight(*entries: int) -> Weight:
    return Weight(tuple(entries))


def _rows(p: Weight) -> tuple[int, ...]:
    """The entries without their zero tail."""
    n = p.rank
    while n and p.entries[n - 1] == 0:
        n -= 1
    return p.entries[:n]


def transpose(p: Weight) -> Weight:
    """Conjugate Young diagram (columns become rows).

    Only defined for partitions.  Trailing zeros are stripped before
    conjugating; the transpose of the zero partition is the rank-1 zero
    weight.
    """
    if not p.is_partition():
        raise ValueError(f"transpose needs non-negative entries, got {p}")
    rows = _rows(p)
    if not rows:
        return Weight((0,))
    return Weight(tuple(sum(1 for r in rows if r > j) for j in range(rows[0])))


def to_hook(p: Weight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Diagonal hook coordinates (u|v) of a non-empty partition.

    u_i counts the boxes of row i from the diagonal box (i,i) rightwards,
    v_i the boxes of column i from (i,i) downwards, both inclusive.
    """
    rows = _rows(p)
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
    rows = []
    for i in range(v[0]):  # column 0 reaches row v[0]-1
        if i < r:
            rows.append(u[i] + i)
        else:
            rows.append(sum(1 for j in range(r) if v[j] + j > i))
    result = Weight(tuple(rows))
    if to_hook(result) != (u, v):
        raise ValueError(f"incompatible hook data (u={u}, v={v})")
    return result


def char_product(x: tuple, y: tuple) -> tuple:
    """Product of two characters, each a sorted tuple of (exponent vector, coefficient) pairs."""
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in x:
        for eb, cb in y:
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return tuple(sorted((e, c) for e, c in out.items() if c))


def dotted_action(d: int, k: int, gamma, delta) -> tuple:
    """Borel-Weil-Bott for S^gamma K (x) S^delta Q^v on G(k,d), by the full dotted action.

    Returns (kind, degree, weight entries, repeated value): the first value
    repeated in (gamma || delta) + (d, ..., 1) kills the cohomology;
    otherwise sorting gives the degree (inversions) and the weight.
    """
    rho = range(d, 0, -1)
    dotted = [a + r for a, r in zip(tuple(gamma) + tuple(delta), rho)]
    seen = set()
    for v in dotted:
        if v in seen:
            return "zero", None, None, v
        seen.add(v)
    inversions = sum(1 for i in range(d) for j in range(i + 1, d) if dotted[i] < dotted[j])
    beta = tuple(v - r for v, r in zip(sorted(dotted, reverse=True), rho))
    return "nonzero", inversions, beta, None
