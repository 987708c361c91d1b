"""The representation ring of GL_r in the Schur basis.

``tensor`` is the one product.  At rank 2 it is the Clebsch-Gordan closed
form; at every other rank it is the Littlewood-Richardson rule, which
builds only LR tableaux: each letter is placed as a horizontal strip
bounded row by row by the previous letter, so the lattice condition prunes
as it places.  Each weight is first shifted by a power of the determinant
to a partition with an empty last row, both factors are conjugated when
that makes a smaller search, and the larger factor is passed first, so
both orders of a pair share one cached computation.
``verify`` checks both routes against the Brauer-Klimyk formula, which
reads one factor's weights from ``schur_char`` and never places a tableau.
Symmetric/exterior powers and general plethysms go through an independent
character-polynomial oracle: expand into a multiset of weight monomials by
the Gelfand-Tsetlin branching rule, apply the elementary or complete
symmetric function, and peel the result back into Schur terms, each highest
weight once.  A character stores its coefficients as a sorted tuple of
(exponent vector, coefficient) pairs; ``schur_char`` builds each weight's
character once and hands out the same object on every later call, so
characters are never mutated.  Weyl dimensions are exact integer products,
reduced row by row.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from math import gcd
from typing import Mapping

from .partitions import Frozen, Weight, _stripped, trivial


class DecompositionError(ValueError):
    """A claimed character failed to peel into non-negative Schur multiplicities."""


def weyl_dim(w: Weight) -> int:
    """Dimension of the irreducible GL_r representation of highest weight w.

    Weyl dimension formula: prod over i<j of (w_i - w_j + j - i)/(j - i).
    Equal entries give factors of 1, so each row i multiplies integers over
    the j with w_j != w_i.  Each row's quotient is reduced by its gcd and
    cross-reduced against the running numerator and denominator before it
    joins them (how ``Fraction`` multiplies, without building one per row),
    so the running values stay as small as the partial products allow.
    """
    e = w.entries
    r = len(e)
    num = den = 1
    for i in range(r):
        n = dn = 1
        for j in range(i + 1, r):
            if e[i] != e[j]:
                n *= e[i] - e[j] + j - i
                dn *= j - i
        g = gcd(n, dn)
        n, dn = n // g, dn // g
        g1, g2 = gcd(num, dn), gcd(n, den)
        num = (num // g1) * (n // g2)
        den = (den // g2) * (dn // g1)
    if den != 1:
        raise ArithmeticError(f"Weyl dimension of {w} is not an integer: {num}/{den}")
    return num


# ---------------------------------------------------------------------------
# Littlewood-Richardson multiplication
# ---------------------------------------------------------------------------

def _conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition (column lengths) of a partition without trailing zeros."""
    out = []
    n = len(p)
    for j in range(p[0] if p else 0):
        while p[n - 1] <= j:
            n -= 1
        out.append(n)
    return tuple(out)


def _lattice_strips(
    shape: tuple[int, ...], m: int, above: tuple[int, ...] | None, later: tuple[int, ...], max_rows: int, width: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ways to add m boxes of the next letter to ``shape`` that keep an LR tableau.

    Returns (new shape, boxes added per row) pairs.  The boxes form a
    horizontal strip, with at most max_rows rows and at most ``width`` boxes
    in the first row.  ``above`` is the previous letter's count per row, None
    for letter 1, and ``later`` the counts of the letters still to place.  A
    row's letters weakly increase, so the reverse reading word meets a row's
    new letters before its previous ones: it stays a lattice word exactly
    when, for every row r, the new letters in rows <= r never outnumber the
    previous letter's in rows < r.  So the letter placed s letters later fits
    in rows < max_rows only if at least as many of this letter's boxes are
    in rows < max_rows - s.

    Only the open rows, row 0 and each row shorter than the one above it,
    can take a box, so the search visits those alone: a row between two
    open rows takes none, and its conditions follow from the open row before
    it.  Each open row takes at least the boxes the rows after it cannot.
    """
    base = list(shape) + ([0] if len(shape) < max_rows else [])
    rows = [0] + [j for j in range(1, len(base)) if base[j] < base[j - 1]]
    # mu_j <= lambda_{j-1} keeps the added boxes in distinct columns
    upper = [width - base[0]] + [base[j - 1] - base[j] for j in rows[1:]]
    # cover[k]: the previous letter's boxes in the rows above rows[k], which
    # the new ones up to rows[k] may not outnumber; letter 1 has no such bound
    if above is None:
        cover = [m] * len(rows)
    else:
        before = list(itertools.accumulate(above, initial=0))
        cover = [before[j] for j in rows]
        if cover[-1] < m:  # too few above the last open row: no placement completes
            return []
    # left[k]: the most boxes the open rows after rows[k] may take, within
    # their strip room and leaving the later letters room below this one
    left = [0] * len(rows)
    for k in range(len(rows) - 2, -1, -1):
        s = max_rows - rows[k + 1]
        left[k] = min(left[k + 1] + upper[k + 1], m - later[s - 1] if s <= len(later) else m)
    counts = [0] * len(base)
    out = []

    def rec(k: int, remaining: int) -> None:
        if remaining == 0:
            out.append((_stripped([b + c for b, c in zip(base, counts)]), tuple(counts)))
            return
        j = rows[k]
        for add in range(max(0, remaining - left[k]), min(upper[k], remaining, cover[k] - m + remaining) + 1):
            counts[j] = add
            rec(k + 1, remaining - add)
        counts[j] = 0

    rec(0, m)
    return out


@lru_cache(maxsize=None)
def lr_coefficients(alpha: tuple[int, ...], beta: tuple[int, ...], max_rows: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Littlewood-Richardson expansion of s_alpha * s_beta, rows capped at max_rows.

    Both inputs are partitions without trailing zeros.  Returns pairs
    (nu, N_{alpha beta nu}); shapes with more than max_rows rows are dropped
    (they vanish as GL_{max_rows} representations).  The smaller factor's
    letters are placed one strip at a time by ``_lattice_strips``, each
    bounded by the previous letter's rows, so every complete placement is one
    LR tableau of shape nu/alpha and content beta.  The coefficients are
    invariant under conjugating all three shapes, so both factors are
    conjugated when that makes the search smaller, in letters times rows:
    beta_1 letters in up to alpha_1 + beta_1 rows, against len(beta)
    letters in up to max_rows.  The row cap then becomes a cap on the first
    row, and each shape is conjugated back at the end.
    """
    if sum(beta) > sum(alpha):
        alpha, beta = beta, alpha  # symmetric; iterate over the smaller factor
    conjugated = bool(beta) and beta[0] * (alpha[0] + beta[0]) < len(beta) * min(max_rows, len(alpha) + len(beta))
    if conjugated:
        alpha, beta = _conjugate(alpha), _conjugate(beta)
        rows, width = len(alpha) + len(beta), max_rows
    else:
        rows, width = max_rows, sum(alpha) + sum(beta)
    results: Counter[tuple[int, ...]] = Counter()

    def place(i: int, shape: tuple[int, ...], above: tuple[int, ...] | None) -> None:
        if i == len(beta):
            results[shape] += 1
            return
        for new_shape, counts in _lattice_strips(shape, beta[i], above, beta[i + 1 :], rows, width):
            place(i + 1, new_shape, counts)

    place(0, alpha, None)
    if conjugated:
        return tuple(sorted((_conjugate(nu), c) for nu, c in results.items()))
    return tuple(sorted(results.items()))


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------

class RepElement:
    """Finite integer combination of Weights of a common rank.

    Negative coefficients are allowed (virtual K-theory elements); zero
    coefficients are never stored.  Instances are immutable in spirit:
    all operations return fresh elements.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Weight, int] | None = None):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.terms = {}
        for w, c in (terms or {}).items():
            if w.rank != rank:
                raise ValueError(f"weight {w} has rank {w.rank}, element has rank {rank}")
            if c != 0:
                self.terms[w] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def schur(cls, rank: int, entries) -> "RepElement":
        """S^w over GL_rank: zero rows past rank are dropped, more nonzero rows give 0."""
        if rank < 1:  # before w.entries[rank] reads a row from the end
            raise ValueError("rank must be positive")
        w = entries if isinstance(entries, Weight) else Weight(tuple(entries))
        if w.rank > rank:
            if not w.is_partition():
                raise ValueError(f"weight {w} has a negative entry and more than {rank} entries")
            if w.entries[rank]:
                return cls(rank)
            w = Weight(w.entries[:rank])
        return cls(rank, {w.padded(rank): 1})

    @classmethod
    def one(cls, rank: int) -> "RepElement":
        return cls(rank, {trivial(rank): 1})

    @classmethod
    def zero(cls, rank: int) -> "RepElement":
        return cls(rank)

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def dimension(self) -> int:
        return sum(c * weyl_dim(w) for w, c in self.terms.items())

    def __add__(self, other: "RepElement") -> "RepElement":
        self._check(other)
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0) + c
        return RepElement(self.rank, merged)

    def __sub__(self, other: "RepElement") -> "RepElement":
        return self + other.scaled(-1)

    def scaled(self, n: int) -> "RepElement":
        return RepElement(self.rank, {w: n * c for w, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RepElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def _check(self, other: "RepElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        return sorted(self.terms.items(), key=lambda t: tuple(-e for e in t[0].entries))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}S{w}")
        return " + ".join(parts)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [
                {"weight": list(w.entries), "coeff": c} for w, c in self.sorted_terms()
            ],
        }


def tensor(a: RepElement, b: RepElement) -> RepElement:
    """Bilinear product: Clebsch-Gordan at rank 2, Littlewood-Richardson at any other rank.

    For LR, each weight is shifted by a power of the determinant into a
    partition with an empty last row, the partitions are multiplied, and the
    result is twisted back; shapes with more than ``rank`` rows vanish.
    """
    if a.rank == b.rank == 2:
        return _clebsch_gordan(a, b)
    a._check(b)
    rank = a.rank
    b_shapes = [(_partition_shift(wb), cb) for wb, cb in b.terms.items()]
    out: dict[Weight, int] = {}
    for wa, ca in a.terms.items():
        pa, ma = _partition_shift(wa)
        for (pb, mb), cb in b_shapes:
            shift = ma + mb
            # larger factor first, so both orders of a pair share one cache entry
            key = (pb, pa) if sum(pb) > sum(pa) else (pa, pb)
            for nu, mult in lr_coefficients(*key, rank):
                w = Weight(tuple(e - shift for e in nu) + (-shift,) * (rank - len(nu)))
                out[w] = out.get(w, 0) + ca * cb * mult
    return RepElement(rank, out)


def _clebsch_gordan(a: RepElement, b: RepElement) -> RepElement:
    """Rank-2 product, term by term:

    S(a1,a2) (x) S(b1,b2) = sum over g = 0..min(a1-a2, b1-b2) of S(a1+b1-g, a2+b2+g).
    """
    out: dict[tuple[int, int], int] = {}
    b_terms = [(wb.entries, cb) for wb, cb in b.terms.items()]
    for wa, ca in a.terms.items():
        a1, a2 = wa.entries
        for (b1, b2), cb in b_terms:
            c = ca * cb
            for g in range(min(a1 - a2, b1 - b2) + 1):
                e = (a1 + b1 - g, a2 + b2 + g)
                out[e] = out.get(e, 0) + c
    return RepElement(2, {Weight(e): c for e, c in out.items() if c})


def _partition_shift(w: Weight) -> tuple[tuple[int, ...], int]:
    """(p, m) with m = -w_r: the partition w + m, trailing zeros dropped.

    Its last row is empty, so p has no full column: a weight near a power of
    the determinant, such as (n,n,n), is a small shape however large n is.
    """
    m = -w.entries[-1]
    return _stripped([e + m for e in w.entries]), m


def dual(a: RepElement) -> RepElement:
    """Linear extension of Sigma^alpha -> Sigma^{-alpha}, reversing the entries."""
    return RepElement(a.rank, {w.dual(): c for w, c in a.terms.items()})


# ---------------------------------------------------------------------------
# Character oracle
# ---------------------------------------------------------------------------

class CharPoly(Frozen):
    """Symmetric integer Laurent polynomial in ``rank`` variables.

    ``coeffs`` is a tuple of (exponent vector, coefficient) pairs, sorted by
    exponent vector, with no zero coefficient, so two equal polynomials have
    equal ``coeffs``.  The exponent vectors are the weights of the
    representation, so symmetry under permuting the variables is automatic
    for genuine characters.  ``schur_char`` memoises one instance per weight
    and shares it, so an instance is never mutated.
    """

    __slots__ = ("rank", "coeffs")
    rank: int
    coeffs: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, rank: int, coeffs: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_counter(cls, rank: int, counts: Mapping[tuple[int, ...], int]) -> "CharPoly":
        return cls(rank, tuple(sorted((e, c) for e, c in counts.items() if c != 0)))

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out: dict[tuple[int, ...], int] = {}
        get, add = out.get, operator.add
        for ea, ca in self.coeffs:
            for eb, cb in other.coeffs:
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        return CharPoly.from_counter(self.rank, out)

    def monomials(self) -> list[tuple[int, ...]]:
        """Multiset of exponent vectors; requires non-negative coefficients."""
        out = []
        for e, c in self.coeffs:
            if c < 0:
                raise ValueError("negative coefficient; not a genuine character")
            out.extend([e] * c)
        return out


def _schur_monomials(shape: tuple[int, ...], rank: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Weight multiset of s_shape(x_1..x_rank) by the Gelfand-Tsetlin branching rule.

    s_mu(x_1..x_l) sums s_nu(x_1..x_{l-1}) x_l^{|mu|-|nu|} over the shapes nu
    of the letters below l: those interlacing mu (mu_{j+1} <= nu_j <= mu_j)
    with at most l-1 rows.  Each such nu completes, so no branch dead-ends,
    and the recursion is at most ``rank`` deep.  Only the rows where
    interlacing leaves a choice (mu_{j+1} < mu_j) are branched on; every
    other row of nu is fixed at its lower bound.  A mu with exactly l rows
    is first divided by (x_1...x_l)^{mu_l}, carried as a shift of those l
    exponents, so a forced chain of full columns ends at once.
    """
    rows = tuple(r for r in shape if r > 0)
    if len(rows) > rank:
        return ()
    counts: dict[tuple[int, ...], int] = {}
    exps = [0] * rank  # x_{l+1}..x_rank, set in place on the way down

    def branch(mu: tuple[int, ...], size: int, l: int, shift: int) -> None:
        if len(mu) == l:  # s_mu = (x_1...x_l)^{mu_l} s_{mu - mu_l}
            m = mu[-1]
            mu = tuple(r - m for r in mu if r > m)
            size -= l * m
            shift += m
        if not mu:  # x_1..x_l are all at the shift; l = 1 always lands here
            e = (shift,) * l + tuple(exps[l:])
            counts[e] = counts.get(e, 0) + 1
            return
        # nu_j ranges over [mu_{j+1}, mu_j], mu_{len mu} = 0, for j < len mu <= l-1
        low = mu[1:] + (0,)
        free = [j for j, lo in enumerate(low) if lo < mu[j]]
        base = sum(low)
        for extra in itertools.product(*[range(mu[j] - low[j] + 1) for j in free]):
            nu = list(low)
            for j, x in zip(free, extra):
                nu[j] += x
            if not nu[-1]:  # only the last lower bound is 0
                nu.pop()
            s = base + sum(extra)
            exps[l - 1] = size - s + shift
            branch(tuple(nu), s, l - 1, shift)

    branch(rows, sum(rows), rank, 0)
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def schur_char(w: Weight) -> CharPoly:
    """Character of Sigma^w as a Laurent polynomial, through the determinant shift.

    Memoised per weight; callers share the returned object.  Subtracting m
    from every exponent keeps the monomials sorted and their coefficients
    nonzero, so the shifted tuple is stored as it is.
    """
    shape, m = _partition_shift(w)
    mons = _schur_monomials(shape, w.rank)
    if m:
        mons = tuple((tuple(x - m for x in e), c) for e, c in mons)
    return CharPoly(w.rank, mons)


def char_of(a: RepElement) -> CharPoly:
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for w, c in a.terms.items():
        for e, mult in schur_char(w).coeffs:
            out[e] = get(e, 0) + c * mult
    return CharPoly.from_counter(a.rank, out)


def decompose(c: CharPoly) -> RepElement:
    """Invert char_of by peeling highest weights.

    The lexicographically largest remaining exponent vector w is a highest
    weight: its coefficient is the multiplicity of S^w, whose character is
    then subtracted.  Every weight of S^w is at most w in lex order, so each
    vector is peeled once, and a genuine or virtual character ends as its
    Schur expansion; a non-dominant leading vector fails as a ``Weight``.
    """
    remaining = dict(c.coeffs)
    terms: dict[Weight, int] = {}
    while remaining:
        top = max(remaining)
        w, mult = Weight(top), remaining[top]
        terms[w] = mult
        for e, k in schur_char(w).coeffs:
            v = remaining.get(e, 0) - mult * k
            if v:
                remaining[e] = v
            else:
                del remaining[e]
    return RepElement(c.rank, terms)


# ---------------------------------------------------------------------------
# Plethysm via the oracle
# ---------------------------------------------------------------------------

def _power(a: RepElement, m: int, choose) -> RepElement:
    """Sum of the weight monomials over every ``choose(monomials, m)``: e_m or h_m.

    The peeled power must be effective: a negative multiplicity raises ``DecompositionError``.
    """
    if m < 0:
        raise ValueError(f"negative power {m}")
    if m == 0:
        return RepElement.one(a.rank)
    if not a.is_effective():
        raise ValueError("plethysm of a non-effective element is undefined")
    combos = choose(char_of(a).monomials(), m)
    counts = Counter(tuple(map(sum, zip(*combo))) for combo in combos)
    result = decompose(CharPoly.from_counter(a.rank, counts))
    if not result.is_effective():
        raise DecompositionError(f"peeling produced a negative multiplicity: {result}")
    return result


def ext_power(a: RepElement, m: int) -> RepElement:
    """Exterior power: elementary symmetric function of the weight monomials."""
    return _power(a, m, itertools.combinations)


def sym_power(a: RepElement, m: int) -> RepElement:
    """Symmetric power: complete homogeneous symmetric function of the monomials."""
    return _power(a, m, itertools.combinations_with_replacement)
