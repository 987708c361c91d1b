"""Borel-Weil-Bott for GL_d on the Grassmannian G(k,d) of k-dimensional quotients.

The d-tuple fed to the dotted Weyl group action is (K-weight || Q-dual-weight),
so a line-bundle-type weight on G(2,d) reads (0,...,0,a,b).  Add the Weyl
vector (d,...,1); a repeated entry kills all cohomology, otherwise sorting
with the unique permutation sigma puts the cohomology of the bundle in the
single degree l(sigma) where it equals the irreducible of highest weight
sigma(alpha+rho)-rho, viewed as a Schur functor of the dual ambient space.

Within each part the dotted values strictly decrease: gamma_i + d - i for
the K-part and delta_i + k - i for the Q-part (0-based i).  So the only
repeats are values shared by the two parts, and reading the d-tuple left to
right meets the largest of them first; with no repeat, the degree is the
number of (K, Q) pairs whose K value is the smaller.  ``bwb_single`` reads
both off the two parts without building the d-tuple.  The trivial-K
vanishing rule is its special case: a trivial K-part's values are exactly
k+1..d, so the bundle's cohomology vanishes iff some delta_i + k - i lies in
that interval, and ``bwb_single`` checks that first, from the Q-part alone.
Only d bounds the interval, so the d at which such a bundle vanishes form an
up-set {d >= T}: T is the least value delta_i + k - i above k, that is over
the i with delta_i > i, and T is infinite when no such i exists
(``vanishing_threshold``).  ``bwb_single``'s witness stays the first such
value in the interval, which need not be T.
"""

from __future__ import annotations

from math import inf

from .partitions import Value, Weight, trivial
from .rep_ring import RepElement, tensor as _rep_tensor, weyl_dim


class BWBOutcome(Value):
    """Cohomology of a single irreducible homogeneous bundle.

    Either zero (with the repeated dotted-weight value as a witness), or
    concentrated in one degree with an irreducible GL_d weight for the
    dual ambient space.  A plain mutable value: it is never a key.
    """

    __slots__ = ("degree", "weight", "repeated_value")

    def __init__(self, degree: int | None = None, weight: Weight | None = None, repeated_value: int | None = None):
        self.degree = degree
        self.weight = weight
        self.repeated_value = repeated_value

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    def dimension(self) -> int:
        if self.is_zero:
            return 0
        return weyl_dim(self.weight)

    def to_json(self) -> dict:
        if self.is_zero:
            return {"kind": "zero", "repeated_value": self.repeated_value}
        return {
            "kind": "nonzero",
            "degree": self.degree,
            "beta": list(self.weight.entries),
            "dim": self.dimension(),
        }

    def __str__(self) -> str:
        if self.is_zero:
            return f"Zero (repeat at value {self.repeated_value})"
        return f"degree {self.degree}: S{self.weight} (dim {self.dimension()})"


def bwb_single(d: int, k: int, gamma, delta) -> BWBOutcome:
    """Cohomology of Sigma^gamma K tensor Sigma^delta Q-dual on G(k,d).

    gamma has d-k entries and delta has k entries, each at least one.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got k={k}, d={d}")
    g = gamma if isinstance(gamma, Weight) else Weight(tuple(gamma))
    q = delta if isinstance(delta, Weight) else Weight(tuple(delta))
    if g.rank != d - k or q.rank != k:
        raise ValueError(f"G({k},{d}) needs {d - k} K- and {k} Q-dual entries, got {g} and {q}")
    if g.is_zero():  # the trivial-K vanishing rule of the module docstring
        for i, e in enumerate(q.entries):
            if k < e + k - i <= d:
                return BWBOutcome(repeated_value=e + k - i)
    # the repeat rule of the module docstring
    k_values = [e + d - i for i, e in enumerate(g.entries)]
    q_values = [e + k - i for i, e in enumerate(q.entries)]
    found = set(k_values)
    for v in q_values:
        if v in found:
            return BWBOutcome(repeated_value=v)
    degree = sum(1 for a in k_values for b in q_values if a < b)
    rho = range(d, 0, -1)
    beta = tuple(v - r for v, r in zip(sorted(k_values + q_values, reverse=True), rho))
    return BWBOutcome(degree=degree, weight=Weight(beta))


def vanishing_threshold(k: int, delta: Weight) -> float:
    """The least d at which S^delta Q^v with trivial K vanishes on G(k,d), or inf if it never does.

    It vanishes on G(k,d) exactly when d is at least this threshold: the
    trivial-K interval rule of the module docstring, read for every d at once.
    """
    return min((e + k - i for i, e in enumerate(delta.entries) if e > i), default=inf)


class BundleExpr(Value):
    """Integer combination of bundles Sigma^gamma K tensor Sigma^delta Q-dual on G(k,d)."""

    __slots__ = ("d", "k", "terms")

    def __init__(self, d: int, k: int, terms: dict[tuple[Weight, Weight], int] | None = None):
        if not 1 <= k <= d - 1:
            raise ValueError(f"need 1 <= k <= d-1, got k={k}, d={d}")
        if terms is None:
            terms = {}
        for g, q in terms:
            if g.rank != d - k or q.rank != k:
                raise ValueError(f"term ({g},{q}) does not match G({k},{d})")
        self.d = d
        self.k = k
        self.terms = {key: c for key, c in terms.items() if c != 0}

    @classmethod
    def from_qdual(cls, d: int, k: int, element: RepElement) -> "BundleExpr":
        """Lift a Schur expression in Q-dual alone (trivial K-part)."""
        if element.rank != k:
            raise ValueError("element rank must equal the quotient rank k")
        g0 = trivial(d - k)
        return cls(d, k, {(g0, w): c for w, c in element.terms.items()})

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def tensor(self, other: "BundleExpr") -> "BundleExpr":
        if (self.d, self.k) != (other.d, other.k):
            raise ValueError("bundles live on different Grassmannians")
        out: dict[tuple[Weight, Weight], int] = {}
        for (g1, q1), c1 in self.terms.items():
            for (g2, q2), c2 in other.terms.items():
                gprod = _rep_tensor(RepElement.schur(g1.rank, g1), RepElement.schur(g2.rank, g2))
                qprod = _rep_tensor(RepElement.schur(q1.rank, q1), RepElement.schur(q2.rank, q2))
                for g, cg in gprod.terms.items():
                    for q, cq in qprod.terms.items():
                        key = (g, q)
                        out[key] = out.get(key, 0) + c1 * c2 * cg * cq
        return BundleExpr(self.d, self.k, out)

    def dual(self) -> "BundleExpr":
        return BundleExpr(
            self.d, self.k, {(g.dual(), q.dual()): c for (g, q), c in self.terms.items()}
        )


class GradedCohomology(Value):
    """Finitely supported map degree -> effective RepElement of GL_d weights."""

    __slots__ = ("d", "groups")

    def __init__(self, d: int, groups: dict[int, RepElement] | None = None):
        self.d = d
        self.groups = {
            p: g for p, g in (groups or {}).items() if not g.is_zero()
        }

    def dimensions(self) -> dict[int, int]:
        return {p: g.dimension() for p, g in sorted(self.groups.items())}

    def is_zero(self) -> bool:
        return not self.groups

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return "; ".join(f"H^{p} = {g}" for p, g in sorted(self.groups.items()))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "groups": {str(p): g.to_json() for p, g in sorted(self.groups.items())},
            "dims": {str(p): v for p, v in self.dimensions().items()},
        }


def cohomology(expr: BundleExpr) -> GradedCohomology:
    """Termwise Borel-Weil-Bott, grouped by cohomological degree."""
    if not expr.is_effective():
        raise ValueError("cohomology of a virtual bundle expression is undefined")
    groups: dict[int, dict[Weight, int]] = {}
    for (g, q), c in expr.terms.items():
        outcome = bwb_single(expr.d, expr.k, g, q)
        if not outcome.is_zero:
            group = groups.setdefault(outcome.degree, {})
            group[outcome.weight] = group.get(outcome.weight, 0) + c
    return GradedCohomology(expr.d, {p: RepElement(expr.d, ws) for p, ws in groups.items()})
