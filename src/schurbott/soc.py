"""Verification layer: Ext decompositions, exceptionality, fully-faithfulness,
semi-orthogonality, enumeration of the admissible labels and the Kummer count.

All checks reduce questions about the kernels S^alpha Q^v on the fibre
Grassmannian G(2,d) to sheaf cohomology of twisted Schur bundles, computed
term by term through the Borel-Weil-Bott module.  The summands of
wedge^q N' (x) Ext, the fibre terms, do not depend on d; only the
Borel-Weil-Bott verdict on each does, so a check builds the terms once
(``fibre_terms``) and a report traces them on one G(2,d).  The checkers
record a full witness trace: one (q, summand weight, outcome) triple per
bundle summand that had to vanish (or survive).  The trace is the only
result: each verdict and Hom dimension is read from its records.
"""

from __future__ import annotations

from .bundle_calculus import wedge_nprime
from .bwb import BWBOutcome, BundleExpr, bwb_single
from .partitions import Value, Weight, sort_key, precedes, trivial
from .rep_ring import RepElement, dual, tensor


class ConditionRecord(Value):
    __slots__ = ("q", "weight", "outcome", "required_zero")

    def __init__(self, q: int, weight: tuple[int, ...], outcome: BWBOutcome, required_zero: bool = True):
        self.q = q
        self.weight = weight
        self.outcome = outcome
        self.required_zero = required_zero

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "weight": list(self.weight),
            "required_zero": self.required_zero,
            "outcome": self.outcome.to_json(),
        }


class VerificationReport(Value):
    """Pass/fail verdict with the full cohomology witness trace."""

    __slots__ = ("verdict", "d", "alpha", "beta", "conditions", "hom_dimension", "kind")

    def __init__(self, verdict: bool, d: int, alpha: Weight, beta: Weight | None = None,
                 conditions: list[ConditionRecord] | None = None, hom_dimension: int = 0, kind: str = ""):
        self.verdict = verdict
        self.d = d
        self.alpha = alpha
        self.beta = beta
        self.conditions = [] if conditions is None else conditions
        self.hom_dimension = hom_dimension
        self.kind = kind

    def to_json(self) -> dict:
        data = {
            "verdict": "pass" if self.verdict else "fail",
            "kind": self.kind,
            "d": self.d,
            "alpha": list(self.alpha.entries),
            "hom_dimension": self.hom_dimension,
            "conditions": [c.to_json() for c in self.conditions],
        }
        if self.beta is not None:
            data["beta"] = list(self.beta.entries)
        return data

    def failures(self) -> list[ConditionRecord]:
        return [c for c in self.conditions if c.required_zero and not c.outcome.is_zero]


def _as_label_weight(alpha) -> Weight:
    w = alpha if isinstance(alpha, Weight) else Weight(tuple(alpha))
    if w.rank != 2 or not w.is_partition():
        raise ValueError(f"expected a rank-2 partition, got {w}")
    return w


def _box_label(alpha, d: int) -> Weight:
    """A kernel label: a rank-2 partition inscribed in the 2 x (d-2) box."""
    w = _as_label_weight(alpha)
    if w.entries[0] > d - 2:
        raise ValueError(f"label {w} not inscribed in the 2x{d - 2} box")
    return w


def ext_decomposition(alpha, beta) -> RepElement:
    """Schur expansion of S^alpha Q^v (x) (S^beta Q^v)^v on the rank-2 fibre.

    This is ``tensor(S^alpha, dual(S^beta))``, the Clebsch-Gordan sum over
    g = 0..min(width(alpha), width(beta)) of
    S(alpha_1 - beta_2 - g, alpha_2 - beta_1 + g).
    ``verify.check_semiorthogonal`` (semi-orthogonality) cross-checks it
    against the Brauer-Klimyk expansion over the kernel box.
    """
    a = _as_label_weight(alpha)
    b = _as_label_weight(beta)
    return tensor(RepElement.schur(2, a), dual(RepElement.schur(2, b)))


def fibre_terms(ext: RepElement, top_q: int) -> list[tuple[int, Weight, int]]:
    """(q, summand, multiplicity) of wedge^q N' (x) ext, q = 0..top_q, each q in the Schur order."""
    return [
        (q, w, c)
        for q in range(top_q + 1)
        for w, c in (ext if q == 0 else tensor(wedge_nprime(q), ext)).sorted_terms()
    ]


def _trace(d: int, terms: list[tuple[int, Weight, int]]) -> list[ConditionRecord]:
    """Witness trace of ``fibre_terms`` on G(2,d).

    One Borel-Weil-Bott evaluation per summand, recorded once per unit of
    its multiplicity, in the order of the terms.  The trivial q = 0 summand
    carries the identity morphism, so it is the one summand not required to
    vanish.  Verdicts are read from this trace: every multiplicity is
    positive, so a cohomology degree vanishes exactly when none of its
    records survives.
    """
    g0 = trivial(d - 2)
    conditions: list[ConditionRecord] = []
    for q, w, c in terms:
        outcome = bwb_single(d, 2, g0, w)
        required_zero = q != 0 or not w.is_zero()
        for _ in range(c):
            conditions.append(ConditionRecord(q, w.entries, outcome, required_zero))
    return conditions


def _hom_dimension(conditions: list[ConditionRecord]) -> int:
    """Dimension of the degree-0 cohomology at q = 0, summed over the trace."""
    return sum(c.outcome.dimension() for c in conditions if c.q == 0 and c.outcome.degree == 0)


def self_ext_report(a: Weight, d: int, terms: list[tuple[int, Weight, int]], kind: str) -> VerificationReport:
    """From End(S^a Q^v)'s terms: pass iff Hom is one-dimensional and every other summand vanishes."""
    conditions = _trace(d, terms)
    hom = _hom_dimension(conditions)
    ok = hom == 1 and all(c.outcome.is_zero for c in conditions if c.required_zero)
    return VerificationReport(ok, d, a, conditions=conditions, hom_dimension=hom, kind=kind)


def semiorthogonal_report(a: Weight, b: Weight, d: int, terms: list[tuple[int, Weight, int]]) -> VerificationReport:
    """From the terms of S^a Q^v (x) (S^b Q^v)^v: pass iff every record of the trace is zero."""
    conditions = _trace(d, terms)
    ok = all(c.outcome.is_zero for c in conditions)
    return VerificationReport(ok, d, a, beta=b, conditions=conditions, hom_dimension=0, kind="semiorthogonal")


def check_exceptional(alpha, d: int) -> VerificationReport:
    """Self-Exts of S^alpha Q^v on G(2,d): pass iff End = k in degree 0 only."""
    if d < 3:
        raise ValueError("exceptional check requires d >= 3")
    a = _box_label(alpha, d)
    return self_ext_report(a, d, fibre_terms(ext_decomposition(a, a), 0), "exceptional")


def check_fully_faithful(alpha, d: int) -> VerificationReport:
    """Fibrewise fully-faithfulness conditions for the kernel S^alpha Q^v.

    Requires End = k in degree 0 (q = 0) and total vanishing of the
    cohomology of wedge^q N' (x) End for q = 1..4.  Guaranteed to pass
    when width(alpha) <= d-5; for wider labels the trace records whatever
    fails, with no claim of a converse.
    """
    if d < 5:
        raise ValueError("fully-faithfulness check requires d >= 5")
    a = _box_label(alpha, d)
    return self_ext_report(a, d, fibre_terms(ext_decomposition(a, a), 4), "fully_faithful")


def check_semiorthogonal(alpha, beta, d: int) -> VerificationReport:
    """No morphisms from the beta-block to the alpha-block, fibrewise.

    Requires alpha strictly before beta in the partition order; passes iff
    the cohomology of wedge^q N' (x) S^alpha Q^v (x) (S^beta Q^v)^v
    vanishes entirely for q = 0..4, i.e. iff every record of the trace is zero.
    """
    if d < 5:
        raise ValueError("semi-orthogonality check requires d >= 5")
    a = _box_label(alpha, d)
    b = _box_label(beta, d)
    if not precedes(a, b):
        raise ValueError(f"{a} does not precede {b} in the partition order")
    return semiorthogonal_report(a, b, d, fibre_terms(ext_decomposition(a, b), 4))


def box_partitions(d: int) -> list[Weight]:
    """All partitions inscribed in the 2 x (d-2) box, in the partition order."""
    return sorted((Weight((a1, a2)) for a1 in range(d - 1) for a2 in range(a1 + 1)), key=sort_key)


def enumerate_ff(d: int) -> list[Weight]:
    """All labels in the 2 x (d-2) box with alpha_1 - alpha_2 <= d-5, in the partition order."""
    if d < 5:
        raise ValueError("enumeration requires d >= 5")
    return [a for a in box_partitions(d) if a.entries[0] - a.entries[1] <= d - 5]


def enumerate_sos(d: int) -> list[Weight]:
    """The fully-faithful labels with alpha_2 >= 3: the semi-orthogonal sequence.

    Every ordered pair of them is a bounded pair (alpha_1 - beta_2 <= d-5),
    since alpha_1 <= d-2 in the box and beta_2 >= 3.
    """
    return [a for a in enumerate_ff(d) if a.entries[1] >= 3]


def kummer_count(d: int) -> int:
    """Length of the induced exceptional sequence on the third Kummer fibre."""
    return len(enumerate_sos(d)) * 3 ** (2 * d)


def check_cotangent_simple(k: int, d: int) -> VerificationReport:
    """Self-Exts of the cotangent bundle K (x) Q^v of G(k,d).

    For 2 <= k <= d-2 the answer is exactly k in degree 0 and the
    traceless adjoint weight (1,0,...,0,-1) in degree 1; in every case the
    degree-0 part must be one-dimensional.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got k={k}, d={d}")
    gamma = Weight((1,) + (0,) * (d - k - 1))
    delta = Weight((1,) + (0,) * (k - 1))
    omega = BundleExpr(d, k, {(gamma, delta): 1})
    ends = omega.tensor(omega.dual())
    terms = sorted(ends.terms.items(), key=lambda t: (t[0][0].entries, t[0][1].entries))
    adjoint_pair = (1,) + (0,) * (d - k - 2) + (-1,) if d - k >= 2 else None
    adjoint_qpair = (1,) + (0,) * (k - 2) + (-1,) if k >= 2 else None
    conditions: list[ConditionRecord] = []
    for (g, q), c in terms:
        outcome = bwb_single(d, k, g, q)
        concatenated = g.entries + q.entries
        expected_survivor = all(e == 0 for e in concatenated) or (
            g.entries == adjoint_pair and q.entries == adjoint_qpair
        )
        for _ in range(c):
            conditions.append(ConditionRecord(0, concatenated, outcome, not expected_survivor))
    hom_dim = _hom_dimension(conditions)
    verdict = hom_dim == 1
    if 2 <= k <= d - 2:
        survivors = sorted(
            (c.outcome.degree, c.outcome.weight.entries) for c in conditions if not c.outcome.is_zero
        )
        verdict = survivors == [(0, (0,) * d), (1, (1,) + (0,) * (d - 2) + (-1,))]
    return VerificationReport(
        verdict,
        d,
        delta,
        conditions=conditions,
        hom_dimension=hom_dim,
        kind="cotangent_simple",
    )
