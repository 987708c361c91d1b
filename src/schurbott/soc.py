"""The fibre layer on G(2,d): Ext decompositions, exceptionality,
fully-faithfulness, semi-orthogonality, enumeration of the admissible labels
and the Kummer count.

Every check here is about the kernels S^alpha Q^v on the fibre Grassmannian
G(2,d), reduced to sheaf cohomology of twisted Schur bundles, computed term
by term through the Borel-Weil-Bott module.  The fibre terms, the
``RepElement`` wedge^q N' (x) Ext for each q, do not depend on d; only the
Borel-Weil-Bott verdict on each summand does, so a check builds the terms
once (``fibre_terms``) and a report traces them on one G(2,d).  The checkers
record a full witness trace: one (q, summand ``Weight``, outcome) record per
unit of multiplicity of each bundle summand that had to vanish (or
survive).  The trace is the only result: a report stores its records and
reads its verdict and Hom dimension from them, and a record reads whether
it had to vanish from its own (q, weight).  The verdict rule is stated here
once (``VerificationReport.verdict``), and ``threshold`` applies it to
every d at once.
"""

from __future__ import annotations

from math import inf

from .bundle_calculus import NPRIME_RANK, wedge_nprime
from .bwb import BWBOutcome, bwb_single, vanishing_threshold
from .partitions import Value, Weight, precedes, trivial
from .rep_ring import RepElement, tensor


class ConditionRecord(Value):
    __slots__ = ("q", "weight", "outcome")

    def __init__(self, q: int, weight: Weight, outcome: BWBOutcome):
        self.q = q
        self.weight = weight
        self.outcome = outcome

    @property
    def required_zero(self) -> bool:
        """Every summand but the identity has to vanish."""
        return not _is_identity(self.q, self.weight)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "weight": list(self.weight.entries),
            "required_zero": self.required_zero,
            "outcome": self.outcome.to_json(),
        }


class VerificationReport(Value):
    """A kernel check's witness trace on G(2,d); beta is None for a self-Ext.
    The verdict and Hom dimension are read from the records, never stored."""

    __slots__ = ("d", "alpha", "beta", "conditions", "kind")

    def __init__(self, d: int, alpha: Weight, beta: Weight | None, conditions: list[ConditionRecord], kind: str):
        self.d = d
        self.alpha = alpha
        self.beta = beta
        self.conditions = conditions
        self.kind = kind

    @property
    def hom_dimension(self) -> int:
        """The dimension of Hom: the degree-0 outcomes of the q = 0 records."""
        return sum(c.outcome.dimension() for c in self.conditions if c.q == 0 and c.outcome.degree == 0)

    @property
    def verdict(self) -> bool:
        """Pass iff Hom is 1 for a self-Ext, 0 for a pair (Schur's lemma), and no required record survives."""
        return self.hom_dimension == (self.beta is None) and not self.failures()

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

    This is ``tensor(S^alpha, S^(beta.dual()))``, the Clebsch-Gordan sum over
    g = 0..m of S(m + n + G - g, G + g), where m <= n are the two labels'
    widths and G = alpha_2 - beta_1.  So it depends only on the twist class
    (m, n, G), by which ``verify`` keys its thresholds, and
    ``verify.check_semiorthogonal`` (semi-orthogonality) cross-checks it
    against the Brauer-Klimyk expansion on every pair of the kernel box.
    """
    a = _as_label_weight(alpha)
    b = _as_label_weight(beta)
    return tensor(RepElement.schur(2, a), RepElement.schur(2, b.dual()))


def fibre_terms(ext: RepElement, top_q: int) -> list[RepElement]:
    """wedge^q N' (x) ext for q = 0..top_q, indexed by q."""
    return [ext] + [tensor(wedge_nprime(q), ext) for q in range(1, top_q + 1)]


def _is_identity(q: int, w: Weight) -> bool:
    """The trivial q = 0 summand, which carries the identity morphism and never vanishes."""
    return q == 0 and w.is_zero()


def _trace(d: int, terms: list[RepElement]) -> list[ConditionRecord]:
    """Witness trace of ``fibre_terms`` on G(2,d).

    One Borel-Weil-Bott evaluation per summand, recorded once per unit of
    its multiplicity, by q and then in the Schur order of ``sorted_terms``.
    The identity summand is the one summand not required to vanish.
    Verdicts are read from this trace: every multiplicity is positive, so a
    cohomology degree vanishes exactly when none of its records survives.
    """
    g0 = trivial(d - 2)
    conditions: list[ConditionRecord] = []
    for q, element in enumerate(terms):
        for w, c in element.sorted_terms():
            outcome = bwb_single(d, 2, g0, w)
            for _ in range(c):
                conditions.append(ConditionRecord(q, w, outcome))
    return conditions


def threshold(terms: list[RepElement], hom: int) -> float:
    """The least d from which ``fibre_terms`` pass on G(2,d), or inf if they never do.

    A report's rule for every d at once: the identity summand occurs exactly
    ``hom`` times, and every other one vanishes from its ``vanishing_threshold`` on.
    """
    identities, ts = 0, []
    for q, element in enumerate(terms):
        for w, c in element.terms.items():
            if _is_identity(q, w):
                identities += c
            else:
                ts.append(vanishing_threshold(2, w))
    return inf if identities != hom else max(ts, default=0)


def check_exceptional(alpha, d: int) -> VerificationReport:
    """Self-Exts of S^alpha Q^v on G(2,d): pass iff End = k in degree 0 only."""
    if d < 3:
        raise ValueError("exceptional check requires d >= 3")
    a = _box_label(alpha, d)
    return VerificationReport(d, a, None, _trace(d, fibre_terms(ext_decomposition(a, a), 0)), "exceptional")


def check_fully_faithful(alpha, d: int) -> VerificationReport:
    """Fibrewise fully-faithfulness conditions for the kernel S^alpha Q^v.

    Requires End = k in degree 0 (q = 0) and total vanishing of the
    cohomology of wedge^q N' (x) End for q = 1..4.  Guaranteed to pass
    when width(alpha) <= d-5, and the converse holds on the whole box at
    d = 16: there every label's threshold is width(alpha) + 5, so the check
    fails exactly when width(alpha) > d-5 (pinned by
    ``test_thresholds_meet_the_papers_bounds_at_every_d`` in
    ``tests/test_verify.py``).  The trace records what fails.
    """
    if d < 5:
        raise ValueError("fully-faithfulness check requires d >= 5")
    a = _box_label(alpha, d)
    return VerificationReport(d, a, None, _trace(d, fibre_terms(ext_decomposition(a, a), NPRIME_RANK)), "fully_faithful")


def check_semiorthogonal(alpha, beta, d: int) -> VerificationReport:
    """No morphisms from the beta-block to the alpha-block, fibrewise.

    Requires alpha strictly before beta in the partition order; passes iff
    the cohomology of wedge^q N' (x) S^alpha Q^v (x) (S^beta Q^v)^v
    vanishes entirely for q = 0..4: Hom is 0 and no other record survives.
    """
    if d < 5:
        raise ValueError("semi-orthogonality check requires d >= 5")
    a = _box_label(alpha, d)
    b = _box_label(beta, d)
    if not precedes(a, b):
        raise ValueError(f"{a} does not precede {b} in the partition order")
    return VerificationReport(d, a, b, _trace(d, fibre_terms(ext_decomposition(a, b), NPRIME_RANK)), "semiorthogonal")


def box_partitions(d: int) -> list[Weight]:
    """All partitions inscribed in the 2 x (d-2) box, in the partition order.

    They are built in that order: by size s = a1 + a2 from 2(d-2) down, and
    within one size by a1 from min(s, d-2) down to the least a1 >= a2.
    """
    return [Weight((a1, s - a1)) for s in range(2 * d - 4, -1, -1) for a1 in range(min(s, d - 2), (s - 1) // 2, -1)]


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
