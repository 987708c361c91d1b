"""Batch verification suite: every headline identity checked at desk scale.

Each check returns a CheckResult; run_all drives them with a configurable
upper bound on the ambient dimension.  All arithmetic is exact, so every
check is a strict equality with zero tolerance.  The checks that sweep d
walk each label or pair once: its fibre terms (``soc.fibre_terms``) do not
depend on d, so only Borel-Weil-Bott runs per d.  The failure reported is
still the one a d-major loop meets first: the least d, then self-Exts
before backward pairs, then the partition order.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Callable

from . import bundle_calculus as bc
from . import rep_ring as rr
from . import soc
from .bwb import BundleExpr, bwb_single, cohomology
from .partitions import Value, Weight


class CheckResult(Value):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail

    def to_json(self) -> dict:
        return {"name": self.name, "verdict": "pass" if self.passed else "fail", "detail": self.detail}


#: The largest d each capped check runs, by check name, whatever d_max asks for.
D_CAPS = {
    "counting": 12, "kummer-count": 12, "fully-faithful": 9, "semi-orthogonality": 9,
    "exceptional-collection": 8, "cotangent-simplicity": 8, "rank-identity": 12,
}


def check_counting(d_max: int) -> CheckResult:
    top = min(D_CAPS["counting"], d_max)
    for d in range(5, top + 1):
        n_ff = len(soc.enumerate_ff(d))
        n_sos = len(soc.enumerate_sos(d))
        if n_ff != comb(d - 3, 2) + 3 * (d - 4) or n_ff != (d * d - d - 12) // 2:
            return CheckResult("counting", False, f"d={d}: ff count {n_ff}")
        if n_sos != comb(d - 3, 2):
            return CheckResult("counting", False, f"d={d}: sos count {n_sos}")
    return CheckResult("counting", True, f"label counts match for d = 5..{top}")


def check_kummer(d_max: int) -> CheckResult:
    if soc.kummer_count(5) != 59049:
        return CheckResult("kummer-count", False, "d=5 count != 3^10")
    top = min(D_CAPS["kummer-count"], d_max)
    for d in range(5, top + 1):
        if soc.kummer_count(d) != comb(d - 3, 2) * 3 ** (2 * d):
            return CheckResult("kummer-count", False, f"d={d} mismatch")
    return CheckResult("kummer-count", True, f"exact big-integer counts for d = 5..{top}")


def _least_d(labels_at: Callable[[int], list[Weight]], dims: range) -> dict[Weight, int]:
    """The least d in dims at which each label is listed; the lists grow with d."""
    return {a: d for d in reversed(dims) for a in labels_at(d)}


def check_fully_faithful(d_max: int) -> CheckResult:
    total = 0
    top = min(D_CAPS["fully-faithful"], d_max)
    least = _least_d(soc.enumerate_ff, range(5, top + 1))
    fail_d, fail = top + 1, ""
    for a in soc.enumerate_ff(top):
        terms = soc.fibre_terms(soc.ext_decomposition(a, a), 4)
        for d in range(least[a], fail_d):
            total += 1
            if not soc.self_ext_report(a, d, terms, "fully_faithful").verdict:
                fail_d, fail = d, f"d={d}, alpha={a} failed"
                break
    if fail:
        return CheckResult("fully-faithful", False, fail)
    return CheckResult("fully-faithful", True, f"{total} narrow labels pass, d = 5..{top}")


def check_semiorthogonal(d_max: int) -> CheckResult:
    """The closed form against Brauer-Klimyk for every pair of the box, each bounded pair swept from it.

    ``soc.ext_decomposition(a, b)`` must equal ``_brauer_klimyk(a, b.dual())``,
    the expansion that ``oracle-equivalence`` also reads, which shares no
    code with Clebsch-Gordan or LR.  A pair is bounded at d when both labels
    are in the box and alpha_1 - beta_2 <= d-5.  A closed-form mismatch is
    reported before any sweep failure.
    """
    total = 0
    top = min(D_CAPS["semi-orthogonality"], d_max)
    least = _least_d(soc.box_partitions, range(5, top + 1))
    sos = {d: set(soc.enumerate_sos(d)) for d in range(5, top + 1)}
    seen_sos_pairs = dict.fromkeys(sos, 0)
    fail_d, fail = top + 1, ""
    # This cap is the largest of the kernel checks, so the box at top holds
    # every (alpha, beta) that any of them passes through ext_decomposition.
    labels = soc.box_partitions(top)
    for i, a in enumerate(labels):
        for j in range(i, len(labels)):
            b = labels[j]
            closed = soc.ext_decomposition(a, b)
            expected = _brauer_klimyk(a, b.dual())
            if closed.terms != expected:
                return CheckResult(
                    "semi-orthogonality", False,
                    f"Ext({b},{a}): closed form {closed} vs Brauer-Klimyk {rr.RepElement(2, expected)}",
                )
            bounded = range(max(least[a], least[b], a.entries[0] - b.entries[1] + 5), fail_d)
            if j == i or not bounded:
                continue  # a label with itself is compared only
            terms = soc.fibre_terms(closed, 4)
            for d in bounded:
                total += 1
                seen_sos_pairs[d] += a in sos[d] and b in sos[d]
                if not soc.semiorthogonal_report(a, b, d, terms).verdict:
                    fail_d, fail = d, f"d={d}, {a} before {b} failed"
                    break
    for d, n in seen_sos_pairs.items():
        if d == fail_d:
            return CheckResult("semi-orthogonality", False, fail)
        if n != comb(len(sos[d]), 2):
            return CheckResult(
                "semi-orthogonality", False, f"d={d}: sequence pairs not all covered"
            )
    return CheckResult("semi-orthogonality", True, f"{total} ordered pairs pass, d = 5..{top}")


def check_exceptional_collection(d_max: int) -> CheckResult:
    total = 0
    top = min(D_CAPS["exceptional-collection"], d_max)
    least = _least_d(soc.box_partitions, range(3, top + 1))
    fail_d, fail = top + 1, ""
    labels = soc.box_partitions(top)
    # every self-Ext first: at one d, a d-major loop meets them before any backward pair
    for a in labels:
        terms = soc.fibre_terms(soc.ext_decomposition(a, a), 0)
        for d in range(least[a], fail_d):
            if not soc.self_ext_report(a, d, terms, "exceptional").verdict:
                fail_d, fail = d, f"d={d}, alpha={a}"
                break
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            ext = soc.ext_decomposition(a, b)
            for d in range(max(least[a], least[b]), fail_d):
                coh = cohomology(BundleExpr.from_qdual(d, 2, ext))
                if not coh.is_zero():
                    fail_d, fail = d, f"d={d}: backward Ext {a} before {b}: {coh}"
                    break
                total += 1
    if fail:
        return CheckResult("exceptional-collection", False, fail)
    return CheckResult(
        "exceptional-collection", True, f"{total} backward pairs vanish, d = 3..{top}"
    )


def check_normal_bundle(d_max: int) -> CheckResult:
    del d_max  # fibre expressions are dimension-independent
    # the filtration route: wedge^q(middle) = sum_i wedge^i(sub) (x) wedge^{q-i}(N')
    zero = rr.RepElement.zero(2)
    filtration = all(
        rr.ext_power(bc.SES_MIDDLE, q)
        == sum((rr.tensor(rr.ext_power(bc.SES_SUB, i), bc.wedge_nprime(q - i)) for i in range(q + 1)), zero)
        for q in range(5)
    )
    ok = (
        filtration
        and bc.wedge_nprime(3) == rr.RepElement.schur(2, (3, 0))
        and bc.wedge_nprime(4) == rr.RepElement.schur(2, (2, 2))
        and bc.wedge2_middle()
        == rr.RepElement(
            2, {Weight((3, -1)): 2, Weight((1, 1)): 2, Weight((2, 0)): 1}
        )
        and bc.wedge2_middle() == rr.ext_power(bc.SES_MIDDLE, 2)
        and bc.wedge_nprime(3)
        == rr.tensor(bc.wedge_nprime(4), rr.dual(bc.NPRIME))
        and all(bc.wedge_nprime(q).dimension() == comb(4, q) for q in range(5))
    )
    return CheckResult("normal-bundle-wedges", ok, "wedge powers and filtration agree" if ok else "mismatch")


def check_cotangent(d_max: int) -> CheckResult:
    total = 0
    top = min(D_CAPS["cotangent-simplicity"], d_max)
    for d in range(4, top + 1):
        for k in range(2, d - 1):
            report = soc.check_cotangent_simple(k, d)
            total += 1
            if not report.verdict:
                return CheckResult("cotangent-simplicity", False, f"G({k},{d}) failed")
            degree1 = [c for c in report.conditions if not c.outcome.is_zero and c.outcome.degree == 1]
            if sum(c.outcome.dimension() for c in degree1) != d * d - 1:
                return CheckResult("cotangent-simplicity", False, f"G({k},{d}): bad Ext^1 dim")
    return CheckResult("cotangent-simplicity", True, f"{total} Grassmannians, d <= {top}")


def _brauer_klimyk(a: Weight, b: Weight) -> dict[Weight, int]:
    """S^a (x) S^b by the Brauer-Klimyk formula, from the character of S^a alone.

    Each weight e of S^a, with its multiplicity, contributes S^(b+e)
    straightened: add rho = (r-1, ..., 0); a repeated entry drops the term,
    otherwise sort decreasingly, with the sign of the sort, and subtract rho.
    """
    rank = a.rank
    rho = range(rank - 1, -1, -1)
    b_rho = [x + p for x, p in zip(b.entries, rho)]
    out: dict[tuple[int, ...], int] = {}
    for e, mult in rr.schur_char(a).coeffs:
        v = [x + y for x, y in zip(b_rho, e)]
        if len(set(v)) < rank:
            continue
        if sum(x < y for x, y in combinations(v, 2)) % 2:
            mult = -mult
        v.sort(reverse=True)
        key = tuple(x - p for x, p in zip(v, rho))
        out[key] = out.get(key, 0) + mult
    return {Weight(k): c for k, c in out.items() if c}


def check_oracle_equivalence(d_max: int) -> CheckResult:
    """The LR product against Brauer-Klimyk, then BWB against Bott's formula.

    Every ordered pair of rank-3 Schur functors with at most 6 boxes is
    multiplied by ``tensor`` (the Littlewood-Richardson rule at rank 3) and
    compared with the Brauer-Klimyk expansion of the unordered pair, computed
    once.  That route reads one factor's weights from its Gelfand-Tsetlin
    character and straightens by the dotted Weyl action, so it shares no
    code with LR tableaux.  Bott's formula on P^1..P^5 checks ``bwb_single``.
    """
    del d_max
    rank = 3
    weights = [Weight(s) for s in product(range(7), repeat=rank) if s[0] >= s[1] >= s[2] and sum(s) <= 6]
    pairs = 0
    # one expansion per unordered pair, checked against both LR orders
    for i, wa in enumerate(weights):
        for wb in weights[i:]:
            expected = _brauer_klimyk(wa, wb)
            orders = [(wa, wb)] if wa == wb else [(wa, wb), (wb, wa)]
            for wx, wy in orders:
                x, y = rr.RepElement.schur(rank, wx), rr.RepElement.schur(rank, wy)
                if rr.tensor(x, y).terms != expected:
                    return CheckResult("oracle-equivalence", False, f"LR vs character at {wx.entries} x {wy.entries}")
                pairs += 1
    # Bott's formula on projective spaces of quotients (k = 1)
    for d in range(2, 7):
        n = d - 1  # dimension of the projective space
        for m in range(-12, 13):
            outcome = bwb_single(d, 1, (0,) * (d - 1), (m,))
            dims = {} if outcome.is_zero else {outcome.degree: outcome.dimension()}
            expected = {}
            if m <= 0:
                expected[0] = comb(d - 1 - m, d - 1)
            elif m >= d:
                expected[n] = comb(m - 1, d - 1)
            expected = {p: v for p, v in expected.items() if v}
            if dims != expected:
                return CheckResult(
                    "oracle-equivalence", False, f"Bott mismatch on P^{n}, twist {m}: {dims} vs {expected}"
                )
    return CheckResult("oracle-equivalence", True, f"{pairs} LR/character pairs and Bott on P^1..P^5")


def check_pieri(d_max: int) -> CheckResult:
    del d_max
    a = rr.RepElement.schur(3, (2, 1, 0))
    sym = rr.tensor(a, rr.RepElement.schur(3, (2, 0, 0)))
    ext = rr.tensor(a, rr.RepElement.schur(3, (1, 1, 0)))
    exp_sym = rr.RepElement(
        3,
        {Weight((4, 1, 0)): 1, Weight((3, 2, 0)): 1, Weight((3, 1, 1)): 1, Weight((2, 2, 1)): 1},
    )
    exp_ext = rr.RepElement(
        3, {Weight((3, 2, 0)): 1, Weight((3, 1, 1)): 1, Weight((2, 2, 1)): 1}
    )
    ok = sym == exp_sym and ext == exp_ext
    return CheckResult("pieri", ok, "golden decompositions reproduced" if ok else "mismatch")


def check_rank_identity(d_max: int) -> CheckResult:
    """The closed form against a count: d - l linear forms plus the quadratic monomials in l."""
    top = min(D_CAPS["rank-identity"], d_max)
    for d in range(1, top + 1):
        for l in range(1, d + 1):
            quadratic = len(list(combinations_with_replacement(range(l), 2)))
            if bc.planar_rank_identity(d, l) != (d - l) + quadratic:
                return CheckResult("rank-identity", False, f"(d={d}, l={l})")
    return CheckResult("rank-identity", True, f"all 1 <= l <= d <= {top}")


ALL_CHECKS: list[Callable[[int], CheckResult]] = [
    check_counting,
    check_kummer,
    check_fully_faithful,
    check_semiorthogonal,
    check_exceptional_collection,
    check_normal_bundle,
    check_cotangent,
    check_oracle_equivalence,
    check_pieri,
    check_rank_identity,
]


def run_all(d_max: int = 12) -> list[CheckResult]:
    if d_max < 5:
        raise ValueError(f"d_max must be at least 5, got {d_max}")
    return [check(d_max) for check in ALL_CHECKS]
