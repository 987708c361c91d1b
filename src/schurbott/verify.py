"""Batch verification suite: every headline identity checked at desk scale.

Each check returns a CheckResult; run_all drives them with a configurable
upper bound on the ambient dimension.  All arithmetic is exact, so every
check is a strict equality with zero tolerance.  The checks that sweep d
walk d upward and stop at their first failure, so the failure reported is
the one at the least d, then self-Exts before backward pairs, then the
partition order.  They read one threshold per twist class: the Ext, so its
fibre terms (``soc.fibre_terms``), depends only on the smaller width, the
larger width and alpha_2 - beta_1, and ``soc.threshold``, which holds the
fibre verdict rule, reads from them the least d from which they pass.
Cotangent-simplicity lives on G(k,d) rather than the fibre, so it compares
``bwb.cohomology`` with its closed form directly.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import add, ge
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


def _top(name: str, first: int, d_max: int) -> int:
    """The largest d the check ``name`` runs from ``first``; an empty d-range is a usage error."""
    top = min(D_CAPS[name], d_max)
    if top < first:
        raise ValueError(f"{name} needs d_max at least {first}, got {d_max}")
    return top


def check_counting(d_max: int) -> CheckResult:
    top = _top("counting", 5, d_max)
    for d in range(5, top + 1):
        n_ff = len(soc.enumerate_ff(d))
        n_sos = len(soc.enumerate_sos(d))
        if n_ff != comb(d - 3, 2) + 3 * (d - 4):
            return CheckResult("counting", False, f"d={d}: ff count {n_ff}")
        if n_sos != comb(d - 3, 2):
            return CheckResult("counting", False, f"d={d}: sos count {n_sos}")
    return CheckResult("counting", True, f"label counts match for d = 5..{top}")


def check_kummer(d_max: int) -> CheckResult:
    top = _top("kummer-count", 5, d_max)
    for d in range(5, top + 1):
        if soc.kummer_count(d) != comb(d - 3, 2) * 3 ** (2 * d):
            return CheckResult("kummer-count", False, f"d={d} mismatch")
    return CheckResult("kummer-count", True, f"exact big-integer counts for d = 5..{top}")


def _threshold(seen: dict, a: Weight, b: Weight, top_q: int) -> float:
    """``soc.threshold`` of Ext(b, a)'s fibre terms, computed once per twist class in ``seen``.

    Only a label with itself has widths m = n = -(a_2 - b_1), so the class fixes Hom too.
    """
    (a1, a2), (b1, b2) = a.entries, b.entries
    key = min(a1 - a2, b1 - b2), max(a1 - a2, b1 - b2), a2 - b1
    if key not in seen:
        seen[key] = soc.threshold(soc.fibre_terms(soc.ext_decomposition(a, b), top_q), a == b)
    return seen[key]


def check_fully_faithful(d_max: int) -> CheckResult:
    total, seen = 0, {}
    top = _top("fully-faithful", 5, d_max)
    for d in range(5, top + 1):
        for a in soc.enumerate_ff(d):
            if d < _threshold(seen, a, a, bc.NPRIME_RANK):
                return CheckResult("fully-faithful", False, f"d={d}, alpha={a} failed")
            total += 1
    return CheckResult("fully-faithful", True, f"{total} narrow labels pass, d = 5..{top}")


def check_semiorthogonal(d_max: int) -> CheckResult:
    """The closed form against Brauer-Klimyk for every pair of the box, then a sweep of the bounded pairs.

    ``soc.ext_decomposition(a, b)`` must equal ``_brauer_klimyk(a, b.dual())``,
    the expansion that ``oracle-equivalence`` also reads, which shares no
    code with Clebsch-Gordan or LR.  A pair is bounded at d when both labels
    are in the box and alpha_1 - beta_2 <= d-5.  The sweep then walks d
    upward and stops at the first bounded pair below its threshold, computed
    once per twist class, or at the first d where a pair of
    ``soc.enumerate_sos(d)`` is not bounded.
    """
    total, seen = 0, {}
    top = _top("semi-orthogonality", 5, d_max)
    # This cap is the largest of the kernel checks, so the box at top holds
    # every (alpha, beta) whose threshold any of them reads.
    labels = soc.box_partitions(top)
    duals = {b: b.dual() for b in labels}
    for a, b in combinations_with_replacement(labels, 2):
        closed = soc.ext_decomposition(a, b)
        expected = _brauer_klimyk(a, duals[b])
        if closed.terms != expected:
            return CheckResult(
                "semi-orthogonality", False,
                f"Ext({b},{a}): closed form {closed} vs Brauer-Klimyk {rr.RepElement(2, expected)}",
            )
    for d in range(5, top + 1):
        swept = [(a, b) for a, b in combinations(soc.box_partitions(d), 2) if a.entries[0] - b.entries[1] <= d - 5]
        for a, b in swept:
            if d < _threshold(seen, a, b, bc.NPRIME_RANK):
                return CheckResult("semi-orthogonality", False, f"d={d}, {a} before {b} failed")
        if not set(combinations(soc.enumerate_sos(d), 2)) <= set(swept):
            return CheckResult("semi-orthogonality", False, f"d={d}: sequence pairs not all covered")
        total += len(swept)
    return CheckResult("semi-orthogonality", True, f"{total} ordered pairs pass, d = 5..{top}")


def check_exceptional_collection(d_max: int) -> CheckResult:
    total, seen = 0, {}
    top = _top("exceptional-collection", 3, d_max)
    for d in range(3, top + 1):
        box = soc.box_partitions(d)
        for a in box:
            if d < _threshold(seen, a, a, 0):
                return CheckResult("exceptional-collection", False, f"d={d}, alpha={a}")
        for a, b in combinations(box, 2):
            if d < _threshold(seen, a, b, 0):
                # Borel-Weil-Bott runs only to print what survives
                coh = cohomology(BundleExpr.from_qdual(d, 2, soc.ext_decomposition(a, b)))
                return CheckResult("exceptional-collection", False, f"d={d}: backward Ext {a} before {b}: {coh}")
            total += 1
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
    """H^*(End Omega) against its closed form on every G(k,d), 2 <= k <= d-2.

    Omega = K (x) Q^v is the cotangent bundle.  ``cohomology`` of
    Omega (x) Omega^v must be k in degree 0 and the traceless adjoint
    S(1,0,...,0,-1) in degree 1, and nothing else: Omega is simple.
    """
    total = 0
    top = _top("cotangent-simplicity", 4, d_max)
    for d in range(4, top + 1):
        expected = {0: rr.RepElement.one(d), 1: rr.RepElement.schur(d, (1,) + (0,) * (d - 2) + (-1,))}
        for k in range(2, d - 1):
            omega = BundleExpr(d, k, {(Weight((1,) + (0,) * (d - k - 1)), Weight((1,) + (0,) * (k - 1))): 1})
            total += 1
            if cohomology(omega.tensor(omega.dual())).groups != expected:
                return CheckResult("cotangent-simplicity", False, f"G({k},{d}) failed")
    return CheckResult("cotangent-simplicity", True, f"{total} Grassmannians, d <= {top}")


def _brauer_klimyk(a: Weight, b: Weight) -> dict[Weight, int]:
    """S^a (x) S^b by the Brauer-Klimyk formula, from the character of S^a alone.

    Each weight e of S^a, with its multiplicity, contributes S^(b+e),
    straightened unless b+e is already dominant: add rho = (r-1, ..., 0); a
    repeated entry drops the term, otherwise sort decreasingly, with the sign
    of the sort, and subtract rho.
    """
    rank = a.rank
    rho = range(rank - 1, -1, -1)
    out: dict[tuple[int, ...], int] = {}
    for e, mult in rr.schur_char(a):
        key = tuple(map(add, b.entries, e))
        if not all(map(ge, key, key[1:])):
            v = [x + p for x, p in zip(key, rho)]
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
    schur = {w: rr.RepElement.schur(rank, w) for w in weights}
    pairs = 0
    # one expansion per unordered pair, checked against both LR orders
    for i, wa in enumerate(weights):
        for wb in weights[i:]:
            expected = _brauer_klimyk(wa, wb)
            orders = [(wa, wb)] if wa == wb else [(wa, wb), (wb, wa)]
            for wx, wy in orders:
                if rr.tensor(schur[wx], schur[wy]).terms != expected:
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
    top = _top("rank-identity", 1, d_max)
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


def run_all(d_max: int) -> list[CheckResult]:
    if d_max < 5:
        raise ValueError(f"d_max must be at least 5, got {d_max}")
    return [check(d_max) for check in ALL_CHECKS]
