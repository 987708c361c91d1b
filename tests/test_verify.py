import hashlib
import json
from itertools import combinations, combinations_with_replacement, product

import pytest

from schurbott import bundle_calculus as bc
from schurbott import rep_ring as rr
from schurbott import bwb, soc, verify
from schurbott.bwb import BWBOutcome, BundleExpr, cohomology
from schurbott.partitions import Weight, trivial
from schurbott.rep_ring import RepElement


def test_exceptional_collection_fails_on_a_surviving_backward_ext(monkeypatch):
    assert verify.check_exceptional_collection(4).passed
    ext = soc.ext_decomposition

    def with_trivial_summand(a, b):
        # self-Exts stay exact, so only the backward-Ext route can fail
        return ext(a, b) + (RepElement.one(2) if a != b else RepElement.zero(2))

    monkeypatch.setattr(soc, "ext_decomposition", with_trivial_summand)
    result = verify.check_exceptional_collection(4)
    assert not result.passed
    assert result.detail == "d=3: backward Ext (1,1) before (1,0): H^0 = S(0,0,0)"


def test_normal_bundle_fails_on_a_wrong_wedge_with_the_right_rank(monkeypatch):
    assert verify.check_normal_bundle(12).passed
    wedge = bc.wedge_nprime
    wrong = RepElement.schur(2, (2, 0)) + RepElement.schur(2, (1, 1)).scaled(3)
    assert wrong.dimension() == wedge(2).dimension()
    monkeypatch.setattr(bc, "wedge_nprime", lambda q: wrong if q == 2 else wedge(q))
    result = verify.check_normal_bundle(12)
    assert not result.passed and result.detail == "mismatch"


def test_cotangent_simplicity_fails_on_a_surviving_summand(monkeypatch):
    assert verify.check_cotangent(8).passed
    single = bwb.bwb_single

    def surviving(d, k, gamma, delta):
        # S(1,-1) Q^v with trivial K, a vanishing summand of End(Omega) on G(2,5), survives in degree 2
        if (d, k, gamma, delta) == (5, 2, trivial(3), Weight((1, -1))):
            assert single(d, k, gamma, delta).is_zero
            return BWBOutcome(degree=2, weight=Weight((1, 0, 0, 0, -1)))
        return single(d, k, gamma, delta)

    monkeypatch.setattr(soc, "bwb_single", surviving)
    monkeypatch.setattr(bwb, "bwb_single", surviving)
    assert verify.check_cotangent(8) == verify.CheckResult("cotangent-simplicity", False, "G(2,5) failed")


@pytest.mark.parametrize("wrong", [((1, 0, 0), (2, 1, 0)), ((2, 1, 0), (1, 0, 0))])
def test_oracle_equivalence_fails_on_one_wrong_ordered_product(monkeypatch, wrong):
    # the Brauer-Klimyk expansion is computed once per unordered pair and
    # shared by both orders, so a product wrong in only one order, first or
    # second, must still be caught
    assert verify.check_oracle_equivalence(12).passed
    tensor = rr.tensor
    x, y = (RepElement.schur(3, p) for p in wrong)

    def off_by_one(a, b):
        return tensor(a, b) + (RepElement.one(3) if (a, b) == (x, y) else RepElement.zero(3))

    monkeypatch.setattr(rr, "tensor", off_by_one)
    result = verify.check_oracle_equivalence(12)
    assert not result.passed
    assert result.detail == f"LR vs character at {wrong[0]} x {wrong[1]}"


def test_brauer_klimyk_equals_tensor_with_negative_entries():
    # Clebsch-Gordan at rank 2, Littlewood-Richardson at the other ranks
    n = 0
    for rank, lo, hi in ((1, -4, 4), (2, -3, 3), (3, -2, 2), (4, -1, 2)):
        weights = [Weight(e) for e in product(range(hi, lo - 1, -1), repeat=rank) if list(e) == sorted(e, reverse=True)]
        for a, b in product(weights, repeat=2):
            expected = rr.tensor(RepElement.schur(rank, a), RepElement.schur(rank, b)).terms
            assert verify._brauer_klimyk(a, b) == expected, (a, b)
            n += 1
    assert n == 3315


@pytest.mark.parametrize(
    "a, b",
    [
        # long rows: the strip search's last open row takes every box left
        ((40, 20, 0), (30, 10, 0)),
        # a power of the determinant is an empty shape, however large
        ((10000, 10000, 10000), (30000, 0, 0)),
        # later letters need the rows below: the row cap prunes the search
        ((2, 0, 0, 0, 0, 0, 0, -2), (80, 70, 60, 50, 40, 30, 20, 10)),
        ((1, 1, 0, 0, 0, -1), (50, 40, 30, 20, 10, 0)),
        # a tall factor against one long row: more rows than the recursion limit
        ((1,) * 399 + (0,), (2000,) + (0,) * 399),
    ],
    ids=["long-rows", "determinant", "row-cap-8", "row-cap-6", "deep-column"],
)
def test_brauer_klimyk_equals_tensor_past_the_small_box(a, b):
    rank = len(a)
    x, y = RepElement.schur(rank, a), RepElement.schur(rank, b)
    expected = verify._brauer_klimyk(Weight(a), Weight(b))
    assert rr.tensor(x, y).terms == expected
    assert rr.tensor(y, x).terms == expected


def test_oracle_equivalence_fails_on_a_character_missing_one_monomial(monkeypatch):
    # the expected expansion reads S^a's weights from schur_char alone
    assert verify.check_oracle_equivalence(12).passed
    schur_char, w = rr.schur_char, Weight((2, 1, 0))
    short = schur_char(w)[1:]
    monkeypatch.setattr(rr, "schur_char", lambda v: short if v == w else schur_char(v))
    result = verify.check_oracle_equivalence(12)
    assert not result.passed
    assert result.detail == "LR vs character at (2, 1, 0) x (2, 1, 0)"


def _never_vanishing(monkeypatch, weight=None):
    """Make S^w Q^v survive on every G(2,d) in soc's thresholds, for w == weight (every w if None)."""
    threshold = soc.vanishing_threshold

    def patched(k, delta):
        return float("inf") if weight is None or delta.entries == weight else threshold(k, delta)

    monkeypatch.setattr(soc, "vanishing_threshold", patched)


def _in_fibre_terms(w, a, b, top_q=4):
    terms = soc.fibre_terms(soc.ext_decomposition(Weight(a), Weight(b)), top_q)
    return any(Weight(w) in element.terms for element in terms)


def test_semiorthogonality_reports_the_least_d_then_the_first_pair(monkeypatch):
    # (1,-1) sits in the terms of (4,2) before (3,3), bounded from d = 6, the
    # least d of any bounded pair holding it, and of (7,5) before (6,6), the
    # earlier pair in the partition order, bounded only from d = 9
    assert _in_fibre_terms((1, -1), (4, 2), (3, 3)) and _in_fibre_terms((1, -1), (7, 5), (6, 6))
    _never_vanishing(monkeypatch, (1, -1))
    result = verify.check_semiorthogonal(9)
    assert not result.passed
    assert result.detail == "d=6, (4,2) before (3,3) failed"


def _with_an_extra_sequence_label(monkeypatch, d, label=(0, 0)):
    """Append ``label`` to ``soc.enumerate_sos(d)``: its pairs with the sequence are not bounded at d."""
    enumerate_sos = soc.enumerate_sos
    monkeypatch.setattr(soc, "enumerate_sos", lambda e: enumerate_sos(e) + ([Weight(label)] if e == d else []))


def test_counting_fails_on_one_extra_sequence_label(monkeypatch):
    # the ff count still matches, so only the sequence count can fail
    assert verify.check_counting(12).passed
    _with_an_extra_sequence_label(monkeypatch, 7)
    assert verify.check_counting(12) == verify.CheckResult("counting", False, "d=7: sos count 7")


def test_oracle_equivalence_fails_on_a_wrong_bott_outcome(monkeypatch):
    # Bott's formula gives twist -1 on P^2 an H^0 of dimension 3, so a zero
    # outcome there must fail
    single = verify.bwb_single

    def vanishing(d, k, gamma, delta):
        return BWBOutcome(repeated_value=0) if (d, delta) == (3, (-1,)) else single(d, k, gamma, delta)

    monkeypatch.setattr(verify, "bwb_single", vanishing)
    result = verify.check_oracle_equivalence(12)
    assert (result.passed, result.detail) == (False, "Bott mismatch on P^2, twist -1: {} vs {0: 3}")


@pytest.mark.parametrize("d", [7, 9])
def test_semiorthogonality_reports_uncovered_sequence_pairs(monkeypatch, d):
    # (a, (0,0)) is bounded from d = a_1 + 5: after 7 for every sequence label
    # at d = 7, and after the cap 9 for (7,3) at d = 9, which is then never swept
    _with_an_extra_sequence_label(monkeypatch, d)
    result = verify.check_semiorthogonal(9)
    assert not result.passed
    assert result.detail == f"d={d}: sequence pairs not all covered"


def test_semiorthogonality_reports_a_sweep_failure_before_a_later_uncovered_d(monkeypatch):
    _with_an_extra_sequence_label(monkeypatch, 7)
    _never_vanishing(monkeypatch, (1, -1))
    result = verify.check_semiorthogonal(9)
    assert not result.passed
    assert result.detail == "d=6, (4,2) before (3,3) failed"


def test_semiorthogonality_reports_a_closed_form_mismatch_before_any_sweep_failure(monkeypatch):
    # every bounded pair fails the sweep, and (0,0) before (0,0) is the
    # last pair the closed form is compared at, so the mismatch must still win
    _never_vanishing(monkeypatch)
    brauer_klimyk, last = verify._brauer_klimyk, Weight((0, 0))

    def off_by_one(a, b):
        expected = brauer_klimyk(a, b)
        if a == last and b == last:
            expected[last] += 1
        return expected

    monkeypatch.setattr(verify, "_brauer_klimyk", off_by_one)
    result = verify.check_semiorthogonal(9)
    assert not result.passed
    assert result.detail == "Ext((0,0),(0,0)): closed form S(0,0) vs Brauer-Klimyk 2*S(0,0)"


def test_fully_faithful_reports_the_least_d_then_the_first_label(monkeypatch):
    # (1,-1) sits in End of every label of positive width: of (4,3), listed
    # from d = 6 with the other width-1 labels and first among them in the
    # partition order, and of (7,6), an earlier label listed only from d = 9
    assert _in_fibre_terms((1, -1), (4, 3), (4, 3)) and _in_fibre_terms((1, -1), (7, 6), (7, 6))
    _never_vanishing(monkeypatch, (1, -1))
    result = verify.check_fully_faithful(9)
    assert not result.passed
    assert result.detail == "d=6, alpha=(4,3) failed"


def _with_trivial_summand(monkeypatch, where):
    """Add S(0,0), which never vanishes, to ``soc.ext_decomposition(a, b)`` wherever ``where(a, b)`` holds."""
    ext = soc.ext_decomposition
    monkeypatch.setattr(
        soc, "ext_decomposition", lambda a, b: ext(a, b) + (RepElement.one(2) if where(a, b) else RepElement.zero(2))
    )


def _twist_class(a, b):
    """(m, n, G): the smaller width, the larger width and a_2 - b_1, all that the Clebsch-Gordan Ext reads."""
    wa, wb = a.entries[0] - a.entries[1], b.entries[0] - b.entries[1]
    return min(wa, wb), max(wa, wb), a.entries[1] - b.entries[0]


def _widest(a, b):
    return _twist_class(a, b)[1]


def test_exceptional_collection_reports_a_self_ext_before_a_backward_pair(monkeypatch):
    # a label of width w is in the box from d = max(3, w + 2), (w,0) first,
    # and a pair whose wider label has width n from d = max(3, n + 2); each
    # fault is a predicate on the twist class, as Clebsch-Gordan would
    # produce it, so every pair of a class sees it.
    # The width-3 labels' Hom doubles, and every backward pair with a label
    # of width 3 or more survives: all from d = 5
    _with_trivial_summand(monkeypatch, lambda a, b: _twist_class(a, b) == (3, 3, -3) or (a != b and _widest(a, b) >= 3))
    result = verify.check_exceptional_collection(8)
    assert not result.passed
    assert result.detail == "d=5, alpha=(3,0)"
    # on top of those, the backward pairs whose wider label has width 2
    # survive, from d = 4: the lower d comes first
    _with_trivial_summand(monkeypatch, lambda a, b: a != b and _widest(a, b) == 2)
    result = verify.check_exceptional_collection(8)
    assert not result.passed
    assert result.detail == "d=4: backward Ext (2,2) before (2,0): H^0 = S(0,0,0,0)"


@pytest.mark.parametrize(
    "width, ff_detail, exc_detail",
    [(1, "d=6, alpha=(4,3) failed", "d=3, alpha=(1,0)"), (0, "d=5, alpha=(3,3) failed", "d=3, alpha=(1,1)")],
    ids=["width-1", "width-0"],
)
def test_self_ext_checks_fail_on_a_doubled_identity(monkeypatch, width, ff_detail, exc_detail):
    # every summand but the identity still vanishes, so only Hom = 2 can fail
    # a label; the identity doubles for every label of the width, which is its
    # twist class, so each check fails at the first such label it lists
    assert verify.check_fully_faithful(9).passed and verify.check_exceptional_collection(8).passed
    _with_trivial_summand(monkeypatch, lambda a, b: _twist_class(a, b) == (width, width, -width))
    ff, exc = verify.check_fully_faithful(9), verify.check_exceptional_collection(8)
    assert (ff.passed, ff.detail) == (False, ff_detail)
    assert (exc.passed, exc.detail) == (False, exc_detail)


def _counting(monkeypatch, module, name, calls):
    """Count the calls to ``module.name`` in ``calls[name]``."""
    function = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return function(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "check, d_max, expected",
    [
        # the closed form meets Brauer-Klimyk on all 666 pairs of the box at
        # d = 9, but its 330 bounded pairs hold only 49 twist classes, so 49
        # distinct Exts; each class builds its Ext once more for its threshold
        (verify.check_semiorthogonal, 9, {"ext_decomposition": 715, "_brauer_klimyk": 666, "fibre_terms": 49}),
        (verify.check_exceptional_collection, 8, {"ext_decomposition": 106, "fibre_terms": 106}),
        (verify.check_fully_faithful, 9, {"ext_decomposition": 5, "fibre_terms": 5}),
    ],
    ids=["semi-orthogonality", "exceptional-collection", "fully-faithful"],
)
def test_kernel_sweeps_read_one_threshold_per_distinct_ext(monkeypatch, check, d_max, expected):
    calls = dict.fromkeys(expected, 0)
    for name in expected:
        _counting(monkeypatch, verify if name == "_brauer_klimyk" else soc, name, calls)
    assert check(d_max).passed
    assert calls == expected


def test_the_twist_class_fixes_the_ext_and_a_self_pair():
    # the premise of the kernel sweeps' threshold key: on the box at D = 16,
    # all ordered pairs of a twist class, self pairs included, have one Ext,
    # distinct classes have distinct Exts, and only a label with itself has
    # m = n = -G, so the class fixes Hom too
    labels = soc.box_partitions(16)
    exts = {}
    for a, b in product(labels, repeat=2):
        m, n, g = key = _twist_class(a, b)
        exts.setdefault(key, set()).add(frozenset(soc.ext_decomposition(a, b).terms.items()))
        assert (m == n == -g) == (a == b), (a, b)
    assert len(labels) ** 2 == 14400 and len(exts) == 1800
    assert all(len(e) == 1 for e in exts.values()) and len(set().union(*exts.values())) == 1800


def test_semiorthogonality_catches_a_closed_form_wrong_in_one_pair_alone(monkeypatch):
    # a kernel sweep reads each twist class's threshold from one pair, so it
    # relies on every pair it reads being compared with Brauer-Klimyk, which
    # shares no code with Clebsch-Gordan, in the same run
    caps = verify.D_CAPS
    read = {(a, a) for d in range(5, caps["fully-faithful"] + 1) for a in soc.enumerate_ff(d)}
    for d in range(3, caps["exceptional-collection"] + 1):
        box = soc.box_partitions(d)
        read |= set(zip(box, box)) | set(combinations(box, 2))
    assert read <= set(combinations_with_replacement(soc.box_partitions(caps["semi-orthogonality"]), 2))
    doubled = Weight((2, 1))
    _with_trivial_summand(monkeypatch, lambda a, b: a == b == doubled)
    result = verify.check_semiorthogonal(9)
    assert (result.passed, result.detail) == (
        False, "Ext((2,1),(2,1)): closed form S(1,-1) + 2*S(0,0) vs Brauer-Klimyk S(1,-1) + S(0,0)"
    )


def test_semiorthogonality_fails_the_one_pair_whose_ext_changed(monkeypatch):
    # (4,2) before (3,3) shares its twist class, so its Ext S(1,-1) and its
    # threshold, with (5,3) before (4,4), earlier in the partition order, and
    # with (3,1) before (2,2), later. The class is first bounded at d = 6,
    # before (5,3) is in the box, so the sweep reads its threshold from
    # (4,2) before (3,3). An extra S(0,0) in that pair's Ext alone, through
    # the closed form and Brauer-Klimyk alike, must fail that pair and no other
    a, b = Weight((4, 2)), Weight((3, 3))
    same = soc.ext_decomposition(Weight((5, 3)), Weight((4, 4)))
    assert soc.ext_decomposition(a, b) == same == RepElement.schur(2, (1, -1))
    assert _twist_class(a, b) == _twist_class(Weight((5, 3)), Weight((4, 4)))
    labels = soc.box_partitions(9)
    assert labels.index(Weight((5, 3))) < labels.index(a) and Weight((5, 3)) not in soc.box_partitions(6)
    assert verify.check_semiorthogonal(9).passed  # nothing carries over from this call
    _with_trivial_summand(monkeypatch, lambda x, y: (x, y) == (a, b))
    brauer_klimyk = verify._brauer_klimyk

    def with_trivial(x, y):
        expected = brauer_klimyk(x, y)
        if (x, y) == (a, b.dual()):
            expected[trivial(2)] = expected.get(trivial(2), 0) + 1
        return expected

    monkeypatch.setattr(verify, "_brauer_klimyk", with_trivial)
    result = verify.check_semiorthogonal(9)
    assert (result.passed, result.detail) == (False, "d=6, (4,2) before (3,3) failed")


def _pair_threshold(a, b):
    return soc.threshold(soc.fibre_terms(soc.ext_decomposition(a, b), 4), 0)


def _self_ext_threshold(a, top_q):
    return soc.threshold(soc.fibre_terms(soc.ext_decomposition(a, a), top_q), 1)


def test_pair_first_semiorthogonality_matches_the_single_d_reports():
    # the pair's threshold against soc's trace, on every pair of the box at
    # d = 5..9: the 567 bounded ones the check sweeps, and the rest, which fail
    bounded, failing = 0, 0
    for d in range(5, 10):
        labels = soc.box_partitions(d)
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                verdict = soc.check_semiorthogonal(a, b, d).verdict
                assert (d >= _pair_threshold(a, b)) == verdict, (d, a, b)
                bounded += a.entries[0] - b.entries[1] <= d - 5
                failing += not verdict
    assert bounded == 567 and failing > 0


def test_label_first_self_exts_match_the_single_d_reports():
    # fully-faithful: every label of the box at d = 5..9, the 80 narrow ones
    # the check sweeps and the wide ones, which fail
    narrow, failing = 0, 0
    for d in range(5, 10):
        for a in soc.box_partitions(d):
            verdict = soc.check_fully_faithful(a, d).verdict
            assert (d >= _self_ext_threshold(a, 4)) == verdict, (d, a)
            narrow += a.entries[0] - a.entries[1] <= d - 5
            failing += not verdict
    assert narrow == 80 and failing > 0
    # exceptional-collection at d = 3..8: the 83 self-Exts, the 756 backward
    # pairs and, to see the threshold fail, the same pairs forward
    labels, pairs, forward_failing = 0, 0, 0
    for d in range(3, 9):
        box = soc.box_partitions(d)
        for a in box:
            assert (d >= _self_ext_threshold(a, 0)) == soc.check_exceptional(a, d).verdict, (d, a)
            labels += 1
        for i, a in enumerate(box):
            for b in box[i + 1 :]:
                for x, y in ((a, b), (b, a)):
                    ext = soc.ext_decomposition(x, y)
                    vanishes = cohomology(BundleExpr.from_qdual(d, 2, ext)).is_zero()
                    assert (d >= soc.threshold(soc.fibre_terms(ext, 0), 0)) == vanishes, (d, x, y)
                pairs += 1
                forward_failing += not vanishes
    assert (labels, pairs) == (83, 756) and forward_failing > 0


def test_thresholds_meet_the_papers_bounds_at_every_d():
    # on the box at D = 16: a label is fully faithful fibrewise exactly from
    # d = width + 5, so the paper's width(a) <= d-5 is sharp, and a pair is
    # semi-orthogonal from a_1 - b_2 + 5 at the latest, exactly then when
    # a_2 - b_1 <= 2
    labels = soc.box_partitions(16)
    assert len(labels) == 120
    for a in labels:
        assert _self_ext_threshold(a, 4) == a.entries[0] - a.entries[1] + 5, a
    pairs, sharp = 0, 0
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            t, bound = _pair_threshold(a, b), a.entries[0] - b.entries[1] + 5
            assert t <= bound, (a, b)
            assert (t == bound) == (a.entries[1] - b.entries[0] <= 2), (a, b)
            pairs += 1
            sharp += t == bound
    assert (pairs, sharp) == (7140, 5775)


@pytest.mark.parametrize(
    "check, first",
    [
        (verify.check_counting, 5),
        (verify.check_kummer, 5),
        (verify.check_fully_faithful, 5),
        (verify.check_semiorthogonal, 5),
        (verify.check_exceptional_collection, 3),
        (verify.check_cotangent, 4),
        (verify.check_rank_identity, 1),
    ],
)
def test_an_empty_d_range_is_a_usage_error(check, first):
    with pytest.raises(ValueError, match=f"d_max at least {first}, got {first - 1}"):
        check(first - 1)


def test_run_all_matches_its_pinned_digest_at_every_cap():
    # every verdict and detail of the suite for d_max = 5..12, so each
    # distinct cap of every check and each of its totals is pinned
    results = [r.to_json() for d in range(5, 13) for r in verify.run_all(d)]
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0a47353e291fece3c6acb765e110aac549be4192290974f091d8a16a15dd6b83"
    )


def _d_major_fully_faithful(top):
    total = 0
    for d in range(5, top + 1):
        for a in soc.enumerate_ff(d):
            if not soc.check_fully_faithful(a, d).verdict:
                return verify.CheckResult("fully-faithful", False, f"d={d}, alpha={a} failed")
            total += 1
    return verify.CheckResult("fully-faithful", True, f"{total} narrow labels pass, d = 5..{top}")


def _d_major_semiorthogonal(top):
    total = 0
    for d in range(5, top + 1):
        swept = [(a, b) for a, b in combinations(soc.box_partitions(d), 2) if a.entries[0] - b.entries[1] <= d - 5]
        for a, b in swept:
            if not soc.check_semiorthogonal(a, b, d).verdict:
                return verify.CheckResult("semi-orthogonality", False, f"d={d}, {a} before {b} failed")
        if not set(combinations(soc.enumerate_sos(d), 2)) <= set(swept):
            return verify.CheckResult("semi-orthogonality", False, f"d={d}: sequence pairs not all covered")
        total += len(swept)
    return verify.CheckResult("semi-orthogonality", True, f"{total} ordered pairs pass, d = 5..{top}")


def _d_major_exceptional_collection(top):
    total = 0
    for d in range(3, top + 1):
        box = soc.box_partitions(d)
        for a in box:
            if not soc.check_exceptional(a, d).verdict:
                return verify.CheckResult("exceptional-collection", False, f"d={d}, alpha={a}")
        for a, b in combinations(box, 2):
            coh = cohomology(BundleExpr.from_qdual(d, 2, soc.ext_decomposition(a, b)))
            if not coh.is_zero():
                return verify.CheckResult("exceptional-collection", False, f"d={d}: backward Ext {a} before {b}: {coh}")
            total += 1
    return verify.CheckResult("exceptional-collection", True, f"{total} backward pairs vanish, d = 3..{top}")


@pytest.mark.parametrize(
    "q, extra, d_max",
    [
        (1, (3, 3), 9),  # both pass
        (2, (0, 0), 9),  # fully-faithful fails at d = 5, semi-orthogonality passes
        (2, (4, -4), 9),  # d = 5 and d = 6
        (4, (1, -1), 7),  # d = 6
        (3, (2, -2), 8),  # d = 7
        (1, (3, -3), 9),  # d = 8
    ],
    ids=["pass", "ff-only", "d5-d6", "d6", "d7", "d8"],
)
def test_kernel_sweeps_match_a_d_major_loop_over_the_single_d_reports(monkeypatch, q, extra, d_max):
    # an extra summand of wedge^q N' reaches the fibre terms both routes read,
    # and leaves the closed form alone
    wedge = soc.wedge_nprime
    extra = RepElement.schur(2, extra)
    monkeypatch.setattr(soc, "wedge_nprime", lambda p: wedge(p) + (extra if p == q else RepElement.zero(2)))
    assert verify.check_fully_faithful(d_max) == _d_major_fully_faithful(d_max)
    assert verify.check_semiorthogonal(d_max) == _d_major_semiorthogonal(d_max)


@pytest.mark.parametrize(
    "where",
    [
        lambda a, b: False,  # passes
        lambda a, b: _twist_class(a, b) == (1, 1, -1),  # the width-1 self-Exts, at d = 3
        lambda a, b: a != b and _widest(a, b) >= 4,  # a backward pair at d = 6
        lambda a, b: _widest(a, b) == 5,  # at d = 7, (5,0)'s self-Ext before its backward pairs
    ],
    ids=["pass", "self-ext", "pair", "self-ext-first"],
)
def test_exceptional_collection_matches_a_d_major_loop_over_the_single_d_reports(monkeypatch, where):
    # an extra S(0,0), which never vanishes, in the Ext of each pair of a
    # twist class, as Clebsch-Gordan would produce it
    _with_trivial_summand(monkeypatch, where)
    assert verify.check_exceptional_collection(8) == _d_major_exceptional_collection(8)
