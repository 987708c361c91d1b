from itertools import product

import pytest

from schurbott import bundle_calculus as bc
from schurbott import rep_ring as rr
from schurbott import bwb, soc, verify
from schurbott.bwb import BWBOutcome
from schurbott.partitions import Weight
from schurbott.rep_ring import CharPoly, RepElement


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


def test_brauer_klimyk_equals_lr_tensor_with_negative_entries():
    n = 0
    for rank, lo, hi in ((1, -4, 4), (2, -3, 3), (3, -2, 2), (4, -1, 2)):
        weights = [Weight(e) for e in product(range(hi, lo - 1, -1), repeat=rank) if list(e) == sorted(e, reverse=True)]
        for a, b in product(weights, repeat=2):
            expected = rr.lr_tensor(RepElement.schur(rank, a), RepElement.schur(rank, b)).terms
            assert verify._brauer_klimyk(a, b) == expected, (a, b)
            n += 1
    assert n == 3315


def test_oracle_equivalence_fails_on_a_character_missing_one_monomial(monkeypatch):
    # the expected expansion reads S^a's weights from schur_char alone
    assert verify.check_oracle_equivalence(12).passed
    schur_char, w = rr.schur_char, Weight((2, 1, 0))
    short = CharPoly(3, schur_char(w).coeffs[1:])
    monkeypatch.setattr(rr, "schur_char", lambda v: short if v == w else schur_char(v))
    result = verify.check_oracle_equivalence(12)
    assert not result.passed
    assert result.detail == "LR vs character at (2, 1, 0) x (2, 1, 0)"


def _surviving_when(real, survives):
    """``real`` with a non-zero outcome wherever ``survives(d, Q-dual entries)`` holds."""

    def bwb_single(d, k, gamma, delta):
        if survives(d, tuple(delta.entries if isinstance(delta, Weight) else delta)):
            return BWBOutcome(degree=0, weight=Weight((0,) * d))
        return real(d, k, gamma, delta)

    return bwb_single


def test_semiorthogonality_reports_the_least_d_then_the_first_pair(monkeypatch):
    # (1,-1) sits in the trace of (4,2) before (3,3) at d = 6..9, and of
    # (7,5) before (6,6), the earlier pair in the partition order, only at d = 9
    monkeypatch.setattr(soc, "bwb_single", _surviving_when(soc.bwb_single, lambda d, w: d >= 6 and w == (1, -1)))
    result = verify.check_semiorthogonal(9)
    assert not result.passed
    assert result.detail == "d=6, (4,2) before (3,3) failed"


def test_semiorthogonality_reports_a_closed_form_mismatch_before_any_sweep_failure(monkeypatch):
    # every bounded pair fails the sweep, and (0,0) before (0,0) is the
    # last pair the closed form is compared at, so the mismatch must still win
    monkeypatch.setattr(soc, "bwb_single", _surviving_when(soc.bwb_single, lambda d, w: True))
    lr_tensor, last = rr.lr_tensor, RepElement.schur(2, (0, 0))

    def off_by_one(a, b):
        return lr_tensor(a, b) + (RepElement.one(2) if a == last and b == last else RepElement.zero(2))

    monkeypatch.setattr(rr, "lr_tensor", off_by_one)
    result = verify.check_semiorthogonal(9)
    assert not result.passed
    assert result.detail == "Ext((0,0),(0,0)): closed form S(0,0) vs LR 2*S(0,0)"


def test_fully_faithful_reports_the_least_d_then_the_first_label(monkeypatch):
    # (1,-1) sits in End of (4,3) at d = 6..9, and of (7,6), the earlier
    # label in the partition order, only at d = 9
    monkeypatch.setattr(soc, "bwb_single", _surviving_when(soc.bwb_single, lambda d, w: d >= 6 and w == (1, -1)))
    result = verify.check_fully_faithful(9)
    assert not result.passed
    assert result.detail == "d=6, alpha=(4,3) failed"


def test_exceptional_collection_reports_a_self_ext_before_a_backward_pair(monkeypatch):
    monkeypatch.setattr(soc, "bwb_single", _surviving_when(soc.bwb_single, lambda d, w: d >= 5 and w == (1, -1)))
    result = verify.check_exceptional_collection(8)
    assert not result.passed
    assert result.detail == "d=5, alpha=(3,2)"
    # a backward Ext surviving at the same d comes second, at a lower d first
    monkeypatch.setattr(bwb, "bwb_single", _surviving_when(bwb.bwb_single, lambda d, w: d >= 5))
    assert verify.check_exceptional_collection(8).detail == "d=5, alpha=(3,2)"
    monkeypatch.setattr(bwb, "bwb_single", _surviving_when(bwb.bwb_single, lambda d, w: d >= 4))
    result = verify.check_exceptional_collection(8)
    assert not result.passed
    assert result.detail == "d=4: backward Ext (2,2) before (2,1): H^0 = S(0,0,0,0)"


def _recorded(monkeypatch, name):
    """Record (d, alpha, beta, report JSON) of every report verify builds by ``soc.<name>``."""
    seen, build = [], getattr(soc, name)

    def recording(*args):
        report = build(*args)
        seen.append((report.d, report.alpha, report.beta, report.to_json()))
        return report

    monkeypatch.setattr(soc, name, recording)
    return seen


def test_pair_first_semiorthogonality_matches_the_single_d_reports(monkeypatch):
    seen = _recorded(monkeypatch, "semiorthogonal_report")
    assert verify.check_semiorthogonal(9).passed
    # pairs come in the partition order, so a stable sort by d is the d-major order
    got = sorted(seen, key=lambda t: t[0])
    monkeypatch.undo()
    expected = []
    for d in range(5, 10):
        labels = soc.box_partitions(d)
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                if a.entries[0] - b.entries[1] <= d - 5:
                    expected.append((d, a, b, soc.check_semiorthogonal(a, b, d).to_json()))
    assert got == expected and len(expected) == 567


def test_label_first_self_exts_match_the_single_d_reports(monkeypatch):
    seen = _recorded(monkeypatch, "self_ext_report")
    assert verify.check_fully_faithful(9).passed
    ff = sorted(seen, key=lambda t: t[0])
    seen.clear()
    assert verify.check_exceptional_collection(8).passed
    exceptional = sorted(seen, key=lambda t: t[0])
    monkeypatch.undo()
    expected = [(d, a, None, soc.check_fully_faithful(a, d).to_json()) for d in range(5, 10) for a in soc.enumerate_ff(d)]
    assert ff == expected and len(expected) == 80
    expected = [(d, a, None, soc.check_exceptional(a, d).to_json()) for d in range(3, 9) for a in soc.box_partitions(d)]
    assert exceptional == expected and len(expected) == 83
