from itertools import product

import pytest

from schurbott import bundle_calculus as bc
from schurbott import rep_ring as rr
from schurbott import soc, verify
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
