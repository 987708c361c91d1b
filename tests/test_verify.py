from schurbott import bundle_calculus as bc
from schurbott import soc, verify
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
