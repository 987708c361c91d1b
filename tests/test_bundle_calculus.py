from math import comb

import pytest

from schurbott import bundle_calculus as bc
from schurbott import verify
from schurbott.bundle_calculus import (
    NPRIME,
    Q,
    Q_DUAL,
    SES_MIDDLE,
    SES_SUB,
    planar_rank_identity,
    wedge2_middle,
    wedge_nprime,
)
from schurbott.partitions import Weight
from schurbott.rep_ring import RepElement, dual, ext_power, sym_power, tensor


def S(*entries):
    return RepElement.schur(2, entries)


class TestFibreConstants:
    def test_ranks(self):
        assert Q_DUAL.dimension() == 2
        assert Q.dimension() == 2
        assert NPRIME.dimension() == 4
        assert SES_MIDDLE.dimension() == 6

    def test_duality(self):
        assert dual(Q_DUAL) == Q

    def test_middle_splits(self):
        assert NPRIME + SES_SUB == SES_MIDDLE
        assert SES_MIDDLE == S(2, -1) + S(1, 0)

    def test_nprime_is_twisted_cubic(self):
        # Sym^3 Q^v twisted down by det Q^v
        cubic = sym_power(Q_DUAL, 3)
        assert cubic == S(3, 0)
        assert NPRIME == tensor(cubic, S(-1, -1))


class TestWedgePowers:
    def test_values(self):
        assert wedge_nprime(0) == RepElement.one(2)
        assert wedge_nprime(1) == NPRIME
        assert wedge_nprime(2) == S(3, -1) + S(1, 1)
        assert wedge_nprime(3) == S(3, 0)
        assert wedge_nprime(4) == S(2, 2)

    def test_binomial_ranks(self):
        for q in range(5):
            assert wedge_nprime(q).dimension() == comb(4, q)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wedge_nprime(5)
        with pytest.raises(ValueError):
            wedge_nprime(-1)

    def test_filtration_identity_holds_termwise(self):
        # wedge^q(middle) = sum_i wedge^i(sub) (x) wedge^{q-i}(N')
        for q in range(5):
            lhs = ext_power(SES_MIDDLE, q)
            rhs = RepElement.zero(2)
            for i in range(min(q, 2) + 1):
                rhs = rhs + tensor(ext_power(SES_SUB, i), wedge_nprime(q - i))
            assert lhs == rhs

    def test_top_wedge_duality(self):
        # wedge^3 N' = wedge^4 N' (x) (N')^v
        assert wedge_nprime(3) == tensor(wedge_nprime(4), dual(NPRIME))


class TestWedge2Middle:
    def test_cauchy_route_matches_direct(self):
        assert wedge2_middle() == ext_power(SES_MIDDLE, 2)

    def test_golden_value(self):
        expected = RepElement(
            2, {Weight((3, -1)): 2, Weight((1, 1)): 2, Weight((2, 0)): 1}
        )
        assert wedge2_middle() == expected
        assert wedge2_middle().dimension() == comb(6, 2)


class TestRankIdentity:
    def test_closed_form(self):
        for d in range(1, 13):
            for l in range(1, d + 1):
                assert planar_rank_identity(d, l) == d + (l * l - l) // 2

    def test_verify_check_catches_wrong_closed_form(self, monkeypatch):
        assert verify.check_rank_identity(12).passed
        monkeypatch.setattr(bc, "planar_rank_identity", lambda d, l: d + l * l // 2)
        result = verify.check_rank_identity(12)
        assert not result.passed and result.detail == "(d=2, l=2)"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            planar_rank_identity(4, 5)
        with pytest.raises(ValueError):
            planar_rank_identity(4, 0)

