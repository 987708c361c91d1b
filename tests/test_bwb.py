import itertools
import random
from math import comb

import pytest

from schurbott.bwb import (
    BWBOutcome,
    BundleExpr,
    GradedCohomology,
    bwb_single,
    cohomology,
    vanishing_threshold,
)
from schurbott.partitions import Weight, trivial
from schurbott.rep_ring import RepElement, dual, weyl_dim
from young import dotted_action, weight


def bundle_rank(expr):
    """Rank of the bundle: each summand's two Weyl dimensions multiply."""
    return sum(c * weyl_dim(g) * weyl_dim(q) for (g, q), c in expr.terms.items())


class TestSingleBundle:
    def test_structure_sheaf_global_sections(self):
        out = bwb_single(5, 2, (0, 0, 0), (0, 0))
        assert not out.is_zero
        assert out.degree == 0 and out.weight == Weight((0,) * 5)
        assert out.dimension() == 1

    def test_repeat_kills_cohomology(self):
        # dotted weight (0,0,0,1,0) + rho hits 3 twice
        out = bwb_single(5, 2, (0, 0, 0), (1, 0))
        assert out.is_zero
        assert out.repeated_value == 3
        assert out.dimension() == 0

    def test_line_on_p1(self):
        # O(-2) on P^1: one-dimensional H^1
        out = bwb_single(2, 1, (0,), (2,))
        assert out.degree == 1 and out.weight == weight(1, 1)
        assert out.dimension() == 1

    def test_dominant_weight_stays_in_degree_zero(self):
        for d in (4, 5):
            for k in (1, 2, 3):
                for delta in itertools.product(range(3), repeat=k):
                    if any(a < b for a, b in zip(delta, delta[1:])):
                        continue
                    gammas = [(0,) * (d - k), (1,) + (0,) * (d - k - 1)]
                    for gamma in gammas:
                        out = bwb_single(d, k, gamma, delta)
                        concat = gamma + delta
                        dominant = all(a >= b for a, b in zip(concat, concat[1:]))
                        if dominant:
                            assert out.degree == 0
                            assert out.weight.entries == concat
                        else:
                            assert out.is_zero or out.degree >= 1

    def test_serre_duality(self):
        # H^p(E) and H^{dim-p}(E^v (x) canonical) have equal dimensions
        d, k = 5, 2
        dim_x = k * (d - k)
        for delta in itertools.product(range(-2, 4), repeat=k):
            if delta[0] < delta[1]:
                continue
            out = bwb_single(d, k, trivial(d - k), delta)
            # canonical bundle of G(2,5): det(K (x) Q^v) with K-part (-2,..)
            # and Q^v-part (3, 3) in this normalization
            dual_delta = (3 - delta[1], 3 - delta[0])
            dual_out = bwb_single(d, k, (-2, -2, -2), dual_delta)
            if out.is_zero:
                assert dual_out.is_zero
            else:
                assert dual_out.degree == dim_x - out.degree
                assert dual_out.dimension() == out.dimension()

    def test_bott_formula_projective_spaces(self):
        for d in (3, 4, 5):
            n = d - 1
            for m in range(-8, 9):
                out = bwb_single(d, 1, (0,) * n, (m,))
                if m <= 0:
                    assert out.degree == 0 and out.dimension() == comb(n - m, n)
                elif m >= d:
                    assert out.degree == n and out.dimension() == comb(m - 1, n)
                else:
                    assert out.is_zero

    def test_trivial_k_rule_matches_the_dotted_action(self):
        # every non-increasing Q-part with entries in [-(d+2), d+2] while there
        # are at most `sweep` of them; past that (up to 1.7e9 at d = 12) `sweep`
        # parts drawn with a fixed seed, each a sorted uniform draw from the range
        sweep = 1500
        draw = random.Random(7)
        for d in range(3, 13):
            values = range(-(d + 2), d + 3)
            for k in range(1, d):
                if comb(len(values) + k - 1, k) <= sweep:
                    parts = itertools.combinations_with_replacement(reversed(values), k)
                else:
                    parts = (sorted(draw.choices(values, k=k), reverse=True) for _ in range(sweep))
                gamma = (0,) * (d - k)
                for delta in parts:
                    out = bwb_single(d, k, gamma, delta)
                    kind = "zero" if out.is_zero else "nonzero"
                    beta = None if out.is_zero else out.weight.entries
                    assert (kind, out.degree, beta, out.repeated_value) == dotted_action(
                        d, k, gamma, delta
                    ), (d, k, delta)

    def test_repeat_rule_matches_the_dotted_action(self):
        # non-trivial K-parts: for each d and k, `draws` pairs drawn with a
        # fixed seed, each part a sorted uniform draw from [-(d+2), d+2]
        draws = 300
        draw = random.Random(11)
        kinds = set()
        for d in range(3, 13):
            values = range(-(d + 2), d + 3)
            for k in range(1, d):
                for _ in range(draws):
                    gamma = sorted(draw.choices(values, k=d - k), reverse=True)
                    delta = sorted(draw.choices(values, k=k), reverse=True)
                    if not any(gamma):
                        continue
                    out = bwb_single(d, k, gamma, delta)
                    kind = "zero" if out.is_zero else "nonzero"
                    beta = None if out.is_zero else out.weight.entries
                    kinds.add((kind, out.degree == 0))
                    assert (kind, out.degree, beta, out.repeated_value) == dotted_action(
                        d, k, gamma, delta
                    ), (d, k, gamma, delta)
        assert kinds == {("zero", False), ("nonzero", True), ("nonzero", False)}

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bwb_single(5, 0, (), (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            bwb_single(5, 2, (0, 0), (0, 0))  # K-weight too short
        with pytest.raises(ValueError):
            bwb_single(5, 2, (0, 0, 0), (0, 1))  # increasing

    def test_json_shapes(self):
        zero = bwb_single(5, 2, (0, 0, 0), (1, 0))
        assert zero.to_json() == {"kind": "zero", "repeated_value": 3}
        live = bwb_single(5, 2, (0, 0, 0), (0, 0))
        data = live.to_json()
        assert data["kind"] == "nonzero" and data["degree"] == 0 and data["dim"] == 1

    def test_str(self):
        assert "Zero" in str(bwb_single(5, 2, (0, 0, 0), (1, 0)))
        assert "degree 0" in str(bwb_single(5, 2, (0, 0, 0), (0, 0)))


class TestVanishingThreshold:
    """S^delta Q^v with trivial K vanishes on G(k,d) exactly when d >= its threshold.

    The reference is the full dotted action, not ``bwb_single``, whose
    trivial-K shortcut is this same interval rule.
    """

    @staticmethod
    def _matches_the_dotted_action(k, delta, dims):
        t = vanishing_threshold(k, Weight(delta))
        for d in dims:
            zero = dotted_action(d, k, (0,) * (d - k), delta)[0] == "zero"
            assert zero == (d >= t), (d, k, delta, t)
        return t

    def test_rank_two_grid(self):
        thresholds = {
            self._matches_the_dotted_action(2, (x, y), range(3, 26)) for x in range(-8, 25) for y in range(-8, x + 1)
        }
        # every threshold from G(2,3) to G(2,26), and bundles that never vanish
        assert thresholds == {float("inf"), *range(3, 27)}

    def test_every_rank_at_small_d(self):
        for k in range(1, 6):
            values = range(k + 3, -3, -1)
            for delta in itertools.combinations_with_replacement(values, k):
                self._matches_the_dotted_action(k, delta, range(k + 1, 10))

    def test_the_witness_is_not_the_threshold(self):
        # at d = 9 both of (5,4)'s values 7 and 5 lie in 3..9: bwb_single
        # names the first, 7, while the bundle vanishes from d = 5 on
        assert vanishing_threshold(2, weight(5, 4)) == 5
        assert bwb_single(9, 2, trivial(7), (5, 4)).repeated_value == 7


class TestBundleExpr:
    def test_from_qdual_and_rank(self):
        e = RepElement.schur(2, (2, 0)) + RepElement.schur(2, (1, 1))
        bundle = BundleExpr.from_qdual(5, 2, e)
        assert bundle_rank(bundle) == 3 + 1

    def test_tensor_matches_rank_product(self):
        a = BundleExpr.from_qdual(5, 2, RepElement.schur(2, (2, 0)))
        b = BundleExpr.from_qdual(5, 2, RepElement.schur(2, (1, 0)))
        prod = a.tensor(b)
        assert bundle_rank(prod) == bundle_rank(a) * bundle_rank(b)

    def test_dual_involution(self):
        omega = BundleExpr(5, 2, {(Weight((1, 0, 0)), Weight((1, 0))): 1})
        assert omega.dual().dual() == omega
        # factor by factor, the dual of the representation ring
        mixed = BundleExpr(
            5, 2, {(weight(2, 0, -1), weight(3, -2)): 2, (trivial(3), weight(1, 1)): 1}
        )
        expected = {}
        for (g, q), c in mixed.terms.items():
            (gd,) = dual(RepElement.schur(3, g)).terms
            (qd,) = dual(RepElement.schur(2, q)).terms
            expected[(gd, qd)] = c
        assert mixed.dual().terms == expected

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            BundleExpr(5, 2, {(Weight((1, 0)), Weight((1, 0))): 1})

    def test_from_qdual_rejects_an_element_of_another_rank(self):
        with pytest.raises(ValueError, match="^element rank must equal the quotient rank k$"):
            BundleExpr.from_qdual(5, 2, RepElement.schur(3, (1, 0, 0)))

    def test_tensor_rejects_another_grassmannian(self):
        a = BundleExpr.from_qdual(5, 2, RepElement.schur(2, (1, 0)))
        for other in (BundleExpr.from_qdual(6, 2, RepElement.schur(2, (1, 0))),
                      BundleExpr.from_qdual(5, 3, RepElement.schur(3, (1, 0, 0)))):
            with pytest.raises(ValueError, match="^bundles live on different Grassmannians$"):
                a.tensor(other)

    def test_rejects_bad_k(self):
        for k in (0, 5):
            with pytest.raises(ValueError, match="need 1 <= k <= d-1"):
                BundleExpr(5, k, {})


class TestCohomology:
    def test_cotangent_endomorphisms_on_grassmannian(self):
        # End of the cotangent bundle of G(k,d): the trivial rep in degree 0,
        # plus the traceless adjoint in degree 1 unless G(k,d) is a projective space
        for d in range(2, 9):
            for k in range(1, d):
                omega = BundleExpr(d, k, {(weight(1, *(0,) * (d - k - 1)), weight(1, *(0,) * (k - 1))): 1})
                coh = cohomology(omega.tensor(omega.dual()))
                expected = {0: RepElement.one(d)}
                if 2 <= k <= d - 2:
                    expected[1] = RepElement.schur(d, (1,) + (0,) * (d - 2) + (-1,))
                assert coh.groups == expected, (k, d)
                if (k, d) == (2, 5):
                    assert coh.dimensions() == {0: 1, 1: 24}

    def test_zero_object(self):
        coh = cohomology(BundleExpr(5, 2, {}))
        assert coh.is_zero() and str(coh) == "0" and coh.dimensions() == {}

    def test_rejects_virtual(self):
        virtual = BundleExpr(5, 2, {(trivial(3), Weight((1, 0))): -1})
        with pytest.raises(ValueError):
            cohomology(virtual)

    def test_graded_equality_and_json(self):
        g = GradedCohomology(5, {0: RepElement.one(5)})
        assert g == GradedCohomology(5, {0: RepElement.one(5)})
        data = g.to_json()
        assert data["dims"] == {"0": 1}

    def test_cohomology_matches_single_outcomes_grouped_by_degree(self):
        # zero and nonzero outcomes in several degrees, some with multiplicity
        omega = BundleExpr(5, 2, {(Weight((1, 0, 0)), Weight((1, 0))): 1})
        ends = omega.tensor(omega.dual()).terms
        lines = {(trivial(3), Weight(q)): c for q, c in [((4, -2), 3), ((1, 0), 2), ((5, 5), 1)]}
        summands = list(ends.items()) + list(lines.items())
        for order in (summands, summands[::-1]):
            groups = {}
            for (g, q), c in order:
                outcome = bwb_single(5, 2, g, q)
                if not outcome.is_zero:
                    term = RepElement.schur(5, outcome.weight).scaled(c)
                    groups[outcome.degree] = groups.get(outcome.degree, RepElement.zero(5)) + term
            assert cohomology(BundleExpr(5, 2, dict(order))) == GradedCohomology(5, groups)
        outcomes = [bwb_single(5, 2, g, q) for (g, q), _ in summands]
        assert {o.degree for o in outcomes} >= {None, 0, 1}
        assert max(c for _, c in summands) > 1
