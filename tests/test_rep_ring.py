import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurbott import rep_ring
from schurbott.partitions import Weight
from schurbott.rep_ring import (
    CharPoly,
    DecompositionError,
    RepElement,
    char_of,
    decompose,
    dual,
    ext_power,
    lr_coefficients,
    schur_char,
    sym_power,
    tensor,
    weyl_dim,
)
from young import from_hook, to_hook, transpose, weight


def S(rank, *entries):
    return RepElement.schur(rank, entries)


def partitions_of(n, max_rows):
    """All partitions of n with at most max_rows rows."""
    out = []

    def rec(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_rows:
            return
        for v in range(min(cap, remaining), 0, -1):
            prefix.append(v)
            rec(prefix, remaining - v, v)
            prefix.pop()

    rec([], n, n)
    return out


small_partition = st.lists(
    st.integers(min_value=0, max_value=3), min_size=3, max_size=3
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def assert_canonical(char):
    """Exponent vectors strictly increasing (sorted, no repeats) and no zero coefficient."""
    exponents = [e for e, _ in char.coeffs]
    assert exponents == sorted(set(exponents))
    assert all(c != 0 for _, c in char.coeffs)


class TestWeylDim:
    def test_standard_reps(self):
        assert weyl_dim(weight(1, 0, 0)) == 3
        assert weyl_dim(weight(2, 0, 0)) == 6
        assert weyl_dim(weight(1, 1, 0)) == 3
        assert weyl_dim(weight(2, 1, 0)) == 8
        assert weyl_dim(weight(1, 1, 1)) == 1

    def test_dual_invariance(self):
        w = weight(3, 1, -2)
        assert weyl_dim(w) == weyl_dim(weight(2, -1, -3))

    @pytest.mark.parametrize("n", [*range(2, 12), 400])
    def test_closed_forms(self, n):
        a = 398
        zeros = (0,) * (n - 2)
        assert weyl_dim(Weight((1, *zeros, -1))) == n * n - 1
        assert weyl_dim(Weight((a, *zeros, 0))) == comb(n + a - 1, a)
        assert weyl_dim(Weight((a, *zeros, -1))) == n * comb(n + a - 1, a) - comb(n + a - 2, a - 1)

    def test_matches_character_count(self):
        for p in [(1,), (2,), (2, 1), (3, 1), (2, 2)]:
            padded = p + (0,) * (3 - len(p))
            char = schur_char(Weight(padded))
            assert sum(c for _, c in char.coeffs) == weyl_dim(Weight(padded))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_shifted_character(self, rank):
        # entries in [-2, 2]: a negative last entry takes the determinant shift
        for entries in itertools.product(range(2, -3, -1), repeat=rank):
            if list(entries) != sorted(entries, reverse=True):
                continue
            char = schur_char(Weight(entries))
            assert_canonical(char)
            assert sum(c for _, c in char.coeffs) == weyl_dim(Weight(entries))
            m = -min(0, entries[-1])
            if m:
                unshifted = schur_char(Weight(tuple(e + m for e in entries)))
                assert char.coeffs == tuple((tuple(x - m for x in e), c) for e, c in unshifted.coeffs)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_cancelling_product(self, rank):
        # (p - 1)(p + 1) = p^2 - 1 for p = x_1 + ... + x_rank and for its dual:
        # the degree +-1 terms cancel and must not be stored as zeros
        std, one = S(rank, 1), RepElement.one(rank)
        for a in (std, dual(std)):
            x, y = a - one, a + one
            product = char_of(x) * char_of(y)
            assert_canonical(product)
            assert {abs(sum(e)) for e, _ in product.coeffs} == {0, 2}
            assert sum(c for _, c in product.coeffs) == x.dimension() * y.dimension()
            assert product.coeffs == char_of(tensor(x, y)).coeffs



class TestLR:
    def test_symmetry(self):
        # equal sizes, so neither call swaps its factors: two different fillings
        for n in (4, 5):
            for a, b in itertools.product(partitions_of(n, 4), repeat=2):
                for max_rows in (4, 5, 6):
                    assert lr_coefficients(a, b, max_rows) == lr_coefficients(b, a, max_rows), (a, b)

    def test_lr_matches_character_oracle(self):
        for rank in (1, 2, 3, 4):
            shapes = [p for n in range(6) for p in partitions_of(n, rank)]
            for a, b in itertools.product(shapes, repeat=2):
                x = S(rank, *a + (0,) * (rank - len(a)))
                y = S(rank, *b + (0,) * (rank - len(b)))
                assert tensor(x, y) == decompose(char_of(x) * char_of(y)), (rank, a, b)

    def test_conjugated_orientation_matches_character_oracle(self):
        # tall factors (parts <= 3, more rows than columns) make lr_coefficients
        # place the conjugates, whose row cap becomes a first-row cap.  Pairs
        # with more rows in total than the rank drop rows past it; they run up
        # to 10 boxes, the others up to 6, which keeps the characters small
        for rank in range(4, 9):
            tall = [p for n in range(2, 7) for p in partitions_of(n, rank) if p[0] <= 3 and p[0] < len(p)]
            dropped = 0
            for a, b in itertools.combinations_with_replacement(tall, 2):
                if sum(a) + sum(b) > (10 if len(a) + len(b) > rank else 6):
                    continue
                x = S(rank, *a + (0,) * (rank - len(a)))
                y = S(rank, *b + (0,) * (rank - len(b)))
                assert tensor(x, y) == decompose(char_of(x) * char_of(y)), (rank, a, b)
                dropped += lr_coefficients(a, b, rank) != lr_coefficients(a, b, len(a) + len(b))
            assert dropped, rank

    def test_both_orders_share_one_computation_unless_sizes_tie(self):
        # tensor passes the larger factor first, so a pair's two orders are
        # one cache entry; factors of equal size keep one entry per order
        for a, b, misses, hits in (((2, 1, 0), (1, 0, 0), 1, 1), ((2, 0, 0), (1, 1, 0), 2, 0)):
            lr_coefficients.cache_clear()
            assert tensor(S(3, *a), S(3, *b)) == tensor(S(3, *b), S(3, *a))
            info = lr_coefficients.cache_info()
            assert (info.misses, info.hits) == (misses, hits), (a, b)

    def test_lattice_golden(self):
        # s21 * s21 = s42 + s411 + s33 + 2 s321 + s3111 + s222 + s2211
        full = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 1, 1): 1}
        for rank in (3, 4):
            expected = RepElement(
                rank, {Weight(nu + (0,) * (rank - len(nu))): c for nu, c in full.items() if len(nu) <= rank}
            )
            assert tensor(S(rank, 2, 1), S(rank, 2, 1)) == expected

    def test_pieri_symmetric_golden(self):
        result = tensor(S(3, 2, 1, 0), S(3, 2, 0, 0))
        expected = (
            S(3, 4, 1, 0) + S(3, 3, 2, 0) + S(3, 3, 1, 1) + S(3, 2, 2, 1)
        )
        assert result == expected

    def test_pieri_exterior_golden(self):
        result = tensor(S(3, 2, 1, 0), S(3, 1, 1, 0))
        expected = S(3, 3, 2, 0) + S(3, 3, 1, 1) + S(3, 2, 2, 1)
        assert result == expected

    def test_pieri_horizontal_strips(self):
        # independent brute force: adding m boxes, no two in one column
        rank, m = 3, 2
        base = (3, 1, 0)
        got = tensor(S(rank, *base), S(rank, m, 0, 0))
        shapes = set()
        for adds in itertools.product(range(m + 1), repeat=rank):
            if sum(adds) != m:
                continue
            new = tuple(b + a for b, a in zip(base, adds))
            if any(x < y for x, y in zip(new, new[1:])):
                continue
            # distinct columns: new row i cannot pass old row i-1
            if any(new[i] > base[i - 1] for i in range(1, rank)):
                continue
            shapes.add(new)
        expected = RepElement(rank, {Weight(s): 1 for s in shapes})
        assert got == expected

    def test_rows_beyond_rank_vanish(self):
        # (1,1) x (1,1) over GL_2 keeps only the flat shape
        assert tensor(S(2, 1, 1), S(2, 1, 1)) == S(2, 2, 2)

    def test_schur_beyond_rank(self):
        # zero rows past the rank are dropped; a third nonzero row vanishes
        assert S(2, 1, 0, 0) == S(2, 1, 0)
        assert S(2, 1, 1, 1).is_zero()
        with pytest.raises(ValueError):
            S(2, 1, 0, -1)

    @pytest.mark.parametrize("rank", [-2, -1, 0])
    def test_schur_rejects_a_non_positive_rank(self, rank):
        # a negative rank must not index the weight's rows from the end
        with pytest.raises(ValueError, match="^rank must be positive$"):
            RepElement.schur(rank, (1,))
        with pytest.raises(ValueError, match="^rank must be positive$"):
            RepElement.schur(rank, (1, 1, 0))

    def test_negative_entries_via_det_shift(self):
        got = tensor(S(2, 1, 0), S(2, 0, -1))
        assert got == S(2, 1, -1) + S(2, 0, 0)
        assert got.dimension() == 4

    def test_clebsch_gordan_matches_the_character_oracle(self):
        weights = [w for w in itertools.product(range(4, -5, -1), repeat=2) if w[0] >= w[1]]
        for a, b in itertools.product(weights, repeat=2):
            x, y = S(2, *a), S(2, *b)
            assert tensor(x, y) == decompose(char_of(x) * char_of(y)), (a, b)

    def test_clebsch_gordan_matches_the_character_oracle_with_multiplicities(self):
        x = S(2, 3, 1) + S(2, 0, -2).scaled(2) - S(2, 1, 1)
        y = S(2, 2, 0).scaled(3) + S(2, -1, -3) + S(2, 4, 4)
        for a, b in ((x, y), (y, x), (x, x), (x, RepElement.zero(2))):
            assert tensor(a, b) == decompose(char_of(a) * char_of(b))
        # the S(1,0) terms cancel
        got = tensor(S(2, 1, 0) - S(2, 0, 0), S(2, 1, 0) + S(2, 0, 0))
        assert got == S(2, 2, 0) + S(2, 1, 1) - S(2, 0, 0)


class TestRingLaws:
    @given(small_partition, small_partition)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, a, b):
        x, y = S(3, *a), S(3, *b)
        assert tensor(x, y) == tensor(y, x)

    @given(small_partition, small_partition, small_partition)
    @settings(max_examples=25, deadline=None)
    def test_associative(self, a, b, c):
        x, y, z = S(3, *a), S(3, *b), S(3, *c)
        assert tensor(tensor(x, y), z) == tensor(x, tensor(y, z))

    @given(small_partition, small_partition, small_partition)
    @settings(max_examples=25, deadline=None)
    def test_distributive(self, a, b, c):
        x, y, z = S(3, *a), S(3, *b), S(3, *c)
        assert tensor(x, y + z) == tensor(x, y) + tensor(x, z)

    def test_unit_and_zero(self):
        x = S(3, 2, 1, 0)
        assert tensor(x, RepElement.one(3)) == x
        assert tensor(x, RepElement.zero(3)).is_zero()

    @given(small_partition, small_partition)
    @settings(max_examples=40, deadline=None)
    def test_dimension_multiplicative(self, a, b):
        x, y = S(3, *a), S(3, *b)
        assert tensor(x, y).dimension() == x.dimension() * y.dimension()


class TestDual:
    def test_reverses_and_negates(self):
        assert dual(S(3, 4, 2, 1)) == S(3, -1, -2, -4)
        assert weight(4, 2, 1).dual() == weight(-1, -2, -4)

    def test_involution(self):
        x = S(3, 4, 2, 1) + S(3, 1, 0, -2).scaled(2)
        assert dual(dual(x)) == x
        assert all(w.dual().dual() == w for w in x.terms)

    @given(small_partition, small_partition)
    @settings(max_examples=30, deadline=None)
    def test_ring_homomorphism(self, a, b):
        x, y = S(3, *a), S(3, *b)
        assert dual(tensor(x, y)) == tensor(dual(x), dual(y))


class TestCharacterOracle:
    def test_oracle_agrees_with_lr(self):
        for a, b in itertools.product(partitions_of(4, 3), partitions_of(3, 3)):
            x = RepElement.schur(3, a + (0,) * (3 - len(a)))
            y = RepElement.schur(3, b + (0,) * (3 - len(b)))
            assert char_of(tensor(x, y)).coeffs == (char_of(x) * char_of(y)).coeffs

    def test_oracle_agrees_with_lr_on_negative_weights(self):
        # entries in [-2, 2]: the weights with a negative entry take the determinant shift
        for rank in (2, 3):
            weights = [
                w
                for w in itertools.product(range(2, -3, -1), repeat=rank)
                if list(w) == sorted(w, reverse=True)
            ]
            for a, b in itertools.product(weights, repeat=2):
                x, y = S(rank, *a), S(rank, *b)
                assert char_of(tensor(x, y)).coeffs == (char_of(x) * char_of(y)).coeffs

    @pytest.mark.parametrize("k", [1, 5, 24, 99])
    def test_column_characters(self, k):
        # S(1^k) at rank k + 1 is e_k: every exponent vector with one 0.  A
        # filling that does not look ahead tries about 2^(k+1) columns here.
        char = schur_char(Weight((1,) * k + (0,)))
        expected = sorted(tuple(int(i != j) for i in range(k + 1)) for j in range(k + 1))
        assert char.coeffs == tuple((e, 1) for e in expected)

    @pytest.mark.parametrize("length", [1, 50, 2000])
    def test_row_characters(self, length):
        char = schur_char(Weight((length, 0)))
        assert char.coeffs == tuple(((i, length - i), 1) for i in range(length + 1))

    def test_decompose_inverts_char(self):
        x = S(3, 3, 1, 0) + S(3, 2, 2, 2).scaled(2)
        assert decompose(char_of(x)) == x

    def test_decompose_rejects_non_character(self):
        bad = CharPoly.from_counter(2, {(0, 1): 1})
        with pytest.raises(ValueError, match="non-increasing"):
            decompose(bad)

    def test_power_rejects_virtual_peel(self, monkeypatch):
        virtual = char_of(S(2, 1, 0) - S(2, 1, 1))
        assert decompose(virtual) == S(2, 1, 0) - S(2, 1, 1)
        monkeypatch.setattr(rep_ring, "decompose", lambda c: S(2, 1, 0) - S(2, 1, 1))
        for power in (ext_power, sym_power):
            with pytest.raises(DecompositionError):
                power(S(3, 1, 0, 0), 2)

    def test_full_column_at_rank_400(self):
        # the deepest Gelfand-Tsetlin recursion the CLI's rank bound allows
        assert schur_char(Weight((1,) * 400)).coeffs == (((1,) * 400, 1),)


def even_rows(p):
    return all(e % 2 == 0 for e in p)


def hook_shapes(n, offset, max_rows):
    """Partitions of n whose hooks (u | v) all satisfy u_i = v_i + offset."""
    out = []
    for p in partitions_of(n, max_rows):
        u, v = to_hook(Weight(p))
        if all(a == b + offset for a, b in zip(u, v)):
            out.append(p)
    return out


class TestPlethysm:
    def test_sym_of_sym_closed_form(self):
        # S^m(S^2 V) is the sum over even-row partitions of 2m
        for rank in (2, 3):
            for m in (1, 2, 3):
                expected = RepElement(
                    rank,
                    {
                        Weight(p + (0,) * (rank - len(p))): 1
                        for p in partitions_of(2 * m, rank)
                        if even_rows(p)
                    },
                )
                assert sym_power(S(rank, *([2] + [0] * (rank - 1))), m) == expected

    def test_sym_of_ext_closed_form(self):
        # S^m(L^2 V) is the sum over even-column partitions of 2m
        for rank in (3, 4):
            for m in (1, 2):
                expected = RepElement(
                    rank,
                    {
                        Weight(p + (0,) * (rank - len(p))): 1
                        for p in partitions_of(2 * m, rank)
                        if even_rows(transpose(Weight(p)).entries)
                    },
                )
                e2 = S(rank, *([1, 1] + [0] * (rank - 2)))
                assert sym_power(e2, m) == expected

    def test_ext_of_sym_closed_form(self):
        # L^m(S^2 V): hooks with arm one longer than leg
        for rank in (2, 3):
            for m in (1, 2, 3):
                expected = RepElement(
                    rank,
                    {
                        Weight(p + (0,) * (rank - len(p))): 1
                        for p in hook_shapes(2 * m, 1, rank)
                    },
                )
                assert ext_power(S(rank, *([2] + [0] * (rank - 1))), m) == expected

    def test_ext_of_ext_closed_form(self):
        # L^m(L^2 V): hooks with leg one longer than arm
        for rank in (3, 4):
            for m in (1, 2):
                expected = RepElement(
                    rank,
                    {
                        Weight(p + (0,) * (rank - len(p))): 1
                        for p in hook_shapes(2 * m, -1, rank)
                    },
                )
                e2 = S(rank, *([1, 1] + [0] * (rank - 2)))
                assert ext_power(e2, m) == expected

    def test_rank_two_fibre_goldens(self):
        assert ext_power(S(2, 2, 0), 3) == S(2, 3, 3)
        assert ext_power(S(2, 2, 0), 2) == S(2, 3, 1)
        assert sym_power(S(2, 2, 0), 2) == S(2, 4, 0) + S(2, 2, 2)

    def test_top_exterior_power_is_determinant(self):
        std = S(3, 1, 0, 0)
        assert ext_power(std, 3) == S(3, 1, 1, 1)
        assert ext_power(std, 2) == S(3, 1, 1, 0)
        assert ext_power(std, 4).is_zero()

    def test_lambda_ring_sum_rule(self):
        # L^m(a + b) = sum of L^i(a) x L^j(b) over i + j = m
        a, b = S(2, 2, 0), S(2, 1, 1)
        total = a + b
        for m in range(1, 4):
            expected = RepElement.zero(2)
            for i in range(m + 1):
                expected = expected + tensor(ext_power(a, i), ext_power(b, m - i))
            assert ext_power(total, m) == expected

    def test_sym_sum_rule(self):
        a, b = S(2, 1, 0), S(2, 2, 0)
        total = a + b
        for m in range(1, 4):
            expected = RepElement.zero(2)
            for i in range(m + 1):
                expected = expected + tensor(sym_power(a, i), sym_power(b, m - i))
            assert sym_power(total, m) == expected

    def test_binomial_dimensions(self):
        x = S(3, 2, 1, 0)  # dimension 8
        for m in range(4):
            assert ext_power(x, m).dimension() == comb(8, m)
            assert sym_power(x, m).dimension() == comb(8 + m - 1, m)

    def test_rejects_virtual_input(self):
        with pytest.raises(ValueError):
            ext_power(S(2, 1, 0) - S(2, 0, 0), 2)


class TestSerialization:
    def test_schema_fields(self):
        data = S(2, 1, 0).to_json()
        assert data == {"rank": 2, "terms": [{"weight": [1, 0], "coeff": 1}]}

    def test_repr_sorted(self):
        x = S(2, 1, 1) + S(2, 2, 0)
        assert repr(x) == "S(2,0) + S(1,1)"


def hook_content_dim(p, rank):
    """dim s_p(rank) = prod over boxes (rank + j - i) / hook(i, j), independent of Weyl."""
    cols = transpose(Weight(p)).entries
    value = Fraction(1)
    for i, row in enumerate(p):
        for j in range(row):
            hook = (row - j) + (cols[j] - i) - 1
            value *= Fraction(rank + j - i, hook)
    return value


def test_hook_content_formula_cross_check():
    # rank 4 exhaustively at 5 boxes, then a few shapes at ranks 50, 200, 400
    cases = [(4, partitions_of(5, 4))]
    cases.append((50, [(1,), (3, 2, 1), (7, 7, 5, 2), (1,) * 50, (2,) * 25 + (1,) * 20]))
    cases.append((200, [(1,) * 199, (9, 4, 4, 1), (398,), (3,) * 100 + (1,) * 50]))
    cases.append((400, [(398,), (1,) * 200, (5, 3, 1), (2,) * 150 + (1,) * 150]))
    for rank, shapes in cases:
        for p in shapes:
            dim = weyl_dim(Weight(p + (0,) * (rank - len(p))))
            assert type(dim) is int and dim == hook_content_dim(p, rank), (rank, p)


def weyl_product(entries):
    """The Weyl dimension formula as one Fraction product over every pair i < j."""
    value = Fraction(1)
    for i, j in itertools.combinations(range(len(entries)), 2):
        value *= Fraction(entries[i] - entries[j] + j - i, j - i)
    return value


@pytest.mark.parametrize("rank", [5, 11, 50, 200])
def test_weyl_dim_with_negative_entries_at_large_rank(rank):
    # entries in [-3, 3] and one long positive and negative row: an int equal
    # to the plain product, and equal for the dual weight
    draw = random.Random(rank)
    weights = [tuple(sorted((draw.randint(-3, 3) for _ in range(rank)), reverse=True)) for _ in range(4)]
    weights.append((rank,) + (0,) * (rank - 2) + (-rank,))
    for entries in weights:
        w = Weight(entries)
        dim = weyl_dim(w)
        assert type(dim) is int and dim == weyl_product(entries), entries
        assert weyl_dim(w.dual()) == dim


def test_from_hook_consistency_with_plethysm():
    # the m = 2 hooks used by the closed forms, written explicitly
    assert from_hook((3,), (2,)) == weight(3, 1)
    assert from_hook((2,), (3,)) == weight(2, 1, 1)
