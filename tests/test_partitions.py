import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurbott.partitions import Weight, parse_weight, precedes, sort_key
from young import from_hook, to_hook, transpose, weight


def box_partitions(rows, cols):
    """All partitions with at most `rows` rows inscribed in a rows x cols box."""
    shapes = []
    for entries in itertools.product(range(cols + 1), repeat=rows):
        if all(a >= b for a, b in zip(entries, entries[1:])):
            shapes.append(Weight(entries))
    return shapes


class TestWeight:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match=r"^weight entries must be non-increasing: \(1, 2\)$"):
            Weight((1, 2))
        entries = (5,) * 13 + (6,)
        with pytest.raises(ValueError) as info:
            Weight(entries)
        assert str(info.value) == f"weight entries must be non-increasing: {entries}"
        assert Weight(entries[:-1] + (-6,)).rank == 14

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^a weight needs at least one entry$"):
            Weight(())

    def test_rejects_non_integral_entries(self):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            Weight((1.5, 0))
        with pytest.raises(TypeError):
            Weight(("3", "1"))

    def test_entries_are_plain_ints(self):
        w = Weight((True, False))
        assert w.entries == (1, 0) and type(w.entries[0]) is int

    def test_negative_entries_allowed(self):
        w = weight(3, -1)
        assert w.rank == 2 and w.size == 2 and not w.is_partition()

    def test_padded_rejects_a_smaller_rank_and_negative_entries(self):
        assert weight(2, 1).padded(4) == weight(2, 1, 0, 0)
        with pytest.raises(ValueError, match="^cannot pad to a smaller rank$"):
            weight(2, 1, 0).padded(2)
        with pytest.raises(ValueError, match="^cannot pad a weight with negative entries$"):
            weight(2, -1).padded(3)

    def test_parse(self):
        assert parse_weight("3,-1") == weight(3, -1)
        with pytest.raises(ValueError):
            parse_weight("a,b")


class TestTranspose:
    def test_self_conjugate_hook(self):
        assert transpose(weight(2, 1)) == weight(2, 1)

    def test_three_rows_of_two(self):
        assert transpose(weight(2, 2, 2)) == weight(3, 3)

    def test_column_count_oracle(self):
        # brute-force column counts over the diagram's cells
        p = weight(4, 1)
        cols = [0] * 4
        for i, r in enumerate(p.entries):
            for j in range(r):
                cols[j] += 1
        assert transpose(p).entries == tuple(cols)
        assert transpose(p) == weight(2, 1, 1, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            transpose(weight(1, -1))

    def test_involution(self):
        for p in box_partitions(3, 4):
            if p.is_zero():
                continue
            stripped = tuple(e for e in p.entries if e > 0)
            assert transpose(transpose(p)).entries == stripped


class TestHooks:
    def test_small_hook_values(self):
        assert from_hook((1,), (2,)) == weight(1, 1)
        assert from_hook((2, 1), (3, 2)) == weight(2, 2, 2)
        assert from_hook((2,), (3,)) == weight(2, 1, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            from_hook((1, 2), (3, 2))
        with pytest.raises(ValueError):
            from_hook((2, 1), (3,))
        with pytest.raises(ValueError):
            from_hook((0,), (1,))

    def test_roundtrip(self):
        for p in box_partitions(4, 4):
            if p.is_zero():
                continue
            u, v = to_hook(p)
            assert from_hook(u, v).entries == tuple(e for e in p.entries if e > 0)


class TestCompare:
    def test_more_boxes_first(self):
        assert precedes(weight(2, 2), weight(1, 1))
        assert not precedes(weight(1, 1), weight(2, 2))

    def test_reflexive(self):
        assert not precedes(weight(2, 1), weight(2, 1))
        assert sort_key(weight(2, 1)) == sort_key(weight(2, 1))

    def test_lex_tiebreak(self):
        assert precedes(weight(3, 1), weight(2, 2))

    def test_total_order_on_box(self):
        # exhaustive antisymmetry / transitivity / totality inside a 2x4 box
        shapes = box_partitions(2, 4)
        keys = [sort_key(p) for p in shapes]
        assert len(set(keys)) == len(keys)
        for a, b in itertools.product(shapes, repeat=2):
            # exactly one of: a first, b first, a == b
            assert [precedes(a, b), precedes(b, a), a == b].count(True) == 1
            if precedes(a, b):
                assert b.size <= a.size
        for a, b, c in itertools.product(shapes, repeat=3):
            if precedes(a, b) and precedes(b, c):
                assert precedes(a, c)


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5).map(
        lambda xs: Weight(tuple(sorted(xs, reverse=True)))
    )
)
def test_transpose_involution_property(p):
    stripped = tuple(e for e in p.entries if e > 0)
    if not stripped:
        return
    assert transpose(transpose(p)).entries == stripped
