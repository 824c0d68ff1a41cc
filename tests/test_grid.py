"""Poset layer: indexing contract, cover relations, rank counts."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridext import DomainError, GridShape, max_antichain_size, whitney_numbers

shapes_st = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda ls: GridShape(tuple(ls))
)


@st.composite
def shape_and_indices(draw, k=2):
    shape = draw(shapes_st)
    idx = [draw(st.integers(0, shape.size - 1)) for _ in range(k)]
    return (shape, *idx)


@st.composite
def shape_and_downset(draw):
    """A shape plus a random down-set: the down-closure of a few drawn tops."""
    shape = draw(shapes_st)
    tops = draw(st.lists(st.integers(0, shape.size - 1), max_size=4))
    coords = shape.coords_table
    members = {
        v for v in range(shape.size) if any(all(x <= y for x, y in zip(coords[v], coords[t])) for t in tops)
    }
    return shape, members


def below(coords_u, coords_v):
    """The componentwise order on coordinate vectors: u <= v."""
    return all(x <= y for x, y in zip(coords_u, coords_v))


def covered(coords_u, coords_v):
    """v covers u: v = u + e_j for a single coordinate j."""
    diffs = [y - x for x, y in zip(coords_u, coords_v)]
    return all(d >= 0 for d in diffs) and sum(diffs) == 1


def brute_whitney(shape):
    counts = Counter(
        1 + sum(c - 1 for c in coords)
        for coords in itertools.product(*[range(1, a + 1) for a in shape.lengths])
    )
    return tuple(counts[r] for r in range(1, shape.num_ranks + 1))


class TestShape:
    def test_size_and_ranks(self):
        s = GridShape((3, 4, 2))
        assert s.size == 24
        assert s.num_ranks == 7
        assert str(s) == "3x4x2"

    def test_equilateral(self):
        s = GridShape.equilateral(3, 2)
        assert s.lengths == (3, 3)
        assert s.is_equilateral
        assert not GridShape((2, 3)).is_equilateral
        with pytest.raises(DomainError, match="at least one chain"):
            GridShape.equilateral(3, 0)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            GridShape(())

    def test_rejects_non_iterable(self):
        with pytest.raises(DomainError, match="iterable of ints"):
            GridShape(5)

    @pytest.mark.parametrize("lengths", [(2.7, 3), (3.0,), "33", ("3", "3")])
    def test_rejects_non_integral_lengths(self, lengths):
        # 2.7 is not read as 2, nor the string "33" as 3x3
        with pytest.raises(DomainError, match="iterable of ints"):
            GridShape(lengths)

    @pytest.mark.parametrize("m, n", [(2.9, 2), (3, 2.5), (3, 2.0), (2.9, 2.5)])
    def test_equilateral_rejects_non_integral_arguments(self, m, n):
        with pytest.raises(DomainError):
            GridShape.equilateral(m, n)

    def test_numpy_integers_are_lengths(self):
        assert GridShape((np.int64(3), np.uint8(2))).lengths == (3, 2)
        assert GridShape.equilateral(np.int32(3), np.int64(2)) == GridShape((3, 3))
        assert all(type(a) is int for a in GridShape((np.int64(3),)).lengths)

    def test_rejects_nonpositive_chain(self):
        with pytest.raises(DomainError):
            GridShape((2, 0))
        with pytest.raises(DomainError):
            GridShape((-1,))

    def test_singleton(self):
        s = GridShape((1,))
        assert s.size == 1
        assert whitney_numbers(s) == (1,)

    def test_degenerate_chain_factor(self):
        # a length-1 factor is a no-op: [1]x[5] is just a 5-chain
        s = GridShape((1, 5))
        assert s.size == 5
        assert whitney_numbers(s) == (1, 1, 1, 1, 1)


class TestIndexing:
    def test_last_coordinate_fastest(self):
        s = GridShape((2, 3))
        table = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        for i, coords in enumerate(table):
            assert s.index_of(coords) == i
            assert s.coords_of(i) == coords

    def test_strides(self):
        s = GridShape((3, 4, 2))
        assert s.strides == (8, 2, 1)
        assert s.index_of((2, 3, 1)) == 1 * 8 + 2 * 2 + 0

    @given(shape_and_indices(k=1))
    def test_round_trip(self, si):
        shape, i = si
        assert shape.index_of(shape.coords_of(i)) == i

    def test_points_in_index_order(self):
        s = GridShape((2, 2))
        assert [s.index_of(c) for c in s.coords_table] == [0, 1, 2, 3]

    def test_point_validation(self):
        s = GridShape((2, 3))
        with pytest.raises(DomainError):
            s.index_of((3, 1))
        with pytest.raises(DomainError):
            s.index_of((1,))
        with pytest.raises(DomainError):
            s.coords_of(6)
        with pytest.raises(DomainError):
            s.coords_of(-1)


class TestOrder:
    def test_covers_examples(self):
        # lower_covers[q] lists the points q covers
        s = GridShape((3, 3))
        lower = s.lower_covers
        assert s.index_of((1, 1)) in lower[s.index_of((1, 2))]
        assert s.index_of((1, 1)) in lower[s.index_of((2, 1))]
        assert s.index_of((1, 1)) not in lower[s.index_of((2, 2))]
        assert s.index_of((1, 1)) not in lower[s.index_of((1, 3))]
        assert s.index_of((1, 2)) not in lower[s.index_of((1, 1))]

    @given(shapes_st)
    def test_covers_implies_rank_step(self, shape):
        coords, ranks = shape.coords_table, shape.rank_table
        for b, downs in enumerate(shape.lower_covers):
            for a in downs:
                assert below(coords[a], coords[b]) and ranks[b] == ranks[a] + 1

    @given(shape_and_indices(k=1))
    def test_leq_is_componentwise(self, si):
        # The covers generate the order: walking down lower_covers from v
        # reaches exactly the points componentwise below v.  The extension
        # validator relies on this, as it checks lower covers only.
        shape, v = si
        seen, stack = {v}, [v]
        while stack:
            fresh = set(shape.lower_covers[stack.pop()]) - seen
            seen |= fresh
            stack.extend(fresh)
        coords = shape.coords_table
        assert seen == {u for u in range(shape.size) if below(coords[u], coords[v])}

    @given(shape_and_indices(k=2))
    def test_cover_arrays_match_coordinates(self, sij):
        shape, a, b = sij
        up, step = shape.cover_arrays
        got = bool(up[b] & step[b - a + shape.size])
        expected = covered(shape.coords_of(a), shape.coords_of(b))
        assert got == expected == (a in shape.lower_covers[b]) == (b in shape.upper_covers[a])

    @given(shape_and_downset())
    def test_pit_mask_matches_coordinates(self, sd):
        # a pit is a point outside the down-set with every point below it inside
        shape, members = sd
        coords = shape.coords_table
        expected = {
            v
            for v in range(shape.size)
            if v not in members
            and all(u in members for u in range(shape.size) if u != v and all(x <= y for x, y in zip(coords[u], coords[v])))
        }
        mask = shape.pit_mask(sum(1 << v for v in members))
        assert {v for v in range(shape.size) if mask >> v & 1} == expected

    @given(shape_and_downset())
    def test_reflection_maps_pits_to_tops(self, reflect, sd):
        # x_j -> a_j + 1 - x_j on every point: an involution that maps the
        # pits of a down-set D onto the tops of the down-set full ^ reflect(D)
        shape, members = sd
        coords = shape.coords_table
        bits = sum(1 << v for v in members)
        image = reflect(shape, bits)
        assert image.bit_count() == len(members)
        assert reflect(shape, image) == bits
        # a maximal point of full ^ image is a member with no other member above it
        rest = {v for v in range(shape.size) if not image >> v & 1}
        tops = {
            v for v in rest if not any(u != v and all(x <= y for x, y in zip(coords[v], coords[u])) for u in rest)
        }
        assert sum(1 << v for v in tops) == reflect(shape, shape.pit_mask(bits))

    def test_up_degree(self):
        s = GridShape((3, 3))
        assert len(s.upper_covers[s.index_of((1, 1))]) == 2
        assert len(s.upper_covers[s.index_of((3, 3))]) == 0
        assert len(s.upper_covers[s.index_of((1, 3))]) == 1

    def test_cover_tables(self):
        s = GridShape((2, 2))
        assert sorted(s.upper_covers[0]) == [1, 2]
        assert sorted(s.lower_covers[3]) == [1, 2]
        assert s.lower_cover_masks[3] == 0b0110


class TestWhitney:
    def test_examples(self):
        assert whitney_numbers(GridShape((3, 3))) == (1, 2, 3, 2, 1)
        assert whitney_numbers(GridShape((2, 2, 2))) == (1, 3, 3, 1)
        assert whitney_numbers(GridShape((2, 3))) == (1, 2, 2, 1)

    @given(shapes_st)
    @settings(deadline=None)
    def test_against_enumeration(self, shape):
        assert whitney_numbers(shape) == brute_whitney(shape)

    @given(shapes_st)
    def test_partition_symmetry_unimodality(self, shape):
        ws = whitney_numbers(shape)
        assert sum(ws) == shape.size
        assert ws == ws[::-1]
        peak = ws.index(max(ws))
        assert all(ws[i] <= ws[i + 1] for i in range(peak))
        assert all(ws[i] >= ws[i + 1] for i in range(peak, len(ws) - 1))

    def test_max_antichain_is_middle_level(self):
        for m, n in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
            s = GridShape.equilateral(m, n)
            ws = whitney_numbers(s)
            mid = (n * (m - 1)) // 2
            assert max_antichain_size(s) == ws[mid] == max(ws)

    @given(shapes_st)
    def test_sperner_bound(self, shape):
        # size/num_ranks <= width: ranks partition into antichains
        assert max_antichain_size(shape) * shape.num_ranks >= shape.size


class TestRankLevels:
    @given(shapes_st)
    def test_partition_and_order(self, shape):
        # rank_table puts every point on one of the levels 1..num_ranks
        assert shape.rank_table == tuple(1 + sum(x - 1 for x in c) for c in shape.coords_table)
        assert set(shape.rank_table) == set(range(1, shape.num_ranks + 1))

    @given(shapes_st)
    def test_level_sizes_match_whitney(self, shape):
        levels = Counter(shape.rank_table)
        assert tuple(levels[r] for r in range(1, shape.num_ranks + 1)) == whitney_numbers(shape)
