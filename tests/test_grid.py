"""Poset layer: indexing contract, cover relations, rank counts."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gridext import (
    DomainError,
    GridShape,
    Point,
    ShapeMismatchError,
    covers,
    leq,
    max_antichain_size,
    rank_levels,
    up_degree,
    whitney_numbers,
)

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

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            GridShape(())

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
        assert [p.index for p in s.points()] == [0, 1, 2, 3]

    def test_point_validation(self):
        s = GridShape((2, 3))
        with pytest.raises(DomainError):
            Point(s, (3, 1))
        with pytest.raises(DomainError):
            Point(s, (1,))
        with pytest.raises(DomainError):
            s.point_at(6)


class TestOrder:
    def test_leq_examples(self):
        s = GridShape((3, 3))
        assert leq(s.point((1, 2)), s.point((2, 2)))
        assert not leq(s.point((2, 1)), s.point((1, 3)))
        assert leq(s.point((2, 2)), s.point((2, 2)))

    def test_covers_examples(self):
        # covers(q, p) reads "q covers p"
        s = GridShape((3, 3))
        assert covers(s.point((1, 2)), s.point((1, 1)))
        assert covers(s.point((2, 1)), s.point((1, 1)))
        assert not covers(s.point((2, 2)), s.point((1, 1)))
        assert not covers(s.point((1, 3)), s.point((1, 1)))
        assert not covers(s.point((1, 1)), s.point((1, 2)))

    def test_shape_mismatch(self):
        a = GridShape((2, 2)).point((1, 1))
        b = GridShape((2, 3)).point((1, 1))
        with pytest.raises(ShapeMismatchError):
            leq(a, b)

    @given(shape_and_indices(k=2))
    def test_covers_implies_rank_step(self, sij):
        shape, i, j = sij
        x, y = shape.point_at(i), shape.point_at(j)
        if covers(y, x):
            assert leq(x, y) and y.rank == x.rank + 1

    @given(shape_and_indices(k=2))
    def test_leq_is_componentwise(self, sij):
        shape, i, j = sij
        x, y = shape.point_at(i), shape.point_at(j)
        expected = all(a <= b for a, b in zip(x.coords, y.coords))
        assert leq(x, y) == expected

    @given(shape_and_indices(k=2))
    def test_cover_arrays_match_coordinates(self, sij):
        shape, a, b = sij
        up, step = shape.cover_arrays
        got = bool(up[b] & step[b - a + shape.size])
        assert got == covers(shape.point_at(b), shape.point_at(a)) == (a in shape.lower_covers[b])

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
    def test_top_mask_matches_coordinates(self, sd):
        # a maximal point is a member with no other member above it
        shape, members = sd
        coords = shape.coords_table
        expected = {
            v
            for v in members
            if not any(u != v and all(x <= y for x, y in zip(coords[v], coords[u])) for u in members)
        }
        mask = shape.top_mask(sum(1 << v for v in members))
        assert {v for v in range(shape.size) if mask >> v & 1} == expected

    @given(shape_and_downset())
    def test_reflect_matches_coordinates(self, sd):
        # x_j -> a_j + 1 - x_j on every point: an involution that maps the
        # pits of a down-set D onto the tops of the down-set full ^ reflect(D)
        shape, members = sd
        coords = shape.coords_table
        flipped = {shape.index_of(tuple(a + 1 - x for a, x in zip(shape.lengths, coords[v]))) for v in members}
        bits = sum(1 << v for v in members)
        image = shape.reflect(bits)
        assert image == sum(1 << v for v in flipped)
        assert shape.reflect(image) == bits
        full = (1 << shape.size) - 1
        assert shape.top_mask(full ^ image) == shape.reflect(shape.pit_mask(bits))

    def test_up_degree(self):
        s = GridShape((3, 3))
        assert up_degree(s.point((1, 1))) == 2
        assert up_degree(s.point((3, 3))) == 0
        assert up_degree(s.point((1, 3))) == 1

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
    def test_partition_and_order(self, square3):
        levels = rank_levels(square3)
        seen = []
        for level in levels:
            assert all(p.rank == level.rank for p in level.members)
            idxs = [p.index for p in level.members]
            assert idxs == sorted(idxs)
            seen.extend(idxs)
        assert sorted(seen) == list(range(square3.size))

    def test_level_sizes_match_whitney(self, cube2):
        levels = rank_levels(cube2)
        assert tuple(len(lv.members) for lv in levels) == whitney_numbers(cube2)
