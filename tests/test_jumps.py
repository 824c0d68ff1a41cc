"""Linear extensions: validation, jump times, pit counts, the rank-sorted order."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from gridext import (
    ExactSampler,
    GridShape,
    InvalidExtensionError,
    LinearExtension,
    enumerate_index_orders,
    jump_times,
    pits_counts,
    rank_lex_indices,
    read_extensions_file,
    write_extensions_file,
)

RANK_LEX_3X3 = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3)]


class TestValidation:
    def test_accepts_valid(self, diamond):
        ext = LinearExtension(diamond, (0, 2, 1, 3))
        assert [diamond.coords_of(v) for v in ext.indices] == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_rejects_order_violation(self, diamond):
        with pytest.raises(InvalidExtensionError) as exc:
            LinearExtension(diamond, (1, 0, 2, 3))
        assert exc.value.position == 1  # 1-based time of the offending point

    def test_rejects_non_bijection(self, diamond):
        with pytest.raises(InvalidExtensionError):
            LinearExtension(diamond, (0, 1, 1, 3))
        with pytest.raises(InvalidExtensionError):
            LinearExtension(diamond, (0, 1, 2))
        with pytest.raises(InvalidExtensionError):
            LinearExtension(diamond, (0, 1, 2, 4))

    @pytest.mark.parametrize(
        "lengths, indices, message",
        [
            ((2, 2), (1, 0, 2, 3), "point (1, 2) at time 1 precedes its lower cover (1, 1)"),
            ((3, 3), (4, 0, 1, 2, 3, 5, 6, 7, 8), "point (2, 2) at time 1 precedes its lower cover (1, 2)"),
            ((3, 3), (0, 1, 4, 3, 2, 5, 6, 7, 8), "point (2, 2) at time 3 precedes its lower cover (2, 1)"),
            ((2, 2), (0, 0, 1, 2), "point (1, 1) repeated at time 2"),
            ((2, 2), (0, 1, 2, 4), "index 4 at time 4 out of range 0..3"),
        ],
    )
    def test_messages_name_the_lowest_missing_cover(self, lengths, indices, message):
        with pytest.raises(InvalidExtensionError) as exc:
            LinearExtension(GridShape(lengths), indices)
        assert str(exc.value) == message

    def test_validation_builds_no_cover_masks(self):
        # lower_cover_masks holds a size-bit int per point: 2^15 points would cost about 80 MB.
        shape = GridShape((2,) * 15)
        LinearExtension(shape, rank_lex_indices(shape))
        assert "lower_cover_masks" not in shape.__dict__

    def test_from_points_and_lines(self, diamond):
        indices = tuple(diamond.index_of(c) for c in [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert indices == (0, 1, 2, 3)
        assert LinearExtension.from_line(diamond, " 0 1  2 3\n") == LinearExtension(diamond, indices)

    def test_from_line_rejects_garbage(self, diamond):
        with pytest.raises(InvalidExtensionError):
            LinearExtension.from_line(diamond, "(1,1) (1,2) (2,1) (2,2)")


class TestJumps:
    def test_diamond_profiles(self, diamond):
        # both extensions of the diamond jump exactly once, at time 2
        for idxs in [(0, 1, 2, 3), (0, 2, 1, 3)]:
            assert jump_times(diamond, idxs) == (2,)

    def test_rank_lex_3x3(self, square3):
        indices = rank_lex_indices(square3)
        assert [square3.coords_of(v) for v in indices] == RANK_LEX_3X3
        assert jump_times(square3, indices) == (2, 3, 4, 5, 6, 7)

    def test_chain_never_jumps(self):
        s = GridShape((5,))
        assert jump_times(s, (0, 1, 2, 3, 4)) == ()

    def test_boundary_times_never_jump(self, cube2):
        for idxs in enumerate_index_orders(cube2):
            ts = jump_times(cube2, idxs)
            assert 1 not in ts and 7 not in ts

    def test_degree_counts_non_covers(self, square3, square3_orders):
        # spot-check: jump count == number of consecutive incomparable pairs
        for idxs in square3_orders[::7]:
            manual = sum(
                0 if _is_cover(square3, a, b) else 1
                for a, b in itertools.pairwise(idxs)
            )
            assert len(jump_times(square3, idxs)) == manual

    @given(st.data())
    def test_jumps_are_incomparable_pairs(self, data):
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        shape = GridShape(tuple(lengths))
        coords = shape.coords_table

        def below(u, v):
            return all(x <= y for x, y in zip(coords[u], coords[v]))

        # a random extension: repeatedly place one drawn minimal point of the rest
        order, rest = [], set(range(shape.size))
        while rest:
            minimal = sorted(v for v in rest if not any(u != v and below(u, v) for u in rest))
            v = data.draw(st.sampled_from(minimal))
            order.append(v)
            rest.remove(v)
        expected = tuple(
            k for k in range(1, len(order)) if not (below(order[k - 1], order[k]) or below(order[k], order[k - 1]))
        )
        assert jump_times(shape, order) == expected


def _is_cover(shape, a, b):
    xa, xb = shape.coords_of(a), shape.coords_of(b)
    diffs = [v - u for u, v in zip(xa, xb)]
    return all(d >= 0 for d in diffs) and sum(diffs) == 1


class TestPits:
    def test_diamond_sequence(self, diamond):
        assert pits_counts(diamond, (0, 1, 2, 3)) == (2, 1, 1, 0)

    def test_last_value_zero(self, square3, square3_orders):
        for idxs in square3_orders[::5]:
            seq = pits_counts(square3, idxs)
            assert len(seq) == 9 and seq[-1] == 0

    def test_matches_downset_recount(self, square3):
        idxs = rank_lex_indices(square3)
        seq = pits_counts(square3, idxs)
        for k in range(1, 10):
            prefix = sum(1 << v for v in idxs[:k])
            assert seq[k - 1] == square3.pit_mask(prefix).bit_count()

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda ls: math.prod(ls) <= 24),
        st.integers(0, 2**64 - 1),
    )
    def test_incremental_counts_match_pit_masks(self, lengths, seed):
        shape = GridShape(lengths)
        order = ExactSampler(shape, seed).sample_indices()
        expected, placed = [], 0
        for v in order:
            placed |= 1 << v
            expected.append(shape.pit_mask(placed).bit_count())
        assert pits_counts(shape, order) == tuple(expected)


class TestRankWalks:
    def test_rank_lex_indices_any_shape(self):
        s = GridShape((2, 3))
        idxs = rank_lex_indices(s)
        ranks = [s.rank_table[i] for i in idxs]
        assert ranks == sorted(ranks)
        LinearExtension(s, idxs)  # must validate

    def test_rank_lex_degree_extremal(self, extreme_graphs):
        graphs, _ = extreme_graphs
        for (m, n), graph in graphs.items():
            s = GridShape.equilateral(m, n)
            idxs = rank_lex_indices(s)
            LinearExtension(s, idxs)  # must validate
            assert len(jump_times(s, idxs)) == m**n - 3 == graph.degrees.max()


class TestFiles:
    def test_round_trip(self, tmp_path, square3, square3_orders):
        exts = [LinearExtension(square3, idxs) for idxs in square3_orders[:5]]
        path = tmp_path / "exts.txt"
        write_extensions_file(path, exts)
        back = read_extensions_file(path, square3)
        assert back == exts

    def test_read_rejects_non_ascii_by_line(self, tmp_path, diamond):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1 2 3\n\n0 2 1 3 \xc3\xa9\n")
        with pytest.raises(InvalidExtensionError, match=r"^line 3: non-ASCII byte 0xc3$"):
            read_extensions_file(path, diamond)

    def test_read_rejects_invalid_order(self, tmp_path, diamond):
        path = tmp_path / "bad.txt"
        path.write_text("0 3 1 2\n")
        with pytest.raises(InvalidExtensionError):
            read_extensions_file(path, diamond)
