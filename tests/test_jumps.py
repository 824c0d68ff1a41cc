"""Linear extensions: validation, jump times, pit counts, the rank-sorted order."""

import io
import itertools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridext import (
    ExactSampler,
    GridShape,
    InvalidExtensionError,
    LinearExtension,
    enumerate_index_orders,
    jump_pit_block,
    jump_pit_blocks,
    jump_times,
    pits_counts,
    rank_lex_indices,
    read_extensions_file,
    write_extensions_file,
)
from gridext import jumps, sampling
from gridext.cli import main

small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda ls: math.prod(ls) <= 24)

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

    @pytest.mark.parametrize(
        "indices, message, position",
        [
            ((0, 2.7, 1, 3), "index 2.7 at time 2 is not an integer", 2),
            (("a", 2, 1, 3), "index 'a' at time 1 is not an integer", 1),
        ],
    )
    def test_rejects_non_integral_entries(self, diamond, indices, message, position):
        # A float is not truncated to an index, and a string is not parsed.
        with pytest.raises(InvalidExtensionError) as exc:
            LinearExtension(diamond, indices)
        assert (str(exc.value), exc.value.position) == (message, position)

    def test_accepts_numpy_integers(self, diamond):
        ext = LinearExtension(diamond, np.array([0, 2, 1, 3]))
        assert ext.indices == (0, 2, 1, 3) and all(type(v) is int for v in ext.indices)

    def test_validation_builds_no_cover_masks(self):
        # lower_cover_masks holds a size-bit int per point: 2^15 points would cost about 80 MB.
        shape = GridShape((2,) * 15)
        LinearExtension(shape, rank_lex_indices(shape))
        assert "lower_cover_masks" not in shape.__dict__

    def test_from_points_and_lines(self, diamond):
        indices = tuple(diamond.index_of(c) for c in [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert indices == (0, 1, 2, 3)
        assert LinearExtension.from_line(diamond, " 0 1  2 3\n") == LinearExtension(diamond, indices)
        # Numerals with a 0 past the first digit are plain numerals.
        chain = GridShape((21,))
        assert LinearExtension.from_line(chain, " ".join(map(str, range(21)))).indices == tuple(range(21))

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


class TestBlockKernel:
    @given(small_shapes, st.integers(0, 2**64 - 1), st.integers(1, 12))
    @example([1], 0, 3)
    @example([5], 1, 2)
    @example([1] * 62 + [2, 2], 0, 2)  # 64 chains: only those of length > 1 are grid axes
    @settings(deadline=None)
    def test_rows_match_per_order_reference(self, lengths, seed, rows):
        shape = GridShape(lengths)
        sampler = ExactSampler(shape, seed)
        orders = [sampler.sample_indices() for _ in range(rows)]
        jumps, pits = jump_pit_block(shape, orders)
        assert jumps.shape == (rows, shape.size - 1) and pits.shape == (rows, shape.size)
        for order, flags, counts in zip(orders, jumps.tolist(), pits.tolist()):
            assert tuple(k for k, jump in enumerate(flags, start=1) if jump) == jump_times(shape, order)
            assert tuple(counts) == pits_counts(shape, order)

    def test_blocks_keep_stream_order(self, square3, square3_orders):
        # 455 rows of 3x3 fit a block: the 42 orders, repeated, span three.
        orders = list(square3_orders) * 30
        blocks = list(jump_pit_blocks(square3, orders))
        assert [len(pits) for _, pits in blocks] == [455, 455, 350]
        assert [tuple(row) for _, pits in blocks for row in pits.tolist()] == [
            pits_counts(square3, order) for order in orders
        ]


class TestCutter:
    def test_array_gives_views_in_order(self):
        items = np.arange(14).reshape(7, 2)
        blocks = list(jumps._blocks(items, 3))
        assert [block.tolist() for block in blocks] == [items[:3].tolist(), items[3:6].tolist(), items[6:].tolist()]
        assert all(np.shares_memory(block, items) for block in blocks)

    def test_generator_gives_lists_read_once(self):
        reads = []

        def items():
            for i in range(7):
                reads.append(i)
                yield i

        blocks = jumps._blocks(items(), 3)
        assert next(blocks) == [0, 1, 2] and reads == [0, 1, 2]  # no read ahead
        assert list(blocks) == [[3, 4, 5], [6]]
        assert reads == list(range(7))

    @pytest.mark.parametrize("items", [np.empty((0, 4)), [], iter(())], ids=["array", "list", "iterator"])
    def test_empty_input_gives_no_block(self, items):
        assert list(jumps._blocks(items, 3)) == []


class TestRankWalks:
    def test_rank_lex_indices_any_shape(self):
        s = GridShape((2, 3))
        idxs = rank_lex_indices(s)
        ranks = [s.rank_table[i] for i in idxs]
        assert ranks == sorted(ranks)
        LinearExtension(s, idxs)  # must validate

    @given(small_shapes)
    def test_rank_lex_is_sorted_by_rank_then_coordinates(self, lengths):
        s = GridShape(lengths)
        by_key = sorted(range(s.size), key=lambda v: (s.rank_table[v], s.coords_table[v]))
        assert rank_lex_indices(s) == tuple(by_key)

    def test_rank_lex_degree_extremal(self, extreme_graphs):
        graphs, _ = extreme_graphs
        for (m, n), graph in graphs.items():
            s = GridShape.equilateral(m, n)
            idxs = rank_lex_indices(s)
            LinearExtension(s, idxs)  # must validate
            assert len(jump_times(s, idxs)) == m**n - 3 == graph.degrees.max()


class TestFiles:
    @pytest.mark.parametrize(
        "orders",
        [
            [(0, 1, 2, 3), (0, 2, 1, 3)],
            [[0, 1, 2, 3], [0, 2, 1, 3]],
            np.array([[0, 1, 2, 3], [0, 2, 1, 3]], dtype=np.int32),
            np.array([[0, 1, 2, 3], [0, 2, 1, 3]], dtype=np.int64),
            [(0,)],
            list(itertools.islice(enumerate_index_orders(GridShape((4, 4))), 50)),
        ],
        ids=["tuples", "lists", "int32", "int64", "one-point", "4x4"],
    )
    def test_writer_bytes(self, orders):
        # The label list gives the bytes str() gives, one line per order.
        fh = io.StringIO()
        assert jumps.write_index_orders(fh, orders) == len(orders)
        assert fh.getvalue() == "".join(" ".join(map(str, order)) + "\n" for order in orders)

    def test_writer_empty_stream(self):
        fh = io.StringIO()
        assert jumps.write_index_orders(fh, iter(())) == 0
        assert fh.getvalue() == ""

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

    @pytest.mark.parametrize("line", ["0 +2 1 3", "0 02 1 3", "0 1_0 2 3", "00 1 2 3"])
    def test_read_rejects_tokens_int_would_take(self, tmp_path, diamond, line):
        # A sign, a leading zero or an underscore: int() reads them, the format has none.
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1 2 3\n{line}\n")
        with pytest.raises(InvalidExtensionError) as exc:
            read_extensions_file(path, diamond)
        assert str(exc.value) == f"line 2: malformed extension line: '{line}'"

    def test_adjacent_zeros_are_a_repeat_not_malformed(self, tmp_path, diamond):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 1 3\n")
        with pytest.raises(InvalidExtensionError) as exc:
            read_extensions_file(path, diamond)
        assert (str(exc.value), exc.value.position) == ("line 1: point (1, 1) repeated at time 2", 2)

    def test_read_rejects_invalid_order(self, tmp_path, diamond):
        path = tmp_path / "bad.txt"
        path.write_text("0 3 1 2\n")
        with pytest.raises(InvalidExtensionError):
            read_extensions_file(path, diamond)


def read_line_by_line(path, shape):
    """The per-line reader, an oracle for read_extensions_file: every line
    parsed and validated on its own by LinearExtension.from_line."""
    out = []
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                raise InvalidExtensionError(f"line {lineno}: non-ASCII byte 0x{byte:02x}")
            if line := line.strip():
                try:
                    out.append(LinearExtension.from_line(shape, line))
                except InvalidExtensionError as exc:
                    raise InvalidExtensionError(f"line {lineno}: {exc}", position=exc.position) from exc
    return out


def read_outcome(read, path, shape):
    try:
        return [ext.indices for ext in read(path, shape)]
    except InvalidExtensionError as exc:
        return str(exc), exc.position


class TestBlockReader:
    @given(
        lengths=st.sampled_from([(3, 3), (2, 2, 2), (1, 4), (4,), (2, 3, 2), (1,), (4, 4, 4)]),
        seed=st.integers(0, 2**32),
        count=st.integers(1, 40),
        block_entries=st.sampled_from([1, 16, 64, 1 << 12]),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=200)
    def test_first_error_matches_per_line_oracle(self, shared_tables, lengths, seed, count, block_entries, data):
        # One corrupted token in a file of valid lines, read in blocks of
        # 1 to 455 rows: the same extensions, or the same first error.
        shape = GridShape(lengths)
        with mock.patch.object(sampling, "completion_counts", shared_tables):  # one table per shape
            sampler = ExactSampler(shape, seed)
        lines = [" ".join(map(str, sampler.sample_indices())) for _ in range(count)]
        row = data.draw(st.integers(0, count - 1))
        toks = lines[row].split()
        col = data.draw(st.integers(0, len(toks) - 1))
        toks[col] = data.draw(
            st.one_of(
                st.integers(0, shape.size + 1).map(str),
                st.sampled_from(toks).map(lambda t: f"{t} {t}"),
                # A looser parser takes several of these; no point is written as any of them.
                st.sampled_from(
                    ["", "01", "-1", "x", "\u00e9", str(2**63), "9" * 30]
                    + ["+1", "1_0", "0x1", "1.0", "-0", "\uff11", str(shape.size)]
                ),
            )
        )
        lines[row] = " ".join(toks)
        lines.insert(data.draw(st.integers(0, count)), "")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exts.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with mock.patch.object(jumps, "_BLOCK_ENTRIES", block_entries):
                got = read_outcome(read_extensions_file, path, shape)
            assert got == read_outcome(read_line_by_line, path, shape)

    def test_refused_block_is_read_again_line_by_line(self, tmp_path, square3, square3_orders):
        # A block that _block_orders refuses is read again through
        # LinearExtension.from_line: valid lines come back as the same
        # int64 orders, in blocks of ten rows.
        path = tmp_path / "exts.txt"
        path.write_text("".join(" ".join(map(str, order)) + "\n" for order in square3_orders))
        with mock.patch.object(jumps, "_BLOCK_ENTRIES", 10 * square3.size):
            expected = list(jumps._read_blocks(path, square3))
            with mock.patch.object(jumps, "_block_orders", lambda *_: None):
                got = list(jumps._read_blocks(path, square3))
        assert [len(block) for block in expected] == [10, 10, 10, 10, 2]
        assert len(got) == len(expected)
        for block, want in zip(got, expected):
            assert block.dtype == want.dtype == np.int64 and np.array_equal(block, want)

    @pytest.mark.parametrize(
        "bad, error",
        [
            # The top point's index past the range: clipped, the row would be valid.
            ("0 1 2 4", ("line 3: index 4 at time 4 out of range 0..3", 4)),
            ("0 1 2 99999999999999999999", ("line 3: index 99999999999999999999 at time 4 out of range 0..3", 4)),
            ("0 1 1 3", ("line 3: point (1, 2) repeated at time 3", 3)),
            ("0 1 3 2", ("line 3: point (2, 2) at time 3 precedes its lower cover (2, 1)", 3)),
            ("0 1 2", ("line 3: expected 4 points for shape 2x2, got 3", None)),
        ],
    )
    @pytest.mark.parametrize("block_entries", [4, 8, 1 << 12])
    def test_bad_line_among_valid_ones(self, tmp_path, diamond, bad, error, block_entries):
        # Line 3 of five, in blocks of one, two or all five rows.
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1 2 3\n0 2 1 3\n{bad}\n0 1 2 3\n0 2 1 3\n")
        with mock.patch.object(jumps, "_BLOCK_ENTRIES", block_entries):
            assert read_outcome(read_extensions_file, path, diamond) == error
        assert read_outcome(read_line_by_line, path, diamond) == error

    def test_earlier_bad_order_before_later_malformed_line(self, tmp_path, diamond):
        # Both lines sit in one block: the order error on line 2 is found
        # when the malformed line 4 stops the block, and comes first.
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n0 3 1 2\n0 2 1 3\n0 x 1 3\n")
        with pytest.raises(InvalidExtensionError) as exc:
            read_extensions_file(path, diamond)
        assert (str(exc.value), exc.value.position) == ("line 2: point (2, 2) at time 2 precedes its lower cover (1, 2)", 2)

    @pytest.mark.parametrize("lengths, count", [((3, 3), 2000), ((4, 4, 4), 300)])
    def test_commands_print_oracle_bytes(self, capsys, tmp_path, shared_tables, lengths, count):
        # jumps and pits on a file of five blocks print the bytes they print
        # when handed the per-line oracle's orders as one block; a bad line
        # in the second block exits 2 with the oracle's message.
        shape = GridShape(lengths)
        with mock.patch.object(sampling, "completion_counts", shared_tables):
            sampler = ExactSampler(shape, 5)
        lines = [" ".join(map(str, sampler.sample_indices())) for _ in range(count)]
        path = tmp_path / "exts.txt"
        path.write_text("\n".join(lines) + "\n")
        oracle = np.array([ext.indices for ext in read_line_by_line(path, shape)])
        for argv in (["jumps"], ["pits"], ["pits", "--mean"]):
            for fmt in ("csv", "json"):
                args = [*argv, "--shape", str(shape), "--in", str(path), "--format", fmt]
                assert main(args) == 0
                got = capsys.readouterr()
                # The oracle's orders as one validated block.
                with mock.patch.object(jumps, "_read_blocks", lambda *_: iter([oracle])):
                    assert main(args) == 0
                assert got == capsys.readouterr()
        bad = jumps._block_rows(shape) + 7  # a line of the second block
        toks = lines[bad - 1].split()
        toks[2] = toks[1]
        lines[bad - 1] = " ".join(toks)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidExtensionError) as exc:
            read_line_by_line(path, shape)
        assert str(exc.value).startswith(f"line {bad}: point ")
        for argv in (["jumps"], ["pits", "--mean"]):
            assert main([*argv, "--shape", str(shape), "--in", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {exc.value}\n")

    def test_blocks_read_back_as_written(self, tmp_path):
        # 300 4x4x4 lines span five blocks of 64 rows.
        shape = GridShape((4, 4, 4))
        sampler = ExactSampler(shape, 3)
        orders = [sampler.sample_indices() for _ in range(300)]
        path = tmp_path / "exts.txt"
        write_extensions_file(path, (LinearExtension(shape, order) for order in orders))
        back = read_extensions_file(path, shape)
        assert [ext.indices for ext in back] == orders
        assert back == read_line_by_line(path, shape)
