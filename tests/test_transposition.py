"""Enumeration, swap graphs, exhaustive degree statistics."""

import functools
import itertools
import math
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridext import (
    DomainError,
    ExactSampler,
    GridShape,
    LinearExtension,
    ResourceCapError,
    backtracking_count,
    build_graph,
    count_extensions,
    entropy_profile_exact,
    enumerate_index_orders,
    exact_pits_deficit_fractions,
    exhaustive_mean_degree,
    graph_stats,
    jump_times,
    pits_counts,
    pits_threshold,
    to_dot,
)
from gridext import counting, transposition
from gridext.transposition import order_ids, swap_table

# Shapes of at most 10 points, chains of length 1 included.
small_shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(
    lambda lengths: math.prod(lengths) <= 10
).map(GridShape)


# Shapes of at most about 3000 extensions, chains of length 1 and unequal chains included.
enumerable_shapes = (
    st.lists(st.integers(1, 8), min_size=1, max_size=4)
    .filter(lambda lengths: math.prod(lengths) <= 16)
    .map(GridShape)
    .filter(lambda shape: count_extensions(shape) <= 3000)
)


@functools.lru_cache(maxsize=None)
def dfs_orders(shape):
    """Reference for the block enumerator: every extension as an index
    tuple, one order at a time.  Depth-first over pit choices, read through
    GridShape.pit_mask; taking the pits in increasing index order makes the
    output lexicographic.  The search keeps its own stack: per level, the
    pits not yet tried there."""
    size = shape.size
    out = []
    prefix: list[int] = []
    untried = [shape.pit_mask(0)]
    placed = 0
    while untried:
        rest = untried[-1]
        if not rest:
            untried.pop()
            if prefix:
                placed ^= 1 << prefix.pop()
            continue
        low = rest & -rest
        untried[-1] = rest ^ low
        prefix.append(low.bit_length() - 1)
        if len(prefix) < size:
            placed |= low
            untried.append(shape.pit_mask(placed))
        else:
            out.append(tuple(prefix))
            prefix.pop()
    return tuple(out)


def swap_oracle(shape):
    """Every extension, and per extension its (k, neighbour id) pairs in
    increasing k: each jump pair swapped and the result looked up."""
    orders = list(enumerate_index_orders(shape))
    position = {o: i for i, o in enumerate(orders)}
    swaps = [
        [(k, position[o[: k - 1] + (o[k], o[k - 1]) + o[k + 1 :]]) for k in jump_times(shape, o)]
        for o in orders
    ]
    return orders, swaps


class TestEnumeration:
    def test_diamond(self, diamond):
        orders = list(enumerate_index_orders(diamond))
        assert orders == [(0, 1, 2, 3), (0, 2, 1, 3)]

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @given(enumerable_shapes)
    @settings(deadline=None, max_examples=30)
    def test_blocks_match_the_reference(self, rows, shape):
        # Blocks of one to three prefixes split every expansion, so the
        # stack order decides the output order; None keeps the default size.
        block_rows = transposition._block_rows if rows is None else lambda shape: rows
        with mock.patch.object(transposition, "_block_rows", block_rows):
            assert tuple(enumerate_index_orders(shape)) == dfs_orders(shape)

    def test_graph_orders_match_the_reference(self):
        shape = GridShape((5, 3))
        orders = build_graph(shape).orders
        assert orders.dtype == np.int32
        assert orders.tolist() == [list(o) for o in dfs_orders(shape)]

    def test_lexicographic_order(self, square3, square3_orders):
        assert list(square3_orders) == sorted(square3_orders)
        assert len(square3_orders) == 42
        assert len(set(square3_orders)) == 42

    def test_all_valid(self, square3, square3_orders):
        for idxs in square3_orders:
            LinearExtension(square3, idxs)

    def test_orders_as_extensions(self, diamond):
        exts = [LinearExtension(diamond, o) for o in enumerate_index_orders(diamond)]
        assert all(isinstance(e, LinearExtension) for e in exts)
        assert len(exts) == 2

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_index_orders(GridShape.equilateral(3, 3), cap=100))
        # 3x3: the rank levels give 24 <= 30 extensions; the exact count, 42, refuses.
        with pytest.raises(ResourceCapError, match="has 42 extensions, above the enumeration cap of 30"):
            enumerate_index_orders(GridShape((3, 3)), cap=30)

    @pytest.mark.parametrize("size", [64, 65, 100, 1000])
    def test_cap_of_one_takes_a_long_chain(self, size):
        # One extension, size + 1 down-sets of ceil(size / 64) words each.
        assert list(enumerate_index_orders(GridShape((size,)), cap=1)) == [tuple(range(size))]

    def test_backtracking_matches_dp(self):
        # 2x2x2x2 (1680384 extensions) and 5x4 (1662804) each take well
        # under a second on blocks of open branches.
        for lengths in [(2, 2), (3, 3), (2, 3), (2, 2, 2), (4, 2), (2, 2, 2, 2), (5, 4)]:
            s = GridShape(lengths)
            assert backtracking_count(s) == count_extensions(s)

    @given(st.lists(st.integers(1, 8), min_size=1, max_size=4).filter(lambda ls: math.prod(ls) <= 16))
    @settings(deadline=None)
    def test_backtracking_property(self, lengths):
        shape = GridShape(lengths)
        assert backtracking_count(shape) == count_extensions(shape)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_backtracking_splits_its_blocks(self, monkeypatch, rows):
        # Blocks of one or two branches: every expansion is pushed in slices.
        monkeypatch.setattr(transposition, "_BACKTRACK_ROWS", rows)
        for lengths in [(3, 3), (2, 2, 2), (4, 3)]:
            s = GridShape(lengths)
            assert backtracking_count(s) == count_extensions(s)

    def test_backtracking_one_and_two_points(self):
        # Chains of any length count 1, past the 64-point word too.
        for lengths in [(1,), (2,), (1, 1), (1, 2), (2, 1, 1), (100,), (1, 100, 1)]:
            assert backtracking_count(GridShape(lengths)) == 1
        with pytest.raises(ResourceCapError):
            backtracking_count(GridShape((2,)), cap=0)

    @pytest.mark.parametrize(
        "lengths, cap, match",
        [
            ((3, 3, 3, 3), None, "more than 64 points"),  # 81 points
            ((2, 33), 2**40, "more than 64 points"),  # 66 points, at least 2^32 extensions
            ((4, 4, 4), None, "more than 10000000 extensions"),  # the rank levels show it
        ],
    )
    def test_backtracking_refuses_before_work(self, lengths, cap, match):
        shape = GridShape(lengths)
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match=match):
            backtracking_count(shape, cap)
        assert time.perf_counter() - t0 < 0.5
        assert "lower_cover_masks" not in shape.__dict__

    @pytest.mark.parametrize("command", [enumerate_index_orders, build_graph, entropy_profile_exact])
    def test_cap_refuses_before_the_dp(self, built, command):
        # 4x4x4 has 232848 down-sets, more than 65 prefixes x 10, and for
        # the entropy profile its rank levels alone show more than 10^5
        # extensions.
        cube = GridShape.equilateral(4, 3)
        with pytest.raises(ResourceCapError, match="enumeration cap"):
            command(cube) if command is entropy_profile_exact else command(cube, cap=10)
        assert built == []

    def test_astronomic_shapes_refuse_at_once(self):
        # Far past 2^17 points the rank levels are not listed; the lattice
        # bound, (10^20 + 1)(10^20 + 2) / 2 down-sets, refuses at once.
        with pytest.raises(ResourceCapError, match="has more than 1000000 extensions"):
            enumerate_index_orders(GridShape((10**20, 2)))

    @given(small_shapes, st.sampled_from([-1, 0, 1, 2, 5, 10, 42, 100, 10**3]))
    @settings(deadline=None)
    def test_lists_iff_the_count_is_within_the_cap(self, shape, cap):
        count = count_extensions(shape)
        try:
            orders = list(enumerate_index_orders(shape, cap))
        except ResourceCapError as exc:
            assert count > cap
            assert f"above the enumeration cap of {cap}" in str(exc)
        else:
            assert len(orders) == count <= cap

    def test_non_chain_past_the_rank_level_limit(self):
        # 2x10^8: more than 2^17 points, so the rank levels are not listed,
        # and its (10^8 + 2 choose 2) down-sets fit (size + 1) x cap
        # prefixes; its 10^8 - 1 inner levels are each 2 wide.
        with pytest.raises(ResourceCapError, match="above the enumeration cap of 100000000"):
            enumerate_index_orders(GridShape((2, 10**8)), cap=10**8)

    @given(
        st.lists(st.integers(1, 8), min_size=1, max_size=6)
        .filter(lambda lengths: math.prod(lengths) <= 64)
        .map(GridShape)
        .filter(lambda shape: not shape.is_chain),
        st.data(),
    )
    @settings(deadline=None)
    def test_rank_level_refusal_is_the_factorial_product(self, shape, data):
        # The table-free test reads 2^(num_ranks - 2) first and stops each
        # factorial past the cap; on a non-chain it still decides
        # factorial_product_lower_bound(shape) > cap, near that bound too.
        bound = counting.factorial_product_lower_bound(shape)
        cap = data.draw(st.one_of(st.integers(-3, 2**80), st.integers(bound - 2, bound + 2)))
        assert transposition._ranks_exceed(shape, cap) == (bound > cap)

    def test_refusals_sweep(self):
        # Every shape of at most 12 points, chains of length 1 included, at
        # caps around its rank-level bound and its count: enumeration, the
        # graph and the backtracking oracle refuse when the count is over
        # the cap, naming it "more than cap" when the rank levels show it.
        shapes = {
            GridShape(lengths)
            for n in (1, 2, 3)
            for lengths in itertools.product(range(1, 13), repeat=n)
            if math.prod(lengths) <= 12
        }
        for shape in sorted(shapes, key=lambda s: s.lengths):
            count, bound = count_extensions(shape), counting.factorial_product_lower_bound(shape)
            for cap in sorted({-1, 0, 1, 2, 3, bound - 1, bound, bound + 1, count - 1, count, count + 1}) + [None]:
                listed = 10**6 if cap is None else cap
                if shape.is_chain and listed >= 1:
                    refusal = None
                else:
                    total = f"more than {listed}" if bound > listed else count
                    refusal = f"shape {shape} has {total} extensions, above the enumeration cap of {listed}"
                    refusal = refusal if count > listed else None
                for command in (enumerate_index_orders, build_graph):
                    try:
                        listing = command(shape, cap)
                    except ResourceCapError as exc:
                        assert (str(exc), exc.cap) == (refusal, listed), (command, shape, cap)
                    else:
                        assert refusal is None, (command, shape, cap)
                        assert len(list(listing) if command is enumerate_index_orders else listing.orders) == count
                walked = 10**7 if cap is None else cap
                try:
                    assert backtracking_count(shape, cap) == count <= walked, (shape, cap)
                except ResourceCapError as exc:
                    assert count > walked, (shape, cap)
                    message = f"shape {shape} has more than {walked} extensions (backtracking cap)"
                    assert (str(exc), exc.cap) == (message, walked)

    def test_backtracking_cap(self):
        with pytest.raises(ResourceCapError):
            backtracking_count(GridShape.equilateral(3, 2), cap=10)
        # 3x3 (42 extensions) passes the rank levels (24) and stops in the walk.
        with pytest.raises(ResourceCapError, match="more than 30 extensions"):
            backtracking_count(GridShape.equilateral(3, 2), cap=30)


class TestGraph:
    def test_diamond_graph(self, extreme_graphs):
        graphs, _ = extreme_graphs
        g = graphs[(2, 2)]
        assert g.orders.tolist() == [[0, 1, 2, 3], [0, 2, 1, 3]]
        assert g.table.tolist() == [[0, 0, 1, 0], [1, 1, 0, 1]]  # one edge, (0, 1), at k = 2
        assert g.degrees.tolist() == [1, 1]
        assert not g.orders.flags.writeable and not g.table.flags.writeable

    def test_stats_3x3(self, extreme_graphs):
        graphs, _ = extreme_graphs
        stats = graph_stats(graphs[(3, 2)])
        assert stats.vertices == 42
        assert stats.edges == 84
        assert stats.min_degree == 2
        assert stats.max_degree == 6
        assert stats.avg_degree == Fraction(4)
        assert stats.connected

    def test_extremal_degrees(self, extreme_graphs):
        graphs, _ = extreme_graphs
        for (m, n), g in graphs.items():
            stats = graph_stats(g)
            assert stats.max_degree == m**n - 3
            assert stats.min_degree == m ** (n - 1) - 1
            assert stats.connected

    def test_degree_equals_jump_count(self, extreme_graphs):
        graphs, _ = extreme_graphs
        for g in graphs.values():
            for order, deg in zip(g.orders.tolist(), g.degrees.tolist()):
                LinearExtension(g.shape, order)  # must validate
                assert deg == len(jump_times(g.shape, order))

    @given(small_shapes)
    @settings(deadline=None)
    def test_graph_matches_adjacency_sets(self, shape):
        # Oracle: adjacency sets; edges listed from their lower end.
        orders, swaps = swap_oracle(shape)
        adjacent = [{j for _, j in row} for row in swaps]
        edges = [(i, j) for i, row in enumerate(swaps) for _, j in row if j > i]
        degrees = [len(a) for a in adjacent]
        seen, queue = {0}, [0]
        while queue:
            fresh = adjacent[queue.pop()] - seen
            seen |= fresh
            queue.extend(fresh)

        g = build_graph(shape)
        assert g.orders.tolist() == [list(o) for o in orders]
        assert g.degrees.tolist() == degrees
        assert (g.table[g.table, np.arange(shape.size)] == np.arange(len(orders))[:, None]).all()
        stats = graph_stats(g)
        assert (stats.vertices, stats.edges) == (len(orders), len(edges))
        assert (stats.min_degree, stats.max_degree) == (min(degrees), max(degrees))
        assert stats.avg_degree == Fraction(sum(degrees), len(orders))
        assert stats.degree_histogram == dict(sorted(Counter(degrees).items()))
        assert stats.connected == (len(seen) == len(orders))
        labels = [f'  v{i} [label="{" ".join(map(str, o))}"];' for i, o in enumerate(orders)]
        lines = ["graph extensions {", *labels, *(f"  v{i} -- v{j};" for i, j in edges), "}"]
        assert to_dot(g) == "\n".join(lines) + "\n"

    @given(small_shapes)
    @settings(deadline=None)
    def test_swap_table_matches_swapping(self, shape):
        orders, swaps = swap_oracle(shape)
        expected = [[i] * shape.size for i in range(len(orders))]
        for i, row in enumerate(swaps):
            for k, j in row:
                expected[i][k] = j
        array = np.array(orders, dtype=np.int64)
        assert swap_table(shape, array).tolist() == expected
        assert order_ids(array, array[::-1]).tolist() == list(range(len(orders)))[::-1]

    def test_handshake(self, extreme_graphs):
        graphs, _ = extreme_graphs
        for g in graphs.values():
            assert g.degrees.sum() == 2 * (g.table > g.table[:, :1]).sum()

    def test_mean_degree(self, square3):
        assert exhaustive_mean_degree(square3) == Fraction(4)
        assert exhaustive_mean_degree(GridShape((2, 2))) == Fraction(1)

    def test_mean_degree_at_astronomic_size(self, built):
        t0 = time.perf_counter()
        assert exhaustive_mean_degree(GridShape((2**64, 2**64))) == 2**128 - 2**65 + 1
        assert time.perf_counter() - t0 < 0.1
        assert built == []

    @pytest.mark.parametrize("lengths", [(5, 5), (3, 3, 3), (2,) * 5, (8, 8)])
    def test_mean_degree_matches_pit_pair_sum(self, reflect, lengths):
        # Oracle: after a prefix D, the next pair (v, u) is a jump exactly
        # when u was already a pit of D, so all extensions together have
        # 2 * sum_D f(D) * sum_{v < u pits of D} g(D + v + u) jumps.
        shape = GridShape(lengths)
        g = counting.completion_counts(shape)
        full = (1 << shape.size) - 1
        total = 0
        for bits in g:
            pits, rest = [], shape.pit_mask(bits)
            while rest:
                pits.append(rest & -rest)
                rest ^= pits[-1]
            pairs = sum(g[bits | a | b] for i, a in enumerate(pits) for b in pits[i + 1 :])
            total += g[full ^ reflect(shape, bits)] * pairs
        assert exhaustive_mean_degree(shape) == Fraction(2 * total, g[0])

    @given(small_shapes, st.floats(0.05, 8.0))
    @settings(deadline=None)
    def test_lattice_sums_match_enumeration(self, shape, R):
        # Oracle: list every extension and average over the list.
        orders = list(enumerate_index_orders(shape))
        jumps_total = sum(len(jump_times(shape, o)) for o in orders)
        assert exhaustive_mean_degree(shape) == Fraction(jumps_total, len(orders))
        if shape.is_equilateral and shape.num_chains >= 2 and shape.lengths[0] >= 2:
            threshold = pits_threshold(shape.lengths[0], shape.num_chains, R)
            low = sum(1 for o in orders for c in pits_counts(shape, o) if c < threshold)
            got = exact_pits_deficit_fractions(shape, [R])[R]
            assert got == Fraction(low, len(orders) * shape.size)

    def test_mean_degree_beyond_enumeration(self):
        # 2^4 has 1680384 extensions, above the enumeration cap, which the
        # lattice sum no longer touches; 20000 exact draws must agree.
        shape = GridShape.equilateral(2, 4)
        assert count_extensions(shape) > 10**6
        exact = exhaustive_mean_degree(shape)
        sampler = ExactSampler(shape, 2024)
        degrees = [len(jump_times(shape, sampler.sample_indices())) for _ in range(20_000)]
        n = len(degrees)
        mean = sum(degrees) / n
        se = math.sqrt(sum((d - mean) ** 2 for d in degrees) / (n - 1) / n)
        assert abs(mean - float(exact)) <= 6 * se

    def test_edges_are_single_swaps(self, extreme_graphs):
        graphs, _ = extreme_graphs
        g = graphs[(3, 2)]
        rows, ks = np.nonzero(g.table > g.table[:, :1])
        for i, j in zip(rows, g.table[rows, ks]):
            a, b = g.orders[i], g.orders[j]
            diff = [t for t in range(9) if a[t] != b[t]]
            assert len(diff) == 2 and diff[1] == diff[0] + 1
            assert a[diff[0]] == b[diff[1]] and a[diff[1]] == b[diff[0]]

    def test_non_equilateral_graph(self):
        s = GridShape((2, 3))
        stats = graph_stats(build_graph(s))
        assert stats.vertices == 5
        # path graph: the 5 extensions of [2]x[3] connect in a line
        assert stats.connected
        assert sum(stats.degree_histogram.values()) == 5

    def test_to_dot(self, extreme_graphs):
        graphs, _ = extreme_graphs
        text = to_dot(graphs[(2, 2)])
        assert text.startswith("graph")
        assert "v0 -- v1;" in text
        assert 'v0 [label="0 1 2 3"];' in text

    def test_graph_cap(self):
        with pytest.raises(ResourceCapError):
            build_graph(GridShape.equilateral(3, 3), cap=100)
