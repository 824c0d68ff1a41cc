"""Exact counting: DP vs hook-length and enumeration oracles, bounds, roots."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from gridext import (
    DomainError,
    GridShape,
    ResourceCapError,
    completion_counts,
    count_extensions,
    count_root_window,
    enumerate_index_orders,
    exact_pits_deficit_fractions,
    factorial_product_lower_bound,
    hook_length_count,
    normalized_count_root,
    pits_threshold,
    width_power_upper_bound,
)
from gridext.counting import (
    _carried,
    _down_set_count,
    _faces,
    _lattice_size,
    _levels,
    _paired_levels,
    _reflected,
    _tops,
)

small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda ls: math.prod(ls) <= 24)


@st.composite
def modest_shapes(draw):
    """Up to five chains and 150 points, in any order, one of them long."""
    short = draw(st.lists(st.integers(1, 6), max_size=4))
    long = draw(st.integers(1, max(1, 150 // math.prod(short))))
    return tuple(draw(st.permutations([*short, long])))


def check_table(shape):
    """The completion table against the recurrence read through pit_mask (not
    the engine's top-mask expansion), the lattice size, and on two chains
    the hook-length formula."""
    g = completion_counts(shape)
    full = (1 << shape.size) - 1
    assert g[full] == 1
    for bits, here in g.items():
        if bits != full:
            rest, total = shape.pit_mask(bits), 0
            while rest:
                low = rest & -rest
                total += g[bits | low]
                rest ^= low
            assert here == total
    assert len(g) == _lattice_size(shape, 10**12)
    if shape.num_chains == 2:
        assert g[0] == hook_length_count(shape)


def level_ints(masks):
    """The rows of an (n, words) array of 64-bit words, least significant
    first, as size-bit ints, summed word by word apart from the table's
    own byte readers."""
    return [sum(word << 64 * i for i, word in enumerate(row)) for row in masks.tolist()]


def limb_ints(counts):
    """The columns of an (L, n) array of 32-bit limbs, least significant row
    first, as exact ints, summed limb by limb apart from the table's own
    byte readers."""
    return [sum(limb << 32 * i for i, limb in enumerate(column)) for column in counts.T.tolist()]


def limb_array(values, limbs):
    """Exact ints below 2^(32 limbs) as an (limbs, n) uint64 array of 32-bit
    limbs, least significant row first, by shifts and masks."""
    return np.array([[v >> 32 * i & 0xFFFFFFFF for v in values] for i in range(limbs)], dtype=np.uint64).reshape(limbs, -1)


def dict_table_oracle(shape):
    """Oracle: the completion table as a plain dict, the rule completion_counts
    once used, filled from the DP's levels in the order they come."""
    table = {}
    for masks, counts in _levels(shape):
        table.update(zip(level_ints(masks), limb_ints(counts)))
    return table


def traced_peak(build, shape):
    """build(shape) and the tracemalloc peak it reached, the shape's own
    tables built beforehand, untraced."""
    shape._chain_faces
    tracemalloc.start()
    try:
        result = build(shape)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def forward_oracle(shape):
    """f(D), the number of orders of each down-set D, by one bottom-up pass
    from the empty set: an oracle independent of the completion table."""
    f = {0: 1}
    level = {0: 1}
    while level:
        above = {}
        for bits, here in level.items():
            rest = shape.pit_mask(bits)
            while rest:
                low = rest & -rest
                above[bits | low] = above.get(bits | low, 0) + here
                rest ^= low
        f.update(above)
        level = above
    return f


class TestDownSet:
    # A down-set is a bitmask; its pits are GridShape.pit_mask of it.
    def test_empty_and_full(self, square3):
        assert square3.pit_mask(0) == 1
        assert square3.pit_mask((1 << 9) - 1) == 0

    def test_pits_of_bottom_only(self, diamond):
        assert diamond.pit_mask(0b0001) == 0b0110


class TestCounts:
    def test_diamond(self):
        assert count_extensions(GridShape((2, 2))) == 2

    def test_3x3_vs_hook(self, square3):
        assert count_extensions(square3) == 42
        assert hook_length_count(square3) == 42

    def test_2x3_vs_hook(self):
        s = GridShape((2, 3))
        assert count_extensions(s) == 5
        assert hook_length_count(s) == 5

    def test_cube_vs_enumeration(self, cube2):
        n = count_extensions(cube2)
        assert n == 48
        assert len(list(enumerate_index_orders(cube2))) == n

    def test_chain(self):
        assert count_extensions(GridShape((7,))) == 1
        assert count_extensions(GridShape((1, 5))) == 1

    def test_singleton(self):
        assert count_extensions(GridShape((1,))) == 1

    def test_hook_sweep(self):
        # Past 5x6, counts of 69 to 337 bits (three to eleven limbs), and
        # two-word states on 2x64.
        wide = [(4, 12), (7, 12), (9, 11), (12, 12), (2, 64)]
        for lengths in [(a, b) for a in range(1, 6) for b in range(a, 7)] + wide:
            s = GridShape(lengths)
            assert count_extensions(s) == hook_length_count(s)

    @given(modest_shapes())
    @settings(deadline=None)
    def test_table_obeys_the_recurrence(self, lengths):
        shape = GridShape(lengths)
        assume(_lattice_size(shape, 5000) <= 5000)
        check_table(shape)

    @pytest.mark.parametrize("lengths", [(2, 40), (3, 30), (9, 11)])
    def test_two_chain_tables_obey_the_recurrence(self, lengths):
        check_table(GridShape(lengths))

    def test_hook_requires_two_chains(self, cube2):
        with pytest.raises(DomainError):
            hook_length_count(cube2)

    def test_boolean_lattice_5(self):
        # regression pin; n<=4 members of this family are oracle-checked above
        assert count_extensions(GridShape.equilateral(2, 5)) == 14807804035657359360

    def test_completion_identity(self, square3):
        g = completion_counts(square3)
        lower = square3.lower_covers
        for bits, val in g.items():
            # every key is a down-set: each member's lower covers are members
            assert all(bits >> u & 1 for v in range(9) if bits >> v & 1 for u in lower[v])
            pits = [v for v in range(9) if square3.pit_mask(bits) >> v & 1]
            if pits:
                assert val == sum(g[bits | (1 << v)] for v in pits)
            else:
                assert val == 1

    def test_state_cap(self):
        with pytest.raises(ResourceCapError) as exc:
            count_extensions(GridShape.equilateral(3, 3), cap=10)
        assert exc.value.cap == 10
        assert "10" in str(exc.value)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(lambda ls: math.prod(ls) <= 60))
    @settings(deadline=None)
    def test_down_set_formula_matches_lattice(self, lengths):
        shape = GridShape(lengths)
        assert _down_set_count(lengths, 10**12) == len(completion_counts(shape))

    def test_down_set_formula_values(self):
        assert _down_set_count((3, 3, 3), 10**30) == 980
        assert _down_set_count((4, 4, 4), 10**30) == 232848
        assert _down_set_count((6, 6, 6), 10**30) == 1_478_619_421_136
        # Past the cap it stops early with a lower bound that still exceeds it.
        assert 10**7 < _down_set_count((6, 6, 6), 10**7) <= 1_478_619_421_136

    @pytest.mark.parametrize("lengths", [(6, 6, 6), (10**20, 2), (10**20, 10**20, 10**20), (2, 2, 10**6, 2), (2,) * 24])
    def test_cap_refuses_before_building(self, lengths):
        with pytest.raises(ResourceCapError) as exc:
            count_extensions(GridShape(lengths))
        assert exc.value.cap == 10**7

    @given(st.lists(st.integers(1, 3), min_size=4, max_size=6).filter(lambda ls: math.prod(ls) <= 48))
    @settings(deadline=None)
    def test_lattice_lower_bound_holds_beyond_three_chains(self, lengths):
        # Past three chains the pre-check counts the lattice exactly.
        shape = GridShape(lengths)
        assert _lattice_size(shape, 10**12) == len(completion_counts(shape))

    def test_exact_box_count_lists_no_rank_levels(self, monkeypatch):
        # Up to three chains of length > 1 the box count is exact, so a cap
        # above it needs no width: 2 x 10^9 would list 10^9 rank levels.
        from gridext import counting

        monkeypatch.setattr(counting, "max_antichain_size", None)
        c = 10**9
        assert counting._lattice_lower_bound(GridShape((2, c)), 10**30) == (c + 1) * (c + 2) // 2

    def test_lattice_size_of_four_chains_of_three(self, built):
        # 3x3x3x3 is counted from the 980 down-sets of 3x3x3, and refused
        # with that count before its DP starts.
        shape = GridShape((3, 3, 3, 3))
        assert _lattice_size(shape, 10**12) == 17_792_748
        with pytest.raises(ResourceCapError, match="at least 17792748 ideals"):
            completion_counts(shape)
        assert built == [GridShape((3, 3, 3))] * 2

    def test_refused_sub_shape_refuses_the_shape(self, monkeypatch, built):
        # No grid of four to six chains reaches this rule with the real
        # bounds, so the four-chain bound is stubbed to 0: 2x2x2x2 then
        # asks its sub-shape 2x2x2, whose 20 down-sets pass 10 states, and
        # is refused as 11 with no level built, also by count_extensions.
        from gridext import counting

        bound = counting._lattice_lower_bound
        stub = lambda shape, cap: 0 if shape.num_chains > 3 else bound(shape, cap)
        monkeypatch.setattr(counting, "_lattice_lower_bound", stub)
        assert _lattice_size(GridShape((2, 2, 2, 2)), 10) == 11
        with pytest.raises(ResourceCapError, match="at least 11 ideals"):
            count_extensions(GridShape((2, 2, 2, 2)), cap=10)
        assert built == []

    @pytest.mark.parametrize("lengths", [(2,) * 5, (2,) * 6])
    def test_cap_check_builds_no_table(self, monkeypatch, built, lengths):
        # The sub-lattice's size asks the same rule, then lists the
        # down-sets from its levels: no completion table, one level pass
        # per sub-shape, from 2^3 (its lattice a box count) up.
        from gridext import counting

        tables = []
        monkeypatch.setattr(counting, "completion_counts", lambda *args: tables.append(args))
        monkeypatch.setattr(counting, "CompletionTable", lambda *args: tables.append(args))
        counting._check_cap(GridShape(lengths), None)
        assert tables == []
        assert built == [GridShape((2,) * k) for k in range(3, len(lengths))]

    # 65 is the first shape of two-word states; a stride of 70 moves a whole word.
    @pytest.mark.parametrize("lengths", [(3, 3), (1,), (2, 1, 3), (2, 2, 2, 2), (2, 3, 4), (65,), (2, 40), (2, 70)])
    def test_table_stored_by_decreasing_size(self, lengths):
        sizes = [bits.bit_count() for bits in completion_counts(GridShape(lengths))]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == math.prod(lengths) and sizes[-1] == 0

    def test_one_table_per_shape(self, built):
        # Each admitted call builds one table, equal to every other of the
        # shape; the refused call builds none.
        shape = GridShape((2, 3, 3))
        table = completion_counts(shape)
        for cap in (len(table), len(table) + 1, 10**9):
            assert completion_counts(GridShape((2, 3, 3)), cap) == table
        with pytest.raises(ResourceCapError) as exc:
            completion_counts(shape, len(table) - 1)
        assert exc.value.cap == len(table) - 1
        assert count_extensions(shape, len(table)) == table[0]
        assert built == [shape] * 5

    @given(small_shapes)
    @settings(deadline=None)
    def test_reflection_gives_forward_counts(self, reflect, lengths):
        # f(D) = g(full ^ reflect(D)): the reflection reverses the order.
        shape = GridShape(lengths)
        g = completion_counts(shape)
        f = forward_oracle(shape)
        full = (1 << shape.size) - 1
        assert f.keys() == g.keys()
        assert all(g[full ^ reflect(shape, bits)] == here for bits, here in f.items())
        # Every extension passes through exactly one down-set of each size.
        for k in range(shape.size + 1):
            assert sum(here * g[b] for b, here in f.items() if b.bit_count() == k) == g[0]

    @given(
        lengths=st.one_of(small_shapes, st.sampled_from([(2, 2, 2, 3), (65,), (2, 33), (200,)])),
        data=st.data(),
    )
    # `built` spans every example, so each one reads only what it appended.
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_refuses_exactly_past_the_lattice(self, built, lengths, data):
        # One refusal rule: the lattice against cap // words, a state being
        # a size-bit int of ceil(size / 64) 64-bit words.  A refused shape
        # builds no level of its own.
        shape = GridShape(lengths)
        lattice = len(completion_counts(shape))
        words = -(-shape.size // 64)
        cap = data.draw(st.integers(0, 2 * lattice * words))
        start = len(built)
        if lattice > cap // words:
            with pytest.raises(ResourceCapError) as exc:
                completion_counts(shape, cap)
            assert exc.value.cap == cap
            assert shape not in built[start:]
        else:
            assert len(completion_counts(shape, cap)) == lattice
            assert built[start:].count(shape) == 1

    def test_count_holds_one_level_at_a_time(self):
        # 8x8 has 12870 down-sets, at most 526 to a level: the count keeps
        # two levels and their temporaries, the table every level.
        shape = GridShape((8, 8))
        count_peak, counted = traced_peak(count_extensions, shape)
        table_peak, table = traced_peak(completion_counts, shape)
        assert counted == table[0] == hook_length_count(shape)
        assert count_peak < table_peak / 4

    def test_table_takes_under_40_bytes_a_state(self):
        # A state is a key word and its count's 32-bit limbs, at most four
        # on 8x8 (a dict of the same table took 128 B a state, a list of
        # ints 56 B).
        shape = GridShape((8, 8))
        peak, table = traced_peak(completion_counts, shape)
        assert peak < 40 * len(table) == 40 * 12870

    @pytest.mark.parametrize("lengths, words", [((64,), 1), ((65,), 2), ((2, 33), 2), ((200,), 4)])
    def test_cap_counts_state_words(self, lengths, words):
        # A state is a size-bit int of ceil(size / 64) words; the cap counts words.
        shape = GridShape(lengths)
        states = len(completion_counts(shape))
        assert completion_counts(shape, states * words) == completion_counts(shape)
        with pytest.raises(ResourceCapError) as exc:
            completion_counts(shape, states * words - 1)
        assert exc.value.cap == states * words - 1
        assert ("64-bit words each" in str(exc.value)) == (words > 1)


# Limb edges: a full limb, one past it, 2^64 and its neighbours.
EDGE_VALUES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**96 - 1]


class TestLimbs:
    @given(
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(EDGE_VALUES) | st.integers(0, 2**130)), min_size=1, max_size=64),
        st.integers(1, 8),
    )
    @example([(0, 2**32 - 1), (0, 2**32 - 1)], 1)  # one limb carries: L grows to 2
    @example([(0, 2**64 - 1), (0, 1), (1, 2**64)], 2)  # 2^64 twice, over three limbs
    @settings(deadline=None)
    def test_add_and_carry_match_int_sums(self, adds, targets):
        # The DP's add: each value pushed onto its target by np.add.at, one
        # limb row at a time in uint64 lanes, then one carry pass.
        at = np.array([t % targets for t, _ in adds])
        values = [v for _, v in adds]
        limbs = max(1, -(-max(values).bit_length() // 32))
        sums = np.zeros((limbs, targets), dtype=np.uint64)
        for limb, out in zip(limb_array(values, limbs), sums):
            np.add.at(out, at, limb)
        carried = _carried(sums)
        expected = [sum(v for t, v in zip(at.tolist(), values) if t == i) for i in range(targets)]
        assert carried.dtype == np.uint64 and (carried >> np.uint64(32) == 0).all()
        assert limb_ints(carried) == expected
        # At most 64 adds: the top limb carries into one new limb at most.
        assert len(carried) == max(limbs, -(-max(expected).bit_length() // 32))

    @pytest.mark.parametrize("lengths", [(8, 8), (2, 2, 2, 2, 2), (2, 40)])
    def test_levels_take_the_limbs_their_counts_need(self, lengths):
        # L grows down the levels exactly when the top limb carries.
        widths = [(len(counts), max(limb_ints(counts))) for _, counts in _levels(GridShape(lengths))]
        assert [limbs for limbs, _ in widths] == [max(1, -(-top.bit_length() // 32)) for _, top in widths]
        assert widths[-1][0] > 1


class TestCompletionTable:
    # The table keeps the DP's levels; the dict oracle copies them, decoding
    # the limbs itself.  65, 2x33, 9x9 and 3x30 have two-word states, 8x8,
    # 3x3x3x2, 3x3 and 2x2x2x2 one-word ones.
    @pytest.mark.parametrize("lengths", [(8, 8), (65,), (2, 33), (9, 9), (3, 3, 3, 2), (3, 3), (2, 2, 2, 2), (3, 30)])
    def test_matches_the_dict_oracle(self, lengths):
        self.check(GridShape(lengths))

    @given(modest_shapes())
    @settings(deadline=None)
    def test_matches_the_dict_oracle_on_any_shape(self, lengths):
        shape = GridShape(lengths)
        assume(_lattice_size(shape, 5000) <= 5000)
        self.check(shape)

    @staticmethod
    def check(shape):
        table, oracle = completion_counts(shape), dict_table_oracle(shape)
        assert len(table) == len(oracle)
        assert list(table) == list(oracle)  # the same keys in the same order
        assert list(table.items()) == list(oracle.items())
        assert all(table[bits] == here for bits, here in oracle.items())
        assert table == oracle

    @pytest.mark.parametrize("lengths", [(3, 3), (4, 4, 4), (65,), (2, 33), (9, 9)])
    def test_only_down_sets_are_keys(self, lengths):
        shape = GridShape(lengths)
        table, full = completion_counts(shape), (1 << shape.size) - 1
        top = 1 << shape.size - 1  # the top point alone, and all but the bottom
        for bits in (top, full ^ 1, top | 1, 1 << shape.size, full << 1, -1, -top):
            assert bits not in table
            with pytest.raises(KeyError):
                table[bits]
        assert table[full] == 1 and table[1] == table[0]
        assert table.get("0") is None and table.get(1.5) is None

    # 3x3 and 2x2x2x2 have one-word states, 2x33 and 3x30 two-word ones.
    @pytest.mark.parametrize("lengths", [(3, 3), (2, 2, 2, 2), (2, 33), (3, 30)])
    def test_pick_on_every_down_set(self, lengths):
        # Successive picks, r the sum of the weights listed so far, list
        # every pit of D in increasing index with its weight g(D + v), and
        # the weights sum to g(D); the whole grid has no pit.
        shape = GridShape(lengths)
        table, oracle, full = completion_counts(shape), dict_table_oracle(shape), (1 << shape.size) - 1
        for bits, here in oracle.items():
            if bits == full:
                continue
            pairs, mask, total = [], shape.pit_mask(bits), 0
            while total < here:
                pairs.append(table.pick(bits, total))
                total += pairs[-1][1]
            assert [v for v, _ in pairs] == [v for v in range(shape.size) if mask >> v & 1]
            assert all(weight == oracle[bits | 1 << v] for v, weight in pairs)
            assert total == here
            with pytest.raises(AssertionError):
                table.pick(bits, here)
        with pytest.raises(AssertionError):
            table.pick(full, 0)

    # 2x33: 66 points, two words, 595 down-sets.
    @pytest.mark.parametrize("lengths", [(3, 3), (2, 2, 2), (4, 3), (2, 33)])
    def test_pick_is_the_documented_scan(self, lengths):
        # pick(D, r) against the subtractive scan written out over the dict
        # table, for r at 0, at each running sum below g(D) and one below
        # each, and at g(D) - 1.
        shape = GridShape(lengths)
        table, oracle, full = completion_counts(shape), dict_table_oracle(shape), (1 << shape.size) - 1
        for bits, here in oracle.items():
            if bits == full:
                continue
            mask = shape.pit_mask(bits)
            weights = [(v, oracle[bits | 1 << v]) for v in range(shape.size) if mask >> v & 1]
            sums = list(itertools.accumulate(weight for _, weight in weights))
            assert sums[-1] == here
            for r in {0, here - 1, *sums[:-1], *(s - 1 for s in sums)}:
                left = r
                for v, weight in weights:
                    if left < weight:
                        break
                    left -= weight
                assert table.pick(bits, r) == (v, weight), (bits, r)


def mapping_deficit_oracle(shape, Rs, reflect):
    """Oracle: the exact low-pits fractions by the per-down-set loop
    exact_pits_deficit_fractions once ran, over a dict table: f(D) by one
    lookup of full ^ reflect(D), the pits by pit_mask."""
    g = dict_table_oracle(shape)
    full = (1 << shape.size) - 1
    by_pits = Counter()
    for bits, here in g.items():
        if bits:
            by_pits[shape.pit_mask(bits).bit_count()] += g[full ^ reflect(shape, bits)] * here
    thresholds = {R: pits_threshold(shape.lengths[0], shape.num_chains, R) for R in Rs}
    return {R: Fraction(sum(w for c, w in by_pits.items() if c < t), g[0] * shape.size) for R, t in thresholds.items()}


class TestPairedLevels:
    # 3x3, 2x2x2x2 and 3x3x3x2 have one-word states; 9x9, 2x33 and 3x30
    # two-word ones.
    @pytest.mark.parametrize("lengths", [(3, 3), (2, 2, 2, 2), (3, 3, 3, 2), (9, 9), (2, 33), (3, 30)])
    def test_matches_lookups_on_every_down_set(self, reflect, lengths):
        shape = GridShape(lengths)
        table, full = dict_table_oracle(shape), (1 << shape.size) - 1
        by_size = [[] for _ in range(shape.size + 1)]
        for bits in table:  # each level in the generator's order
            by_size[bits.bit_count()].append(bits)
        paired = list(_paired_levels(shape))
        assert len(paired) == shape.size
        for downs, (g, f, pits) in zip(by_size[1:], paired):
            assert g.tolist() == [table[bits] for bits in downs]
            assert f.tolist() == [table[full ^ reflect(shape, bits)] for bits in downs]
            assert pits.tolist() == [shape.pit_mask(bits).bit_count() for bits in downs]

    # Sizes 64, 65, 66, 81 and 200: the reflection shifts out 0, 63, 62, 47
    # and 56 padding bits, carrying across one to four words.
    @pytest.mark.parametrize("lengths", [(4, 4, 4), (65,), (2, 33), (3, 22), (2, 3, 11), (9, 9), (200,)])
    def test_reflected_levels_match_coordinates(self, reflect, lengths):
        # full ^ reflect(D) row by row, and its tops are the reflected pits of D.
        shape = GridShape(lengths)
        full, faces = (1 << shape.size) - 1, _faces(shape)
        for masks, _ in _levels(shape):
            downs, reflected = level_ints(masks), _reflected(masks, shape.size)
            assert level_ints(reflected) == [full ^ reflect(shape, bits) for bits in downs]
            assert level_ints(_tops(reflected, faces)) == [reflect(shape, shape.pit_mask(bits)) for bits in downs]

    @pytest.mark.parametrize("lengths", [(4, 4, 4), (9, 9)])
    def test_deficit_fractions_match_the_mapping_loop(self, reflect, lengths):
        shape, Rs = GridShape(lengths), [0.5, 1.0, 2.0, 4.0, 8.0]
        assert exact_pits_deficit_fractions(shape, Rs) == mapping_deficit_oracle(shape, Rs, reflect)

    def test_refuses_before_any_level(self, built, monkeypatch, reflect):
        # The paired levels check the default cap, read at each call.
        from gridext import counting

        shape = GridShape((3, 3, 3))
        cap = len(completion_counts(shape)) - 1
        del built[:]
        monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", cap)
        with pytest.raises(ResourceCapError) as exc:
            exact_pits_deficit_fractions(shape, [1.0])
        assert exc.value.cap == cap
        assert built == []
        monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", cap + 1)
        assert exact_pits_deficit_fractions(shape, [1.0]) == mapping_deficit_oracle(shape, [1.0], reflect)


class TestBounds:
    def test_examples(self, square3):
        assert factorial_product_lower_bound(square3) == 24
        assert width_power_upper_bound(square3) == 3**9
        s = GridShape((2, 3))
        assert factorial_product_lower_bound(s) == 4  # rank sizes 1,2,2,1
        s16 = GridShape.equilateral(2, 4)
        assert factorial_product_lower_bound(s16) == 1 * 24 * 720 * 24 * 1
        # (size / longest chain)^size = (16/2)^16
        assert width_power_upper_bound(s16) == 8**16
        assert width_power_upper_bound(GridShape((2, 3))) == 64

    def test_diamond_lower_is_tight(self, diamond):
        assert factorial_product_lower_bound(diamond) == count_extensions(diamond) == 2

    @pytest.mark.parametrize(
        "lengths",
        [(2, 2), (3, 3), (4, 4), (2, 2, 2), (2, 3), (2, 5), (3, 4), (2, 2, 3), (2, 6)],
    )
    def test_sandwich(self, lengths):
        s = GridShape(lengths)
        n = count_extensions(s)
        assert factorial_product_lower_bound(s) <= n <= width_power_upper_bound(s)

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    @settings(deadline=None)
    def test_sandwich_property(self, lengths):
        s = GridShape(tuple(lengths))
        n = count_extensions(s)
        assert factorial_product_lower_bound(s) <= n <= width_power_upper_bound(s)

    def test_upper_bound_is_ceiling(self):
        s = GridShape((3, 3))
        exact = Fraction(9, 3) ** 9
        assert width_power_upper_bound(s) == int(exact)  # integer case, no rounding


class TestRoots:
    def test_root_in_window(self):
        for m, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]:
            s = GridShape.equilateral(m, n)
            v = normalized_count_root(m, n, count_extensions(s))
            lo, hi = count_root_window(n)
            assert lo - 1e-9 <= v <= hi + 1e-9

    def test_root_value_3x3(self):
        v = normalized_count_root(3, 2, 42)
        assert v == pytest.approx(math.exp(math.log(42) / 9) / 3, rel=1e-12)

    def test_window_values(self):
        lo, hi = count_root_window(2)
        assert lo == pytest.approx(1 / (2 * math.e), rel=1e-12)
        assert hi == pytest.approx(math.e / 2, rel=1e-12)
        assert lo < hi

    def test_root_domain_errors(self):
        with pytest.raises(DomainError):
            normalized_count_root(1, 2, 1)
        with pytest.raises(DomainError):
            normalized_count_root(2, 1, 1)
        with pytest.raises(DomainError):
            normalized_count_root(2, 2, 0)
        with pytest.raises(DomainError):
            count_root_window(1)
