"""Exact counting: DP vs hook-length and enumeration oracles, bounds, roots."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gridext import (
    DomainError,
    GridShape,
    ResourceCapError,
    completion_counts,
    count_extensions,
    count_root_window,
    enumerate_index_orders,
    factorial_product_lower_bound,
    hook_length_count,
    normalized_count_root,
    width_power_upper_bound,
)
from gridext.counting import _completion_counts, _down_set_count, _lattice_lower_bound
from gridext.grid import max_antichain_size

small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda ls: math.prod(ls) <= 24)


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
        for a in range(1, 6):
            for b in range(a, 7):
                s = GridShape((a, b))
                assert count_extensions(s) == hook_length_count(s)

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
        shape = GridShape(lengths)
        assert _lattice_lower_bound(shape, 10**12) <= len(completion_counts(shape))

    @pytest.mark.parametrize("lengths", [(3, 3), (1,), (2, 1, 3), (2, 2, 2, 2), (2, 3, 4)])
    def test_table_stored_by_decreasing_size(self, lengths):
        sizes = [bits.bit_count() for bits in completion_counts(GridShape(lengths))]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == math.prod(lengths) and sizes[-1] == 0

    def test_one_table_per_shape(self):
        shape = GridShape((2, 3, 3))
        table = completion_counts(shape)
        for cap in (len(table), len(table) + 1, 10**9):
            assert completion_counts(GridShape((2, 3, 3)), cap) is table
        with pytest.raises(ResourceCapError) as exc:
            completion_counts(shape, len(table) - 1)
        assert exc.value.cap == len(table) - 1
        assert completion_counts(shape) is table

    @given(small_shapes)
    @settings(deadline=None)
    def test_reflection_gives_forward_counts(self, lengths):
        # f(D) = g(full ^ reflect(D)): the reflection reverses the order.
        shape = GridShape(lengths)
        g = completion_counts(shape)
        f = forward_oracle(shape)
        full = (1 << shape.size) - 1
        assert f.keys() == g.keys()
        assert all(g[full ^ shape.reflect(bits)] == here for bits, here in f.items())
        # Every extension passes through exactly one down-set of each size.
        for k in range(shape.size + 1):
            assert sum(here * g[b] for b, here in f.items() if b.bit_count() == k) == g[0]

    @pytest.mark.parametrize("lengths, cap", [((2,) * 5, 2000), ((2, 2, 2, 2), 100), ((2, 2, 2, 3), 300)])
    def test_cap_checked_as_the_level_grows(self, lengths, cap):
        # Past the pre-check (2^width <= cap), the DP stops within one
        # expanded state of the cap, not a whole level later.
        shape = GridShape(lengths)
        assert 1 << max_antichain_size(shape) <= cap < len(completion_counts(shape))
        with pytest.raises(ResourceCapError) as exc:
            _completion_counts(shape, cap)
        reported = int(str(exc.value).split("at least ")[1].split()[0])
        assert cap < reported <= cap + shape.num_chains

    @pytest.mark.parametrize("lengths, words", [((64,), 1), ((65,), 2), ((2, 33), 2), ((200,), 4)])
    def test_cap_counts_state_words(self, lengths, words):
        # A state is a size-bit int of ceil(size / 64) words; the cap counts words.
        shape = GridShape(lengths)
        states = len(completion_counts(shape))
        assert completion_counts(shape, states * words) is completion_counts(shape)
        with pytest.raises(ResourceCapError) as exc:
            completion_counts(shape, states * words - 1)
        assert exc.value.cap == states * words - 1
        with pytest.raises(ResourceCapError) as exc:
            _completion_counts(shape, states * words - 1)
        assert exc.value.cap == states * words - 1
        assert ("64-bit words each" in str(exc.value)) == (words > 1)


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
