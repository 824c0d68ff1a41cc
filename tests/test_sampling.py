"""Random sampling: determinism contract, uniformity, entropy, pit deficits."""

import itertools
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridext import (
    DomainError,
    EntropyProfile,
    ExactSampler,
    GridShape,
    JumpStats,
    LinearExtension,
    ResourceCapError,
    WordStream,
    chi_square_uniformity,
    completion_counts,
    count_extensions,
    entropy_profile_exact,
    enumerate_index_orders,
    exact_pits_deficit_fractions,
    exhaustive_mean_degree,
    jump_stats_from_orders,
    jump_times,
    mcmc_ensemble,
    pits_counts,
    pits_deficit_stats,
    pits_threshold,
    rank_lex_indices,
    tv_distance_from_uniform,
)
from gridext import sampling, transposition


def dense_table_ensemble(shape, steps, chains, seed, laziness=0.5, starts=None):
    """Oracle for mcmc_ensemble: the array walk with a dense size x size
    table of swappable pairs, O(size^2) memory, so small shapes only."""
    size = shape.size
    start = np.array(rank_lex_indices(shape), dtype=np.int64)
    arr = np.tile(start, (chains, 1)) if starts is None else np.array(starts, dtype=np.int64)
    if chains == 0 or steps == 0 or size <= 1:
        return arr
    swappable = np.ones((size, size), dtype=bool)  # [a, b]: b right after a may swap with it
    for b, downs in enumerate(shape.lower_covers):
        swappable[list(downs), b] = False
    rng = np.random.default_rng(seed)
    rows = np.arange(chains)
    for _ in range(steps):
        ks = rng.integers(1, size, size=chains)
        coins = rng.random(chains)
        a, b = arr[rows, ks - 1], arr[rows, ks]
        move = (coins >= laziness) & swappable[a, b]
        arr[rows[move], ks[move] - 1] = b[move]
        arr[rows[move], ks[move]] = a[move]
    return arr


def loop_ensemble(shape, steps, chains, seed, laziness=0.5):
    """Oracle for mcmc_ensemble on shapes too large for the dense table:
    one chain at a time in Python lists, the cover read from
    shape.lower_covers, from the rank-sorted start."""
    size, covers = shape.size, shape.lower_covers
    rows = [list(rank_lex_indices(shape)) for _ in range(chains)]
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        ks = rng.integers(1, size, size=chains).tolist()
        coins = rng.random(chains).tolist()
        for row, k, coin in zip(rows, ks, coins):
            a, b = row[k - 1], row[k]
            if coin >= laziness and a not in covers[b]:
                row[k - 1], row[k] = b, a
    return np.array(rows, dtype=np.int64)


def contract_sampler(shape, seed):
    """The sampler contract of the README, written out: raw PCG64 words one
    at a time, top-bits rejection, and the increasing-index subtractive
    scan over the pits.  Yields index orders forever."""
    g, bitgen = completion_counts(shape), np.random.PCG64(np.random.SeedSequence(seed))

    def below(n):
        k = n.bit_length()
        while n > 1:
            v = 0
            for _ in range(-(-k // 64)):
                v = v << 64 | int(bitgen.random_raw())
            if (v := v >> -k % 64) < n:
                return v
        return 0

    while True:
        placed, order = 0, []
        while len(order) < shape.size:
            r = below(g[placed])
            for v in (v for v in range(shape.size) if shape.pit_mask(placed) >> v & 1):
                if r < g[placed | 1 << v]:
                    break
                r -= g[placed | 1 << v]
            placed, order = placed | 1 << v, order + [v]
        yield tuple(order)


def stats_oracle(shape, orders):
    """jump_stats_from_orders one order at a time: float sums of the
    per-order reference jump_times and pits_counts."""
    n, deg, deg_sq, hist = 0, 0.0, 0.0, Counter()
    pit, pit_sq = [0.0] * shape.size, [0.0] * shape.size
    for order in orders:
        d = len(jump_times(shape, order))
        n, deg, deg_sq, hist[d] = n + 1, deg + d, deg_sq + d * d, hist[d] + 1
        for k, c in enumerate(pits_counts(shape, order)):
            pit[k] += c
            pit_sq[k] += c * c

    def mean_se(total, total_sq):
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
        return mean, math.sqrt(var / n)

    profile = [mean_se(t, t_sq) for t, t_sq in zip(pit, pit_sq)]
    return JumpStats(
        n, *mean_se(deg, deg_sq), dict(sorted(hist.items())),
        tuple(m for m, _ in profile), tuple(se for _, se in profile),
    )


# Shapes on both sides of the swap-table bound, chains of length 1 included.
walk_shapes = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda ls: math.prod(ls) <= 24),
    st.sampled_from([(4, 4), (2, 2, 2, 2), (1, 4, 4), (4, 4, 4), (2,) * 5]),
).map(GridShape)


class TestWordStream:
    def test_matches_pcg64_raw(self):
        ws = WordStream(12345)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12345)))
        raw = [int(w) for w in rng.bit_generator.random_raw(4)]
        assert [ws.word() for _ in range(4)] == raw

    def test_words_across_refills_match_one_raw_call(self):
        # 12289 words cross three 4096-word refills: buffering changes nothing.
        # 99 is one entropy word; 2^32 - 1 the largest one-word seed, 2^32 the
        # smallest two-word one, and 2^64 - 1 the largest seed admitted.
        for seed in (0, 99, 2**32 - 1, 2**32, 2**64 - 1):
            ws = WordStream(seed)
            raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(12289).tolist()
            assert [ws.word() for _ in range(12289)] == raw, seed

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(deadline=None)
    def test_words_match_pcg64_for_any_seed(self, seed):
        ws = WordStream(seed)
        raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(12289).tolist()
        assert [ws.word() for _ in range(12289)] == raw

    def test_word_arrays_continue_the_stream(self):
        # words(n) reads the same words as n word() calls, across refills.
        ws = WordStream(2**64 - 1)
        raw = np.random.PCG64(np.random.SeedSequence(2**64 - 1)).random_raw(9000).tolist()
        first, block, middle, last = ws.word(), ws.words(5000), ws.word(), ws.words(3998)
        assert block.dtype == last.dtype == np.uint64
        assert [first, *block.tolist(), middle, *last.tolist()] == raw

    def test_below_range_and_determinism(self):
        ws1, ws2 = WordStream(7), WordStream(7)
        vals1 = [ws1.below(42) for _ in range(200)]
        vals2 = [ws2.below(42) for _ in range(200)]
        assert vals1 == vals2
        assert all(0 <= v < 42 for v in vals1)
        assert len(set(vals1)) > 30  # hits most residues in 200 draws

    def test_below_big_integer(self):
        ws = WordStream(1)
        n = 10**40  # needs three 64-bit words per draw
        vals = [ws.below(n) for _ in range(50)]
        assert all(0 <= v < n for v in vals)

    def test_below_one_consumes_nothing_random(self):
        ws = WordStream(3)
        assert ws.below(1) == 0

    def test_rejects_bad_bound(self):
        with pytest.raises(DomainError):
            WordStream(0).below(0)


class TestExactSampler:
    def test_deterministic_per_seed(self, square3):
        def draws(seed):
            sampler = ExactSampler(square3, seed)
            return [LinearExtension(square3, sampler.sample_indices()) for _ in range(20)]

        a = draws(99)
        assert a == draws(99)
        assert a != draws(100)

    def test_samples_are_valid(self, cube2):
        sampler = ExactSampler(cube2, 17)
        for _ in range(50):
            LinearExtension(cube2, sampler.sample_indices())  # the constructor validates

    def test_full_support_small(self, diamond):
        seen = {ExactSampler(diamond, s).sample_indices() for s in range(40)}
        assert seen == {(0, 1, 2, 3), (0, 2, 1, 3)}

    def test_uniform_on_diamond(self, diamond):
        sampler = ExactSampler(diamond, 4242)
        counts = Counter(sampler.sample_indices() for _ in range(4000))
        assert abs(counts[(0, 1, 2, 3)] - 2000) < 200  # ~6.3 sigma

    def test_chi_square_3x3(self, square3, square3_orders):
        sampler = ExactSampler(square3, 42)
        counts = Counter(sampler.sample_indices() for _ in range(8400))
        assert set(counts) <= set(square3_orders)
        res = chi_square_uniformity([counts.get(o, 0) for o in square3_orders])
        assert res.dof == 41
        assert res.pvalue > 0.005

    @pytest.mark.parametrize(
        "lengths, seed, draws",
        # 3x3 and 2x40 keep per-down-set tables (20 and 861 down-sets);
        # 8x8 (12870) scans, and 3x30 (5456 of two words) scans by bytes.
        # 2x40's counts reach 72 bits: two-word draws.
        [((3, 3), 7, 300), ((2, 40), 3, 40), ((8, 8), 5, 20), ((3, 30), 9, 20)],
    )
    def test_matches_written_out_contract(self, lengths, seed, draws):
        shape = GridShape(lengths)
        sampler = ExactSampler(shape, seed)
        contract = contract_sampler(shape, seed)
        for _ in range(draws):
            assert sampler.sample_indices() == next(contract)

    def test_chain_sampling(self):
        s = GridShape((4,))
        assert ExactSampler(s, 0).sample_indices() == (0, 1, 2, 3)

    # 2x40's counts reach 72 bits: entries (-1, ...) that keep the running sums unshifted.
    @pytest.mark.parametrize("lengths", [(3, 3), (2, 2, 2), (4, 3), (2, 40)])
    def test_memo_entries_agree_with_pick(self, lengths):
        # Each memo entry is the one D's pits and their table weights give,
        # (n, thresholds, next down-sets, pits), the thresholds the running
        # sums shifted to the top of a word and n the number of pits when
        # g(D) > 1 fits in one word, n = 0 when g(D) = 1.  Its
        # bisect_right stops where CompletionTable.pick's scan stops: at r = 0,
        # at each running sum below g(D) and one below each, whichever word
        # has r as its top bits; and a word with r >= g(D) is past every pit.
        shape = GridShape(lengths)
        table, full = completion_counts(shape), (1 << shape.size) - 1
        sampler = ExactSampler(shape, 0, table=table)
        for bits in table:
            if bits == full:
                continue
            pits = tuple(v for v in range(shape.size) if shape.pit_mask(bits) >> v & 1)
            sums = tuple(itertools.accumulate(table[bits | 1 << v] for v in pits))
            total = table[bits]
            n = 0 if total == 1 else len(pits) if total.bit_length() <= 64 else -1
            shift = 64 - total.bit_length() if n > 0 else 0
            thresholds = tuple(s << shift for s in sums)
            nexts = tuple(bits | 1 << v for v in pits)
            assert sampler._choices(bits) == (n, thresholds, nexts, pits)
            low = (1 << shift) - 1  # the bits a word has below its top bits r
            for r in {0, *sums[:-1], *(s - 1 for s in sums)}:
                for w in {r << shift, r << shift | low}:
                    i = bisect_right(thresholds, w)
                    assert table.pick(bits, r) == (pits[i], sums[i] - (sums[i - 1] if i else 0))
            if n > 0:
                assert bisect_right(thresholds, total << shift) == n


class TestMcmc:
    @pytest.mark.parametrize("chains, seed", [(1, 1), (3, 0)], ids=["one-chain", "ensemble"])
    def test_zero_steps_is_start(self, square3, chains, seed):
        finals = mcmc_ensemble(square3, 0, chains, seed=seed)
        assert np.array_equal(finals, np.tile(rank_lex_indices(square3), (chains, 1)))

    @pytest.mark.parametrize(
        "steps, chains, seed", [(500, 1, 11), (100, 16, 5)], ids=["one-chain", "ensemble"]
    )
    def test_deterministic(self, square3, steps, chains, seed):
        a, b = (mcmc_ensemble(square3, steps, chains, seed=seed) for _ in range(2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "shape, steps, chains, seeds",
        [("cube2", 300, 1, range(5)), ("square3", 200, 64, [8])],
        ids=["one-chain", "ensemble"],
    )
    def test_stays_valid(self, request, shape, steps, chains, seeds):
        shape = request.getfixturevalue(shape)
        for seed in seeds:
            finals = mcmc_ensemble(shape, steps, chains, seed=seed)
            assert finals.shape == (chains, shape.size)
            assert finals.dtype == np.uint8
            for row in finals.tolist():
                LinearExtension(shape, tuple(row))  # constructor validates

    def test_custom_start(self, diamond):
        start = LinearExtension(diamond, (0, 2, 1, 3))
        (final,) = mcmc_ensemble(diamond, 0, 1, seed=3, starts=np.array([start.indices])).tolist()
        assert LinearExtension(diamond, final) == start

    def test_ensemble_mixes_on_diamond(self, diamond):
        finals = mcmc_ensemble(diamond, steps=100, chains=2000, seed=21)
        counts = Counter(tuple(r) for r in finals.tolist())
        assert set(counts) == {(0, 1, 2, 3), (0, 2, 1, 3)}
        assert abs(counts[(0, 1, 2, 3)] - 1000) < 150

    def test_ensemble_rejects_bad_seed(self, square3):
        for seed in (-1, 2**64):
            with pytest.raises(DomainError):
                mcmc_ensemble(square3, 1, 1, seed=seed)

    @pytest.mark.parametrize(
        "steps, chains, laziness, starts, message",
        [
            (-1, 1, 0.5, None, "need steps >= 0"),
            (1, -1, 0.5, None, "need chains >= 0"),
            (1, 1, -0.1, None, "laziness must be in"),
            (1, 1, 1.5, None, "laziness must be in"),
            (1, 2, 0.5, np.zeros((1, 9), dtype=np.int64), r"starts must have shape \(2, 9\)"),
        ],
        ids=["steps", "chains", "laziness-low", "laziness-high", "starts-shape"],
    )
    def test_ensemble_rejects_bad_arguments(self, square3, steps, chains, laziness, starts, message):
        # The CLI checks its own flags first, so only library callers reach these.
        with pytest.raises(DomainError, match=message):
            mcmc_ensemble(square3, steps, chains, seed=0, laziness=laziness, starts=starts)

    def test_full_laziness_never_moves(self, square3):
        finals = mcmc_ensemble(square3, 50, 8, seed=2, laziness=1.0)
        assert np.array_equal(finals, np.tile(rank_lex_indices(square3), (8, 1)))

    def test_walks_refuse_before_building_tables(self):
        # Both shapes are refused before a per-point table is built, so this is instant.
        for shape in (GridShape((10**20, 2)), GridShape((2**20 + 1,))):
            with pytest.raises(ResourceCapError):
                mcmc_ensemble(shape, 1, 1, seed=0)

    def test_swap_table_path_by_shape(self, monkeypatch):
        # The walk asks build_graph with an enumeration cap of 2^16 // size:
        # the swap table when count x size <= 2^16, else a refusal and the
        # cover test.  A shape of at most one chain of length > 1 has one
        # extension and never moves, so it asks nothing.
        asked = []
        real = transposition.build_graph

        def spy(shape, cap):
            try:
                graph = real(shape, cap=cap)
            except ResourceCapError:
                asked.append("covers")
                raise
            asked.append("table")
            return graph

        monkeypatch.setattr(transposition, "build_graph", spy)

        def path(lengths):
            asked.clear()
            mcmc_ensemble(GridShape(lengths), 1, 2, seed=0)
            assert len(asked) <= 1
            return asked[0] if asked else None

        for lengths in [(1,), (256,), (257,), (1, 5, 1)]:
            assert path(lengths) is None, lengths
        for lengths in [(2, 2), (3, 3), (2, 2, 2), (2, 8), (1, 3, 4)]:
            assert path(lengths) == "table", lengths
        for lengths in [(2, 9), (4, 4), (2, 2, 2, 2), (4, 4, 4), (2,) * 5, (2,) * 17]:
            assert path(lengths) == "covers", lengths

    def test_long_chain_returns_its_starts(self):
        # 2000 points, one extension: no swap is legal, so no table is built.
        shape = GridShape((2000,))
        finals = mcmc_ensemble(shape, 10, 3, seed=0)
        assert np.array_equal(finals, np.tile(rank_lex_indices(shape), (3, 1)))

    @pytest.mark.parametrize("lengths", [(4, 4, 3), (8, 8), (2,) * 5])
    def test_covers_path_builds_no_dp(self, built, lengths):
        # Their rank levels alone show more extensions than the table takes,
        # so enumeration refuses them before any completion table is built.
        mcmc_ensemble(GridShape(lengths), 1, 2, seed=0)
        assert built == []

    @given(
        walk_shapes,
        st.integers(0, 2**64 - 1),
        st.integers(0, 40),
        st.integers(0, 30),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.booleans(),
    )
    @settings(deadline=None)
    def test_ensemble_matches_dense_table_oracle(self, shared_tables, shape, seed, steps, chains, laziness, from_draws):
        starts = None
        if from_draws:
            with mock.patch.object(sampling, "completion_counts", shared_tables):  # one table per shape
                sampler = ExactSampler(shape, seed)
            starts = np.array([sampler.sample_indices() for _ in range(chains)], dtype=np.int64)
            starts = starts.reshape(chains, shape.size)
        got = mcmc_ensemble(shape, steps, chains, seed, laziness, starts=starts)
        assert got.dtype == np.min_scalar_type(shape.size - 1)
        assert np.array_equal(got, dense_table_ensemble(shape, steps, chains, seed, laziness, starts))

    @pytest.mark.parametrize("laziness", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lengths", [(4, 4, 4), (1, 4, 4)])
    def test_array_walk_reads_any_layout(self, lengths, laziness):
        # Both shapes test covers.  The walk reads and writes a C-ordered
        # copy through its flat view: F-ordered, broadcast and read-only
        # starts walk as the oracle does, and the caller's array is unchanged.
        shape = GridShape(lengths)
        chains = 12
        mixed = mcmc_ensemble(shape, 40, chains, seed=1)  # rows differ
        read_only = mixed.copy()
        read_only.flags.writeable = False
        layouts = {
            "F-ordered": np.asfortranarray(mixed),
            "broadcast": np.broadcast_to(mixed[0], (chains, shape.size)),
            "read-only": read_only,
        }
        for name, starts in layouts.items():
            before = starts.copy()
            got = mcmc_ensemble(shape, 30, chains, 7, laziness, starts=starts)
            assert np.array_equal(got, dense_table_ensemble(shape, 30, chains, 7, laziness, starts)), name
            assert np.array_equal(starts, before), name
            assert got.flags.c_contiguous and got.dtype == np.uint8, name

    @pytest.mark.parametrize("laziness", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lengths", [(3, 3), (2, 2, 2)])
    def test_swap_table_path_matches_dense_oracle(self, lengths, laziness):
        # Both shapes walk the lazy table, whose cell the coin picks: s to
        # hold, T[s, k] to move.  Laziness 0 always reads T, 1 never does.
        shape = GridShape(lengths)
        starts = mcmc_ensemble(shape, 20, 60, seed=3)  # rows differ
        for begin in (None, starts):
            got = mcmc_ensemble(shape, 40, 60, 11, laziness, starts=begin)
            assert np.array_equal(got, dense_table_ensemble(shape, 40, 60, 11, laziness, begin))
            assert got.flags.c_contiguous and got.dtype == np.uint8

    @pytest.mark.parametrize(
        "lengths, state", [((16, 16), np.uint8), ((2, 129), np.uint16)], ids=["256-points", "258-points"]
    )
    def test_cover_path_state_dtypes_match_dense_oracle(self, lengths, state):
        # The cover path holds the chains in the narrowest unsigned dtype
        # of a point index: 256 points are the most that uint8 holds.
        shape = GridShape(lengths)
        assert np.min_scalar_type(shape.size - 1) == state
        got = mcmc_ensemble(shape, 400, 20, seed=5)
        assert np.array_equal(got, dense_table_ensemble(shape, 400, 20, 5))
        assert got.flags.c_contiguous and got.dtype == state

    @pytest.mark.parametrize(
        "lengths, state", [((2,) * 16, np.uint16), ((2, 32769), np.uint32)], ids=["65536-points", "65538-points"]
    )
    def test_cover_path_wide_state_dtypes_match_loop_oracle(self, lengths, state):
        # Past what a dense pair table holds: 65536 points are the most that
        # uint16 holds.  Their differences b - a, negative too, are taken
        # in a signed dtype.
        shape = GridShape(lengths)
        assert np.min_scalar_type(shape.size - 1) == state
        got = mcmc_ensemble(shape, 30, 4, seed=6)
        assert np.array_equal(got, loop_ensemble(shape, 30, 4, 6))
        assert got.flags.c_contiguous and got.dtype == state

    @pytest.mark.parametrize(
        "lengths, steps, chains, starts",
        [
            ((3, 3), 50, 40, None),
            ((2, 2, 2), 50, 40, "list"),
            ((4, 4, 4), 50, 40, "F-ordered"),
            ((2, 129), 50, 40, "list"),
            ((3, 3), 0, 40, "F-ordered"),
            ((2, 129), 0, 40, "list"),
            ((4, 4, 4), 50, 0, None),
            ((300,), 50, 40, None),
            ((1, 5, 1), 50, 40, "list"),
        ],
        ids=["table", "table-list", "covers", "covers-list", "no-step", "no-step-list", "no-chain", "chain", "chain-list"],
    )
    def test_every_path_returns_narrow_c_ordered_states(self, lengths, steps, chains, starts):
        # 3x3 and 2x2x2 walk the swap table, 4x4x4 and 2x129 test covers;
        # no step, no chain and a chain shape return the starts.  Each path
        # returns the oracle's values in the narrowest unsigned dtype of a
        # point index (uint16 from 257 points), C-ordered.
        shape = GridShape(lengths)
        begin = None if starts is None else dense_table_ensemble(shape, 20, chains, 3)
        if starts == "list":
            begin = begin.tolist()
        elif starts == "F-ordered":
            begin = np.asfortranarray(begin)
        got = mcmc_ensemble(shape, steps, chains, 9, starts=begin)
        assert got.dtype == np.min_scalar_type(shape.size - 1) and got.flags.c_contiguous
        assert got.shape == (chains, shape.size)
        assert np.array_equal(got, dense_table_ensemble(shape, steps, chains, 9, starts=begin))

    @pytest.mark.parametrize("lengths", [(3, 3), (4, 4, 4)])
    def test_list_starts_walk_as_array_starts(self, lengths):
        # 3x3 walks the swap table, 4x4x4 tests covers: both take nested lists.
        shape = GridShape(lengths)
        starts = mcmc_ensemble(shape, 40, 6, seed=1)
        got = mcmc_ensemble(shape, 30, 6, 7, starts=starts.tolist())
        assert np.array_equal(got, mcmc_ensemble(shape, 30, 6, 7, starts=starts))

    def test_state_array_refused_before_allocation(self):
        shape = GridShape((2,) * 17)  # 131072 points: walks, but not with 10^6 chains
        with pytest.raises(ResourceCapError):
            mcmc_ensemble(shape, 1, 10**6, seed=0)

    def test_stationarity_one_step(self, diamond):
        # one lazy step applied to an exact uniform batch stays near uniform
        sampler = ExactSampler(diamond, 77)
        starts = np.array([sampler.sample_indices() for _ in range(3000)], dtype=np.int64)
        finals = mcmc_ensemble(diamond, 1, 3000, seed=78, starts=starts)
        counts = Counter(tuple(r) for r in finals.tolist())
        assert abs(counts[(0, 1, 2, 3)] - 1500) < 170


class TestJumpStats:
    def test_exhaustive_agreement(self, square3, square3_orders):
        stats = jump_stats_from_orders(square3, square3_orders)
        assert stats.samples == 42
        assert stats.mean_degree == pytest.approx(float(exhaustive_mean_degree(square3)))
        assert sum(stats.degree_histogram.values()) == 42

    def test_pits_profile_length(self, square3, square3_orders):
        stats = jump_stats_from_orders(square3, square3_orders)
        assert len(stats.mean_pits_profile) == 9
        assert stats.mean_pits_profile[0] == 2.0  # two pits after placing bottom
        assert stats.mean_pits_profile[-1] == 0.0

    def test_monte_carlo_close(self, square3):
        sampler = ExactSampler(square3, 4242)
        stats = jump_stats_from_orders(square3, (sampler.sample_indices() for _ in range(3000)))
        exact = float(exhaustive_mean_degree(square3))
        assert abs(stats.mean_degree - exact) < 5 * stats.degree_stderr + 1e-12

    def test_empty_rejected(self, square3):
        with pytest.raises(DomainError):
            jump_stats_from_orders(square3, [])

    @pytest.mark.parametrize("lengths, chains", [((3, 3), 1000), ((4, 4), 600)], ids=["table", "array"])
    def test_walk_array_hand_off(self, lengths, chains):
        # The walk's array, cut into blocks as it is, gives the statistics of
        # its rows as tuples; 3x3 and 4x4 rows fill 455 and 256 to a block.
        shape = GridShape(lengths)
        finals = mcmc_ensemble(shape, 50, chains, seed=9)
        stats = jump_stats_from_orders(shape, finals)
        assert stats == jump_stats_from_orders(shape, map(tuple, finals.tolist()))
        assert stats == stats_oracle(shape, finals.tolist())

    @pytest.mark.parametrize("lengths, count", [((3, 3), 1000), ((2, 40), 120), ((1,), 3), ((5,), 1)])
    def test_blocks_match_per_order_oracle(self, lengths, count):
        # 1000 3x3 orders fill two blocks of 455 and part of a third; 2x40
        # has 51 orders a block.  Equality is exact, floats included.
        shape = GridShape(lengths)
        sampler = ExactSampler(shape, count)
        orders = [sampler.sample_indices() for _ in range(count)]
        assert jump_stats_from_orders(shape, iter(orders)) == stats_oracle(shape, orders)


class TestEntropy:
    def test_diamond_profile(self, diamond):
        prof = entropy_profile_exact(diamond)
        assert prof.h == (1.0, 0.0, 0.0)
        assert prof.total_bits == 1.0

    def test_chain_rule(self, square3):
        prof = entropy_profile_exact(square3)
        assert prof.total_bits == pytest.approx(math.log2(42), rel=1e-12)

    def test_chain_rule_cube(self, cube2):
        prof = entropy_profile_exact(cube2)
        assert prof.total_bits == pytest.approx(math.log2(48), rel=1e-12)

    def test_non_equilateral(self):
        s = GridShape((2, 3))
        prof = entropy_profile_exact(s)
        assert prof.total_bits == pytest.approx(math.log2(5), rel=1e-12)

    def test_entries_bounded(self, cube2):
        prof = entropy_profile_exact(cube2)
        width = 3  # largest antichain of [2]^3
        for v in prof.h:
            assert -1e-12 <= v <= math.log2(width) + 1e-12

    def test_singleton(self):
        assert entropy_profile_exact(GridShape((1,))) == EntropyProfile(())

    def test_cap(self):
        from gridext import ResourceCapError

        # 1662804 extensions, above the enumeration cap of 10^5.
        with pytest.raises(ResourceCapError, match="above the enumeration cap of 100000"):
            entropy_profile_exact(GridShape((5, 4)))


class TestPitsDeficit:
    def test_exact_3x3(self, square3):
        # R = 4: threshold (3e/2)/16 ~ 0.2549, only pit counts of 0 qualify;
        # each extension has exactly one zero (the last time), so 1/9 each.
        frac = exact_pits_deficit_fractions(square3, [4.0])[4.0]
        assert frac == Fraction(1, 9)

    def test_exact_batch_matches_single(self, square3):
        batch = exact_pits_deficit_fractions(square3, [1.0, 2.0, 4.0])
        for R in (1.0, 2.0, 4.0):
            assert batch[R] == exact_pits_deficit_fractions(square3, [R])[R]

    def test_monotone_in_R(self, square4):
        batch = exact_pits_deficit_fractions(square4, [1.0, 2.0, 4.0])
        assert batch[1.0] >= batch[2.0] >= batch[4.0]

    def test_threshold_values(self):
        assert pits_threshold(3, 2, 4.0) == pytest.approx((3 * math.e / 2) / 16)
        assert pits_threshold(2, 3, 1.0) == pytest.approx((math.e) ** 2 / 2)
        with pytest.raises(DomainError):
            pits_threshold(3, 2, 0.0)

    def test_requires_equilateral(self):
        with pytest.raises(DomainError):
            exact_pits_deficit_fractions(GridShape((2, 3)), [1.0])

    def test_monte_carlo_matches_exact(self, square3):
        exact = float(exact_pits_deficit_fractions(square3, [2.0])[2.0])
        mean, se = pits_deficit_stats(square3, 27, 3000, 2.0)
        assert abs(mean - exact) < 5 * se + 1e-12
        # The figures of 3000 exact draws with seed 27, bit for bit.
        assert (mean, se) == (0.4178148148148148, 0.0013724395684954526)

    @pytest.mark.parametrize("m, seed, samples, R", [(3, 27, 3000, 2.0), (4, 5, 400, 1.0), (3, 8, 1, 2.0)])
    def test_monte_carlo_matches_exact_fractions(self, m, seed, samples, R):
        # The same draws, the fractions summed as exact rationals: equal to
        # within float rounding, and a standard error of 0 for one draw.
        shape = GridShape.equilateral(m, 2)
        sampler, threshold = ExactSampler(shape, seed), pits_threshold(m, 2, R)
        draws = [sampler.sample_indices() for _ in range(samples)]
        fracs = [Fraction(sum(p < threshold for p in pits_counts(shape, d)), shape.size) for d in draws]
        mean = sum(fracs) / samples
        var = (sum(f * f for f in fracs) - samples * mean * mean) / (samples - 1) if samples > 1 else 0
        expected = (float(mean), math.sqrt(var / samples))
        assert pits_deficit_stats(shape, seed, samples, R) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_monte_carlo_rejects_zero_samples(self, square3):
        with pytest.raises(DomainError):
            pits_deficit_stats(square3, 27, 0, 2.0)


@pytest.fixture(scope="module")
def scipy_chi2():
    return pytest.importorskip("scipy.stats").chi2


class TestDistributionChecks:
    def test_chi_square_interface(self):
        res = chi_square_uniformity([10, 10, 10, 10])
        assert res.statistic == pytest.approx(0.0)
        assert res.dof == 3
        assert res.pvalue == pytest.approx(1.0)
        with pytest.raises(DomainError):
            chi_square_uniformity([5])
        with pytest.raises(DomainError):
            chi_square_uniformity([-1, 3])
        for cell in (float("nan"), float("inf"), 2.5):  # a count is an int, not a float
            with pytest.raises(DomainError):
                chi_square_uniformity([cell, 3])

    @pytest.mark.parametrize(
        "cells, statistic",
        [
            ((3, 5), Fraction(1, 2)),
            ((0, 9), Fraction(9)),
            ((50, 70), Fraction(10, 3)),
            ((1, 400), Fraction(159201, 401)),
            ((1, 2, 3), Fraction(1)),
            ((0, 0, 30), Fraction(60)),
            ((10, 20, 60), Fraction(140, 3)),
        ],
    )
    def test_chi_square_closed_forms(self, cells, statistic):
        # 1 degree of freedom: the tail is erfc(sqrt(x/2)); 2 degrees: exp(-x/2).
        res = chi_square_uniformity(cells)
        assert res.statistic == float(statistic)  # the exact value, rounded once
        x = res.statistic
        closed = math.erfc(math.sqrt(x / 2)) if len(cells) == 2 else math.exp(-x / 2)
        assert res.pvalue == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-300, 0.01, 0.5, 2.9, 3.1, 3.9, 4.1, 10.0, 40.0, 200.0])
    def test_chi2_tail_closed_forms(self, x):
        # Both sides of each switch: series below x/2 < dof/2 + 1, continued fraction above.
        assert sampling._chi2_tail(1, x) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-12)
        assert sampling._chi2_tail(2, x) == pytest.approx(math.exp(-x / 2), rel=1e-12)

    @given(st.integers(1, 300), st.floats(0, 1500))
    def test_chi2_tail_matches_scipy(self, scipy_chi2, dof, x):
        # scipy is a test oracle only; the package never imports it.
        assert sampling._chi2_tail(dof, x) == pytest.approx(float(scipy_chi2.sf(x, dof)), rel=1e-12, abs=1e-12)

    def test_tv_distance(self):
        assert tv_distance_from_uniform([50, 50], 2) == pytest.approx(0.0)
        assert tv_distance_from_uniform([100], 2) == pytest.approx(0.5)
        # all mass on one of four cells: 0.5*(|1-1/4| + 3*(1/4)) = 0.75
        assert tv_distance_from_uniform([60], 4) == pytest.approx(0.75)
        with pytest.raises(DomainError):
            tv_distance_from_uniform([1, 2, 3], 2)
        with pytest.raises(DomainError):
            tv_distance_from_uniform([], 2)
        with pytest.raises(DomainError, match="nonnegative"):
            tv_distance_from_uniform([3, -1], 2)
        for cell in (float("nan"), float("inf"), 2.5):  # a count is an int, not a float
            with pytest.raises(DomainError, match="integers"):
                tv_distance_from_uniform([cell, 3], 2)
        with pytest.raises(DomainError, match="integers"):
            tv_distance_from_uniform([3, 3], 2.5)
        assert tv_distance_from_uniform([np.int64(3), True], np.int64(2)) == pytest.approx(0.25)

    def test_walk_tv_shrinks_with_steps(self, diamond):
        short = mcmc_ensemble(diamond, 1, 4000, seed=91)
        long = mcmc_ensemble(diamond, 60, 4000, seed=91)
        count = count_extensions(diamond)

        def tv(arr):
            c = Counter(tuple(r) for r in arr.tolist())
            return tv_distance_from_uniform(c.values(), count)

        assert tv(long) < tv(short)
