"""Random sampling: determinism contract, uniformity, entropy, pit deficits."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridext import (
    DomainError,
    EntropyProfile,
    ExactSampler,
    GridShape,
    LinearExtension,
    ResourceCapError,
    SamplerConfig,
    WordStream,
    chi_square_uniformity,
    count_extensions,
    entropy_profile_exact,
    enumerate_index_orders,
    exact_pits_deficit_fractions,
    exhaustive_mean_degree,
    jump_stats_from_orders,
    mcmc_ensemble,
    pits_deficit_stats,
    pits_threshold,
    rank_lex_indices,
    sample_orders,
    tv_distance_from_uniform,
)
from gridext.sampling import _fits_swap_table


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


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.method == "exact"
        assert cfg.mcmc_steps == 10_000
        assert cfg.laziness == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(method="bogus")
        with pytest.raises(DomainError):
            SamplerConfig(seed=-1)
        with pytest.raises(DomainError):
            SamplerConfig(seed=2**64)
        with pytest.raises(DomainError):
            SamplerConfig(mcmc_steps=-1)
        with pytest.raises(DomainError):
            SamplerConfig(laziness=1.5)


class TestExactSampler:
    def test_deterministic_per_seed(self, square3):
        def draws(seed):
            sampler = ExactSampler(square3, seed)
            return [sampler.sample() for _ in range(20)]

        a = draws(99)
        assert a == draws(99)
        assert a != draws(100)

    def test_samples_are_valid(self, cube2):
        sampler = ExactSampler(cube2, 17)
        for _ in range(50):
            sampler.sample()  # LinearExtension constructor validates

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

    def test_chain_sampling(self):
        s = GridShape((4,))
        assert ExactSampler(s, 0).sample_indices() == (0, 1, 2, 3)


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
            assert finals.dtype == np.int64
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

    def test_full_laziness_never_moves(self, square3):
        finals = mcmc_ensemble(square3, 50, 8, seed=2, laziness=1.0)
        assert np.array_equal(finals, np.tile(rank_lex_indices(square3), (8, 1)))

    def test_walks_refuse_before_building_tables(self):
        # Both shapes are refused before a per-point table is built, so this is instant.
        for shape in (GridShape((10**20, 2)), GridShape((2**20 + 1,))):
            with pytest.raises(ResourceCapError):
                mcmc_ensemble(shape, 1, 1, seed=0)

    def test_swap_table_path_by_shape(self):
        # count x size <= 2^16 and size <= 2^8 walk the swap table; the rest tests covers.
        for lengths in [(1,), (256,), (2, 2), (3, 3), (2, 2, 2), (2, 8), (1, 3, 4)]:
            assert _fits_swap_table(GridShape(lengths))
        for lengths in [(257,), (2, 9), (4, 4), (2, 2, 2, 2), (4, 4, 4), (2,) * 5, (2,) * 17]:
            assert not _fits_swap_table(GridShape(lengths))

    @given(
        walk_shapes,
        st.integers(0, 2**64 - 1),
        st.integers(0, 40),
        st.integers(0, 30),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.booleans(),
    )
    @settings(deadline=None)
    def test_ensemble_matches_dense_table_oracle(self, shape, seed, steps, chains, laziness, from_draws):
        starts = None
        if from_draws:
            sampler = ExactSampler(shape, seed)
            starts = np.array([sampler.sample_indices() for _ in range(chains)], dtype=np.int64)
            starts = starts.reshape(chains, shape.size)
        got = mcmc_ensemble(shape, steps, chains, seed, laziness, starts=starts)
        assert got.dtype == np.int64
        assert np.array_equal(got, dense_table_ensemble(shape, steps, chains, seed, laziness, starts))

    def test_state_array_refused_before_allocation(self):
        shape = GridShape((2,) * 17)  # 131072 points: walks, but not with 10^6 chains
        with pytest.raises(ResourceCapError):
            mcmc_ensemble(shape, 1, 10**6, seed=0)

    def test_stationarity_one_step(self, diamond):
        # one lazy step applied to an exact uniform batch stays near uniform
        starts = np.array(
            list(sample_orders(diamond, SamplerConfig(seed=77), 3000)), dtype=np.int64
        )
        finals = mcmc_ensemble(diamond, 1, 3000, seed=78, starts=starts)
        counts = Counter(tuple(r) for r in finals.tolist())
        assert abs(counts[(0, 1, 2, 3)] - 1500) < 170


class TestSampleOrders:
    def test_exact_stream_matches_sampler(self, square3):
        cfg = SamplerConfig(method="exact", seed=31)
        got = list(sample_orders(square3, cfg, 10))
        sampler = ExactSampler(square3, 31)
        assert got == [sampler.sample_indices() for _ in range(10)]

    def test_mcmc_stream_matches_ensemble(self, square3):
        cfg = SamplerConfig(method="mcmc", seed=13, mcmc_steps=50)
        got = list(sample_orders(square3, cfg, 6))
        finals = mcmc_ensemble(square3, 50, 6, 13, 0.5)
        assert got == [tuple(r) for r in finals.tolist()]

    def test_rejects_zero_samples(self, diamond):
        with pytest.raises(DomainError):
            list(sample_orders(diamond, SamplerConfig(), 0))


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
        cfg = SamplerConfig(method="exact", seed=4242)
        stats = jump_stats_from_orders(square3, sample_orders(square3, cfg, 3000))
        exact = float(exhaustive_mean_degree(square3))
        assert abs(stats.mean_degree - exact) < 5 * stats.degree_stderr + 1e-12

    def test_empty_rejected(self, square3):
        with pytest.raises(DomainError):
            jump_stats_from_orders(square3, [])


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

    def test_cap(self, square3):
        from gridext import ResourceCapError

        with pytest.raises(ResourceCapError):
            entropy_profile_exact(square3, cap=10)


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
        cfg = SamplerConfig(method="exact", seed=27)
        mean, se = pits_deficit_stats(square3, cfg, 3000, 2.0)
        assert abs(mean - exact) < 5 * se + 1e-12


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

    def test_tv_distance(self):
        assert tv_distance_from_uniform([50, 50], 2) == pytest.approx(0.0)
        assert tv_distance_from_uniform([100], 2) == pytest.approx(0.5)
        # all mass on one of four cells: 0.5*(|1-1/4| + 3*(1/4)) = 0.75
        assert tv_distance_from_uniform([60], 4) == pytest.approx(0.75)
        with pytest.raises(DomainError):
            tv_distance_from_uniform([1, 2, 3], 2)
        with pytest.raises(DomainError):
            tv_distance_from_uniform([], 2)

    def test_walk_tv_shrinks_with_steps(self, diamond):
        short = mcmc_ensemble(diamond, 1, 4000, seed=91)
        long = mcmc_ensemble(diamond, 60, 4000, seed=91)
        count = count_extensions(diamond)

        def tv(arr):
            c = Counter(tuple(r) for r in arr.tolist())
            return tv_distance_from_uniform(c.values(), count)

        assert tv(long) < tv(short)
