"""Closed-form bound formulas: values, vacuity flags, convexity check."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridext import (
    DomainError,
    GridShape,
    WordStream,
    almost_regular_fraction,
    avg_degree_lower_bound,
    bound_reports,
    count_extensions,
    entropy_deficit_rate,
    exact_pits_deficit_fractions,
    exhaustive_mean_degree,
    factorial_convexity_holds,
    log_count_lower_bound,
    markov_tail_probability,
    pits_fraction_bound,
    pits_threshold,
)
from gridext import verify


class TestDeficitRate:
    def test_values(self):
        assert entropy_deficit_rate(2) == pytest.approx(2.0)
        assert entropy_deficit_rate(4) == pytest.approx(1.0)
        assert entropy_deficit_rate(16) == pytest.approx(5 / 15)

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_deficit_rate(1)

    @given(st.integers(2, 2**53))
    def test_equals_float_quotient(self, n):
        assert entropy_deficit_rate(n) == (1 + math.log2(n)) / (n - 1)


class TestLogCountBound:
    def test_vacuous_at_small_m(self):
        for m in (2, 3, 4):
            r = log_count_lower_bound(m, 2)
            assert r.vacuous and r.value <= 0.0

    def test_nonvacuous_at_m5(self):
        r = log_count_lower_bound(5, 2)
        assert not r.vacuous
        assert r.value == pytest.approx(25 * (math.log2(5) - 2), rel=1e-12)
        lg_count = math.log2(count_extensions(GridShape.equilateral(5, 2)))
        assert lg_count >= r.value

    def test_long_chain_value(self):
        r = log_count_lower_bound(2**10, 2)
        assert not r.vacuous
        assert r.value == pytest.approx(8.0 * 2**20, rel=1e-12)

    def test_holds_where_nonvacuous(self):
        # every non-vacuous desk case must be consistent with the true count
        for m, n in [(5, 2), (6, 2), (7, 2)]:
            r = log_count_lower_bound(m, n)
            if not r.vacuous:
                count = count_extensions(GridShape.equilateral(m, n))
                assert math.log2(count) >= r.value

    def test_domain(self):
        with pytest.raises(DomainError):
            log_count_lower_bound(1, 2)
        with pytest.raises(DomainError):
            log_count_lower_bound(2, 1)


class TestAvgDegreeBound:
    def test_vacuous_at_desk_scale(self, square3):
        r = avg_degree_lower_bound(3, 2)
        assert r.vacuous
        # still consistent: any actual mean degree beats a nonpositive bound
        assert float(exhaustive_mean_degree(square3)) >= r.value

    def test_nonvacuous_at_huge_m(self):
        r = avg_degree_lower_bound(2**192, 2)
        assert not r.vacuous
        assert r.value == pytest.approx(0.5 * float(2**384), rel=1e-12)

    def test_threshold_m(self):
        # informative exactly when lg m > 48 lg n
        assert avg_degree_lower_bound(2**49, 2).vacuous is False
        assert avg_degree_lower_bound(2**47, 2).vacuous is True


class TestAlmostRegular:
    def test_vacuous_at_desk_scale(self):
        r = almost_regular_fraction(3, 2)
        assert r.vacuous and r.value >= 1.0

    def test_half_at_lg_m_768(self):
        r = almost_regular_fraction(2**768, 2)
        assert not r.vacuous
        assert r.value == pytest.approx(0.5, rel=1e-12)


class TestAstronomicM:
    """m^n past the double range: inf, never OverflowError or nan."""

    def test_lg_m_768(self):
        count = log_count_lower_bound(2**768, 2)
        degree = avg_degree_lower_bound(2**768, 2)
        assert count.value == math.inf and not count.vacuous
        assert degree.value == math.inf and not degree.vacuous

    def test_square_just_past_the_double_range(self):
        # n lg m is about 1024.76, under the lg test's 1025, so float(m^n)
        # itself overflows: inf, not vacuous, as for any m^n past the range.
        m = int(1.3 * 2**512)
        for report in (log_count_lower_bound(m, 2), avg_degree_lower_bound(m, 2)):
            assert report.value == math.inf and not report.vacuous

    def test_zero_factor_stays_zero(self):
        # lg m == 48 lg n exactly, with m^n = 2^1152 past the double range
        r = avg_degree_lower_bound(2**144, 8)
        assert r.value == 0.0 and r.vacuous

    def test_pits_threshold(self):
        assert pits_threshold(2**768, 3, 1.0) == math.inf
        assert pits_threshold(2**2000, 2, 1.0) == math.inf


class TestAstronomicN:
    """n past the double range: 0.0 or +-inf, never OverflowError."""

    N = 2**1100

    def test_deficit_rate(self):
        assert entropy_deficit_rate(self.N) == 0.0
        # n - 1 past the double range but the quotient still a normal double
        assert entropy_deficit_rate(2**1025) == pytest.approx(1026 / 2**1025, rel=1e-12)

    def test_log_count(self):
        r = log_count_lower_bound(3, self.N)
        assert r.value == math.inf and not r.vacuous

    def test_avg_degree(self):
        r = avg_degree_lower_bound(3, self.N)
        assert r.value == -math.inf and r.vacuous


class TestPits:
    def test_threshold(self):
        assert pits_threshold(3, 2, 4.0) == pytest.approx(2.0**-4 * (3 * math.e / 2))
        assert pits_threshold(2, 3, 1.0) == pytest.approx(0.5 * math.e**2)
        with pytest.raises(DomainError):
            pits_threshold(3, 2, 0.0)
        with pytest.raises(DomainError):
            pits_threshold(1, 2, 1.0)

    def test_fraction_bound(self):
        r1 = pits_fraction_bound(2, 1.0)
        assert r1.value == pytest.approx(2.0) and r1.vacuous
        r4 = pits_fraction_bound(2, 4.0)
        assert r4.value == pytest.approx(0.5) and not r4.vacuous
        with pytest.raises(DomainError):
            pits_fraction_bound(2, 0.0)
        with pytest.raises(DomainError):
            pits_fraction_bound(1, 1.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: entropy_deficit_rate(1), "need n >= 2, got n=1"),
            (lambda: pits_fraction_bound(1, 0.0), "need n >= 2, got n=1"),
            (lambda: pits_fraction_bound(2, -1), "need R > 0, got R=-1.0"),
            (lambda: pits_threshold(3, 2, math.nan), "need R > 0, got R=nan"),
        ],
    )
    def test_one_message_per_check(self, call, message):
        # n is checked before R, and each check words its refusal one way.
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message

    def test_exhaustive_deficit_below_bound(self, square3):
        for R in (1.0, 2.0, 4.0):
            frac = exact_pits_deficit_fractions(square3, [R])[R]
            bound = pits_fraction_bound(2, R)
            assert float(frac) <= bound.value + 1e-12


class TestMarkov:
    def test_values_and_vacuity(self):
        r1 = markov_tail_probability(1.0)
        assert r1.value == 1.0 and r1.vacuous
        r4 = markov_tail_probability(4.0)
        assert r4.value == 0.25 and not r4.vacuous

    def test_domain(self):
        with pytest.raises(DomainError):
            markov_tail_probability(0.5)

    def test_nan_rejected(self):
        # NaN fails every comparison, so a guard written as `delta < 1` let it through.
        with pytest.raises(DomainError):
            markov_tail_probability(math.nan)
        with pytest.raises(DomainError):
            pits_threshold(3, 2, math.nan)
        with pytest.raises(DomainError):
            pits_fraction_bound(2, math.nan)


class TestConvexity:
    def test_strict_example(self):
        assert factorial_convexity_holds([1, 5])
        assert factorial_convexity_holds([2, 3, 7])
        assert factorial_convexity_holds([np.int64(2), np.uint8(7), True])  # integer types, read by operator.index

    def test_equality_case(self):
        assert factorial_convexity_holds([4, 4, 4, 4])
        assert factorial_convexity_holds([1])

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=10))
    def test_always_holds(self, vals):
        assert factorial_convexity_holds(vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            factorial_convexity_holds([])
        with pytest.raises(DomainError):
            factorial_convexity_holds([0, 2])
        for entry in (float("nan"), float("inf"), 2.5, 3.0):  # an entry is an int, not a float
            with pytest.raises(DomainError, match="integers"):
                factorial_convexity_holds([entry, 3])


class TestBoundsSuite:
    def test_draws_and_counts(self):
        # The suite checks CONVEXITY_VECTORS vectors from WordStream(seed),
        # lengths in 1..10 and entries in 1..20, each by
        # factorial_convexity_holds, and counts each SANDWICH_MN shape once
        # for both of its checks.
        vectors, shapes = [], []

        def holds(values):
            vectors.append(list(values))
            return factorial_convexity_holds(values)

        def count(shape):
            shapes.append(shape)
            return count_extensions(shape)

        with mock.patch.object(verify, "factorial_convexity_holds", holds), \
                mock.patch.object(verify, "count_extensions", count):
            report = verify.suite_bounds(verify.VerifyConfig(seed=11))
        assert report.passed
        assert len(vectors) == verify.CONVEXITY_VECTORS
        assert {len(vec) for vec in vectors} == set(range(1, 11))
        assert {b for vec in vectors for b in vec} == set(range(1, 21))
        assert shapes == [GridShape.equilateral(m, n) for m, n in verify.SANDWICH_MN]
        # The documented rule, one word per value, in Python ints: the
        # lengths from the first CONVEXITY_VECTORS words, then the entries.
        stream = WordStream(11)
        lengths = [1 + ((stream.word() >> 32) * 10 >> 32) for _ in range(verify.CONVEXITY_VECTORS)]
        assert [len(vec) for vec in vectors] == lengths
        entries = [1 + ((stream.word() >> 32) * 20 >> 32) for _ in range(sum(lengths))]
        assert [b for vec in vectors for b in vec] == entries


class TestReports:
    def test_composition(self):
        base = bound_reports(3, 2)
        assert [r.name for r in base] == [
            "log_count_lower_bound",
            "avg_degree_lower_bound",
            "almost_regular_fraction",
        ]
        full = bound_reports(3, 2, R=4.0, delta=4.0)
        assert [r.name for r in full] == [
            "log_count_lower_bound",
            "avg_degree_lower_bound",
            "almost_regular_fraction",
            "pits_threshold",
            "pits_fraction_bound",
            "markov_tail_probability",
        ]

    def test_to_dict(self):
        d = markov_tail_probability(4.0).to_dict()
        assert d == {
            "name": "markov_tail_probability",
            "inputs": {"delta": 4.0},
            "value": 0.25,
            "vacuous": False,
        }
