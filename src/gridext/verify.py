"""Named verification suites: cross-checked relations with recorded values.

Each check names the operations and the relation it tests and records the
measured values, so a report never contains a bare pass/fail without
provenance.  Suites are deterministic functions of their configuration;
reports carry the package version and the fully resolved configuration.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from ._version import __version__
from .bounds import (
    avg_degree_lower_bound,
    almost_regular_fraction,
    factorial_convexity_holds,
    log_count_lower_bound,
    markov_tail_probability,
    pits_fraction_bound,
)
from .counting import (
    count_extensions,
    count_root_window,
    factorial_product_lower_bound,
    hook_length_count,
    normalized_count_root,
    width_power_upper_bound,
)
from .errors import DomainError
from .grid import GridShape, max_antichain_size
from .jumps import jump_pit_blocks, jump_times, rank_lex_indices
from .sampling import (
    ExactSampler,
    _check_seed,
    chi_square_uniformity,
    entropy_profile_exact,
    exact_pits_deficit_fractions,
    mcmc_ensemble,
    pits_deficit_stats,
    tv_distance_from_uniform,
)
from .transposition import (
    backtracking_count,
    build_graph,
    enumerate_index_orders,
    exhaustive_mean_degree,
    graph_stats,
)

__all__ = ["VerifyConfig", "CheckResult", "SuiteReport", "SUITES", "run_suite"]

# (m, n) pairs whose normalized count root must sit in the closed window.
SANDWICH_MN = ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3))
# Mixed-chain shapes for the bound-ordering sweep, all of size <= 12.
MIXED_SHAPES = ((2, 3), (2, 5), (3, 4), (2, 2, 3), (2, 6))
# (m, n) pairs small enough for exhaustive graph construction.
EXTREMES_MN = ((2, 2), (3, 2), (2, 3), (4, 2))
ENTROPY_MN = ((2, 2), (3, 2), (2, 3))
DEFICIT_MN = ((3, 2), (4, 2))
DEFICIT_RS = (1.0, 2.0, 4.0)
# Sample sizes of the randomized checks, fixed for every run.
CHI_SAMPLES = 100_000
# The diamond (2x2) check draws from a seed of its own.
DIAMOND_SAMPLES = 2_000
DIAMOND_SEED = 4242
TV_RUNS = 100_000
TV_STEPS = 10_000
DEFICIT_SAMPLES = 20_000
# Convexity vectors: one batch of lengths in 1..10, then one of all their
# entries in 1..20, cut into vectors in order.
CONVEXITY_VECTORS = 10_000


@dataclass(frozen=True)
class VerifyConfig:
    """The one setting of every suite, its seed; recorded verbatim in reports."""

    seed: int = 42

    def __post_init__(self):
        _check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckResult:
    name: str
    relation: str
    observed: str
    expected: str
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: VerifyConfig
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "suite": self.suite,
            "config": self.config.to_dict(),
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (gridext {__version__})"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"{mark} {c.name}: {c.relation} [observed {c.observed}; expected {c.expected}]")
        good = sum(1 for c in self.checks if c.passed)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({good}/{len(self.checks)} checks)")
        return "\n".join(lines) + "\n"


def _check(name: str, relation: str, observed, expected, passed: bool) -> CheckResult:
    return CheckResult(name, relation, str(observed), str(expected), bool(passed))


def suite_counting(cfg: VerifyConfig) -> SuiteReport:
    checks = []

    def listed(shape):
        return sum(1 for _ in enumerate_index_orders(shape))

    oracles = (
        (GridShape((3, 3)), "hook oracle", "hook_length_count", hook_length_count),
        (GridShape((2, 3)), "hook oracle", "hook_length_count", hook_length_count),
        (GridShape.equilateral(2, 3), "enumeration", "number of enumerated extensions", listed),
        (GridShape.equilateral(2, 4), "backtracking oracle", "backtracking_count", backtracking_count),
    )
    for shape, label, relation, oracle in oracles:
        dp = count_extensions(shape)
        value = oracle(shape)
        checks.append(
            _check(
                f"{shape} count vs {label}",
                f"count_extensions == {relation}",
                dp,
                value,
                dp == value,
            )
        )

    ordered_shapes = [GridShape.equilateral(m, n) for m, n in SANDWICH_MN]
    ordered_shapes += [GridShape(lengths) for lengths in MIXED_SHAPES]
    for shape in ordered_shapes:
        lower = factorial_product_lower_bound(shape)
        count = count_extensions(shape)
        upper = width_power_upper_bound(shape)
        checks.append(
            _check(
                f"{shape} bound ordering",
                "factorial_product_lower_bound <= count_extensions <= width_power_upper_bound",
                f"{lower} <= {count} <= {upper}",
                "nondecreasing",
                lower <= count <= upper,
            )
        )

    return SuiteReport("counting", cfg, tuple(checks))


def suite_bounds(cfg: VerifyConfig) -> SuiteReport:
    checks = []
    # Each count once: both the window and the entropy bound read it.
    counts = {(m, n): count_extensions(GridShape.equilateral(m, n)) for m, n in SANDWICH_MN}

    for (m, n), count in counts.items():
        value = normalized_count_root(m, n, count)
        lo, hi = count_root_window(n)
        inside = lo - 1e-9 <= value <= hi + 1e-9
        checks.append(
            _check(
                f"normalized count root ({m},{n})",
                "normalized_count_root within count_root_window",
                f"{value:.12g} in [{lo:.12g}, {hi:.12g}]",
                "inside",
                inside,
            )
        )

    rng = np.random.default_rng(cfg.seed)
    ends = np.cumsum(rng.integers(1, 11, size=CONVEXITY_VECTORS)).tolist()
    entries = rng.integers(1, 21, size=ends[-1]).tolist()
    good = sum(factorial_convexity_holds(entries[lo:hi]) for lo, hi in zip([0, *ends], ends))
    checks.append(
        _check(
            "factorial log-convexity on random vectors",
            "factorial_convexity_holds true for every seeded vector",
            f"{good}/{CONVEXITY_VECTORS}",
            f"{CONVEXITY_VECTORS}/{CONVEXITY_VECTORS}",
            good == CONVEXITY_VECTORS,
        )
    )

    for (m, n), count in counts.items():
        report = log_count_lower_bound(m, n)
        lg_count = math.log(count, 2)
        flag_correct = report.vacuous == (report.value <= 0)
        holds = report.vacuous or lg_count >= report.value - 1e-9
        checks.append(
            _check(
                f"count entropy lower bound ({m},{n})",
                "vacuous flag correct and lg(count) >= non-vacuous bound",
                f"bound {report.value:.6g} (vacuous={report.vacuous}), lg count {lg_count:.6g}",
                "flag matches sign; bound satisfied",
                flag_correct and holds,
            )
        )

    big = log_count_lower_bound(2**10, 2)
    checks.append(
        _check(
            "count entropy lower bound (2^10,2)",
            "bound positive and non-vacuous at very long chains",
            f"{big.value:.12g} (vacuous={big.vacuous})",
            f"{2**20 * 8.0:.12g} (vacuous=False)",
            (not big.vacuous) and math.isclose(big.value, 2**20 * 8.0, rel_tol=1e-12),
        )
    )

    for m, n in EXTREMES_MN:
        shape = GridShape.equilateral(m, n)
        report = avg_degree_lower_bound(m, n)
        mean_deg = exhaustive_mean_degree(shape)
        holds = float(mean_deg) >= report.value - 1e-9
        checks.append(
            _check(
                f"average degree bound ({m},{n})",
                "exhaustive mean degree >= avg_degree_lower_bound (vacuous at desk scale)",
                f"mean {float(mean_deg):.6g} vs bound {report.value:.6g} (vacuous={report.vacuous})",
                "bound satisfied, vacuous=True",
                holds and report.vacuous,
            )
        )

    huge = avg_degree_lower_bound(2**192, 2)
    checks.append(
        _check(
            "average degree bound (2^192,2)",
            "non-vacuous with value half the grid size",
            f"{huge.value:.12g} (vacuous={huge.vacuous})",
            f"{0.5 * float(2**384):.12g} (vacuous=False)",
            (not huge.vacuous) and math.isclose(huge.value, 0.5 * float(2**384), rel_tol=1e-12),
        )
    )

    near = almost_regular_fraction(2**768, 2)
    desk = almost_regular_fraction(3, 2)
    checks.append(
        _check(
            "almost-regular fraction flags",
            "0.5 non-vacuous at lg m = 768; vacuous at m = 3",
            f"{near.value:.6g} (vacuous={near.vacuous}); {desk.value:.6g} (vacuous={desk.vacuous})",
            "0.5 (False); >= 1 (True)",
            math.isclose(near.value, 0.5, rel_tol=1e-12) and not near.vacuous and desk.vacuous,
        )
    )

    tail_flat = markov_tail_probability(1.0)
    tail_4 = markov_tail_probability(4.0)
    checks.append(
        _check(
            "tail probability flags",
            "delta=1 vacuous at 1; delta=4 gives 0.25",
            f"{tail_flat.value} (vacuous={tail_flat.vacuous}); {tail_4.value} (vacuous={tail_4.vacuous})",
            "1.0 (True); 0.25 (False)",
            tail_flat.vacuous
            and tail_flat.value == 1.0
            and not tail_4.vacuous
            and tail_4.value == 0.25,
        )
    )

    for m, n in DEFICIT_MN:
        shape = GridShape.equilateral(m, n)
        fractions = exact_pits_deficit_fractions(shape, DEFICIT_RS)
        for R in DEFICIT_RS:
            bound = pits_fraction_bound(n, R)
            measured = fractions[R]
            checks.append(
                _check(
                    f"low-pits fraction ({m},{n}) R={R:g}",
                    "exhaustive deficit fraction <= pits_fraction_bound",
                    f"{float(measured):.6g} (= {measured})",
                    f"<= {bound.value:.6g} (vacuous={bound.vacuous})",
                    measured <= Fraction(bound.value),
                )
            )

    return SuiteReport("bounds", cfg, tuple(checks))


def suite_extremes(cfg: VerifyConfig) -> SuiteReport:
    checks = []
    for m, n in EXTREMES_MN:
        shape = GridShape.equilateral(m, n)
        graph = build_graph(shape)
        stats = graph_stats(graph)
        size = shape.size

        checks.append(
            _check(
                f"{shape} max degree",
                "max vertex degree == m^n - 3",
                stats.max_degree,
                size - 3,
                stats.max_degree == size - 3,
            )
        )
        checks.append(
            _check(
                f"{shape} min degree",
                "min vertex degree == m^(n-1) - 1",
                stats.min_degree,
                m ** (n - 1) - 1,
                stats.min_degree == m ** (n - 1) - 1,
            )
        )
        # This relation text and "graph degree == jumps(vertex).degree" below
        # name jumps() and rank_lex_extension(), which the package no longer
        # has (a jump count is len(jump_times(...))).  The texts are frozen:
        # the benchmark's verify-extremes report digest holds these bytes.
        rank_lex_deg = len(jump_times(shape, rank_lex_indices(shape)))
        checks.append(
            _check(
                f"{shape} rank-lex attains max",
                "jumps(rank_lex_extension).degree == max degree",
                rank_lex_deg,
                stats.max_degree,
                rank_lex_deg == stats.max_degree,
            )
        )
        jump_counts = []
        bad_boundary = 0
        for jumps, _ in jump_pit_blocks(shape, graph.orders):
            jump_counts.append(jumps.sum(axis=1))
            bad_boundary += int(np.count_nonzero(jumps[:, 0] | jumps[:, -1]))
        jump_counts = np.concatenate(jump_counts)
        degree_mismatch = int(np.count_nonzero(jump_counts != graph.degrees))
        jump_total = int(jump_counts.sum())
        checks.append(
            _check(
                f"{shape} boundary times never jump",
                "no extension jumps at time 1 or size-1",
                f"{bad_boundary} offenders",
                "0 offenders",
                bad_boundary == 0,
            )
        )
        checks.append(
            _check(
                f"{shape} degree equals jump count",
                "graph degree == jumps(vertex).degree for every vertex",
                f"{degree_mismatch} mismatches",
                "0 mismatches",
                degree_mismatch == 0,
            )
        )
        checks.append(
            _check(
                f"{shape} connectivity",
                "swap graph connected",
                stats.connected,
                True,
                stats.connected,
            )
        )
        mean_by_jumps = Fraction(jump_total, stats.vertices)
        checks.append(
            _check(
                f"{shape} handshake",
                "2 edges / vertices == mean jump count (exact rationals)",
                f"{stats.avg_degree}",
                f"{mean_by_jumps}",
                stats.avg_degree == mean_by_jumps,
            )
        )
    return SuiteReport("extremes", cfg, tuple(checks))


def suite_entropy(cfg: VerifyConfig) -> SuiteReport:
    checks = []
    for m, n in ENTROPY_MN:
        shape = GridShape.equilateral(m, n)
        profile = entropy_profile_exact(shape)
        count = count_extensions(shape)
        lg_count = math.log(count, 2)
        rel_err = abs(profile.total_bits - lg_count) / max(1.0, abs(lg_count))
        checks.append(
            _check(
                f"{shape} chain rule",
                "sum of conditional entropies == lg(count) within 1e-9 relative",
                f"{profile.total_bits:.12g} vs {lg_count:.12g} (rel err {rel_err:.3g})",
                "<= 1e-9",
                rel_err <= 1e-9,
            )
        )
        ceiling = math.log2(max_antichain_size(shape))
        worst = max(profile.h) if profile.h else 0.0
        checks.append(
            _check(
                f"{shape} antichain ceiling",
                "every conditional entropy <= lg(max antichain size)",
                f"max entry {worst:.12g}",
                f"<= {ceiling:.12g}",
                worst <= ceiling + 1e-12,
            )
        )
    diamond = entropy_profile_exact(GridShape.equilateral(2, 2))
    checks.append(
        _check(
            "diamond profile",
            "profile of the 2x2 grid is (1, 0, 0): only the second point is uncertain",
            f"{tuple(round(x, 12) for x in diamond.h)}",
            "(1.0, 0.0, 0.0)",
            diamond.h == (1.0, 0.0, 0.0),
        )
    )
    return SuiteReport("entropy", cfg, tuple(checks))


def suite_sampling(cfg: VerifyConfig) -> SuiteReport:
    checks = []
    shape = GridShape.equilateral(3, 2)
    support = list(enumerate_index_orders(shape))

    sampler = ExactSampler(shape, cfg.seed)
    counts = Counter(sampler.sample_indices() for _ in range(CHI_SAMPLES))
    unexpected = set(counts) - set(support)
    cells = [counts.get(o, 0) for o in support]
    chi = chi_square_uniformity(cells)
    checks.append(
        _check(
            "exact sampler support",
            "every sampled extension appears in the enumerated support",
            f"{len(unexpected)} foreign sequences",
            "0",
            not unexpected,
        )
    )
    checks.append(
        _check(
            "exact sampler uniformity",
            f"chi-square over {len(support)} cells, {CHI_SAMPLES} samples, p > 0.01",
            f"stat {chi.statistic:.4f}, p {chi.pvalue:.4f}",
            "p > 0.01",
            chi.pvalue > 0.01,
        )
    )
    diamond = ExactSampler(GridShape((2, 2)), DIAMOND_SEED)
    drawn = Counter(diamond.sample_indices() for _ in range(DIAMOND_SAMPLES))
    cells = [drawn[(0, 1, 2, 3)], drawn[(0, 2, 1, 3)]]  # its two extensions
    chi = chi_square_uniformity(cells)
    checks.append(
        _check(
            "diamond sampler uniformity",
            f"chi-square over the 2 extensions of 2x2, {DIAMOND_SAMPLES} samples at seed {DIAMOND_SEED}, p > 0.001",
            f"stat {chi.statistic:.4f}, p {chi.pvalue:.4f}",
            "p > 0.001",
            sum(cells) == DIAMOND_SAMPLES and chi.pvalue > 0.001,
        )
    )

    finals = mcmc_ensemble(shape, TV_STEPS, TV_RUNS, cfg.seed)
    walk_counts = Counter(map(tuple, finals.tolist()))
    foreign = set(walk_counts) - set(support)
    checks.append(
        _check(
            "walk sampler support",
            "every walk final appears in the enumerated support",
            f"{len(foreign)} foreign sequences",
            "0",
            not foreign,
        )
    )
    tv = tv_distance_from_uniform(walk_counts.values(), len(support))
    checks.append(
        _check(
            "walk sampler distance",
            f"TV distance to uniform after {TV_STEPS} steps over {TV_RUNS} runs < 0.05",
            f"{tv:.5f}",
            "< 0.05",
            tv < 0.05,
        )
    )

    first = ExactSampler(shape, cfg.seed)
    second = ExactSampler(shape, cfg.seed)
    exact_same = all(first.sample_indices() == second.sample_indices() for _ in range(50))
    walk_same = np.array_equal(*(mcmc_ensemble(shape, 500, 1, cfg.seed) for _ in range(2)))
    checks.append(
        _check(
            "determinism",
            "identical seeds reproduce identical samples byte-for-byte",
            f"exact={exact_same}, walk={walk_same}",
            "exact=True, walk=True",
            exact_same and walk_same,
        )
    )

    exact_frac = exact_pits_deficit_fractions(shape, [2.0])[2.0]
    mc_mean, mc_se = pits_deficit_stats(shape, cfg.seed, DEFICIT_SAMPLES, 2.0)
    slack = max(4 * mc_se, 1e-9)
    agree = abs(mc_mean - float(exact_frac)) <= slack
    checks.append(
        _check(
            "deficit estimator agreement",
            "Monte-Carlo low-pits fraction within 4 standard errors of the exhaustive value",
            f"{mc_mean:.6g} (se {mc_se:.2g}) vs exact {float(exact_frac):.6g}",
            f"|diff| <= {slack:.2g}",
            agree,
        )
    )

    return SuiteReport("sampling", cfg, tuple(checks))


SUITES = {
    "counting": suite_counting,
    "bounds": suite_bounds,
    "extremes": suite_extremes,
    "entropy": suite_entropy,
    "sampling": suite_sampling,
}


def run_suite(name: str, cfg: VerifyConfig | None = None) -> list[SuiteReport]:
    """Run one suite by name, or all of them with name 'all'."""
    cfg = cfg or VerifyConfig()
    if name == "all":
        return [fn(cfg) for fn in SUITES.values()]
    if name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise DomainError(f"unknown suite {name!r}; available: {known}")
    return [SUITES[name](cfg)]
