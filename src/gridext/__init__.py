"""Exact and randomized analysis of linear extensions of grid posets.

A grid poset is a product of chains [a_1] x ... x [a_k] under the
componentwise order.  This package counts and enumerates its linear
extensions, samples them uniformly (exactly or by a lazy swap walk),
analyzes jumps and pits, builds the adjacent-swap graph, and evaluates
the closed-form bounds that govern these quantities, with vacuity made
explicit at desk scales.
"""

from ._version import __version__
from .bounds import (
    BoundReport,
    almost_regular_fraction,
    avg_degree_lower_bound,
    bound_reports,
    entropy_deficit_rate,
    factorial_convexity_holds,
    log_count_lower_bound,
    markov_tail_probability,
    pits_fraction_bound,
    pits_threshold,
)
from .counting import (
    DEFAULT_STATE_CAP,
    completion_counts,
    count_extensions,
    count_root_window,
    factorial_product_lower_bound,
    hook_length_count,
    normalized_count_root,
    width_power_upper_bound,
)
from .errors import (
    DomainError,
    GridextError,
    InvalidExtensionError,
    ResourceCapError,
)
from .grid import (
    GridShape,
    max_antichain_size,
    whitney_numbers,
)
from .jumps import (
    LinearExtension,
    jump_times,
    pits_counts,
    rank_lex_indices,
    read_extensions_file,
    write_extensions_file,
)
from .sampling import (
    ChiSquareResult,
    EntropyProfile,
    ExactSampler,
    JumpStats,
    SamplerConfig,
    WordStream,
    chi_square_uniformity,
    entropy_profile_exact,
    exact_pits_deficit_fractions,
    jump_stats_from_orders,
    mcmc_ensemble,
    pits_deficit_stats,
    sample_orders,
    tv_distance_from_uniform,
)
from .transposition import (
    DEFAULT_ENUM_CAP,
    GraphStats,
    TranspositionGraph,
    backtracking_count,
    build_graph,
    enumerate_index_orders,
    exhaustive_mean_degree,
    graph_stats,
    to_dot,
)
from .verify import SUITES, CheckResult, SuiteReport, VerifyConfig, run_suite

__all__ = [
    "__version__",
    # errors
    "GridextError",
    "DomainError",
    "InvalidExtensionError",
    "ResourceCapError",
    # grid
    "GridShape",
    "whitney_numbers",
    "max_antichain_size",
    # counting
    "DEFAULT_STATE_CAP",
    "completion_counts",
    "count_extensions",
    "hook_length_count",
    "factorial_product_lower_bound",
    "width_power_upper_bound",
    "normalized_count_root",
    "count_root_window",
    # extensions and jumps
    "LinearExtension",
    "jump_times",
    "pits_counts",
    "rank_lex_indices",
    "read_extensions_file",
    "write_extensions_file",
    # enumeration and the swap graph
    "DEFAULT_ENUM_CAP",
    "TranspositionGraph",
    "GraphStats",
    "enumerate_index_orders",
    "backtracking_count",
    "exhaustive_mean_degree",
    "build_graph",
    "graph_stats",
    "to_dot",
    # sampling
    "SamplerConfig",
    "WordStream",
    "ExactSampler",
    "mcmc_ensemble",
    "sample_orders",
    "JumpStats",
    "jump_stats_from_orders",
    "EntropyProfile",
    "entropy_profile_exact",
    "pits_deficit_stats",
    "exact_pits_deficit_fractions",
    "ChiSquareResult",
    "chi_square_uniformity",
    "tv_distance_from_uniform",
    # bounds
    "BoundReport",
    "entropy_deficit_rate",
    "log_count_lower_bound",
    "avg_degree_lower_bound",
    "almost_regular_fraction",
    "pits_threshold",
    "pits_fraction_bound",
    "markov_tail_probability",
    "factorial_convexity_holds",
    "bound_reports",
    # verification
    "VerifyConfig",
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "run_suite",
]
