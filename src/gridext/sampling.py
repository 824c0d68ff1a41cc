"""Random generation of linear extensions and empirical statistics.

Two samplers are provided:

- Exact: walks down the down-set lattice, drawing each next point among the
  current pits with probability proportional to the number of completions
  of the enlarged prefix (shared with the counting engine).  Output is
  exactly uniform over all extensions.
- Random walk: a lazy chain on extensions that repeatedly picks a position
  and swaps the consecutive pair there when incomparable.  Its stationary
  distribution is uniform; no mixing-time guarantee is asserted, callers
  choose the step count and the code reports empirical distances only.

Exact low-pits fractions are sums over the down-set lattice (see the
counting module); the exact entropy profile enumerates, as an oracle.

Determinism contract (external, bit-exact):

- The exact sampler consumes one stream of 64-bit words from numpy's PCG64
  bit generator seeded with SeedSequence(seed); word i is the i-th output
  of random_raw.
- randbelow(n): let k = n.bit_length(); assemble ceil(k/64) consecutive
  words big-endian (earlier word more significant) and keep the top k bits
  of that block; reject values >= n and redraw.  randbelow(1) is 0 and
  consumes no word.
- Exact sampler step: draw r = randbelow(g(D)) and scan the pits of D in
  increasing canonical index, subtracting each pit's completion count from
  r until it fits.  On lattices of at most 2^12 down-sets the sampler keeps,
  per visited D, the pits and their running weight sums and picks the
  first pit whose running sum exceeds r (bisect_right), which is the pit
  the scan stops at: keeping them changes no draw.
- The walk ensemble, the package's only swap walk, draws from numpy
  Generator(PCG64(seed)): per step one integers(1, size, size=chains)
  batch, then one random(chains) batch; chain c holds when its coin is
  < laziness.  It has two paths, chosen by shape alone: a state-indexed
  walk over the swap table when count x size is at most 2^16 (build_graph
  with an enumeration cap of 2^16 // size), and an array walk with the
  cover test otherwise.  The array walk keeps the chains as the rows of one
  C-ordered array and reads and writes each chain's pair (k - 1, k)
  through its flat row-major view, at index chain x size + k.  Both
  paths consume this draw pattern and make the same moves, so their
  output is byte-identical.

For parallel use, derive stream i from SeedSequence((seed, i)).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bounds import pits_threshold
from .counting import completion_counts
from .errors import DomainError, ResourceCapError
from .grid import GridShape
from .jumps import LinearExtension, jump_pit_blocks, rank_lex_indices
from .transposition import build_graph, enumerate_index_orders, order_ids

__all__ = [
    "WordStream",
    "ExactSampler",
    "mcmc_ensemble",
    "JumpStats",
    "jump_stats_from_orders",
    "EntropyProfile",
    "entropy_profile_exact",
    "pits_deficit_stats",
    "exact_pits_deficit_fractions",
    "ChiSquareResult",
    "chi_square_uniformity",
    "tv_distance_from_uniform",
]


def _check_seed(seed: int) -> None:
    if not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be a 64-bit nonnegative integer, got {seed}")


# Words fetched from the bit generator per refill; buffering never changes the stream.
_WORD_BUFFER = 4096
# The exact sampler keeps its per-down-set draw tables when the completion
# table has at most this many down-sets.  Past it few visits repeat: 500
# draws on 4x4x4 (232848 down-sets) visit 15922 of them, and keeping their
# tables added 12 MB to the peak and made a draw slower (403 against 315 us).
_MEMO_MAX_STATES = 1 << 12


class WordStream:
    """Buffered 64-bit word stream with the documented seed-to-stream mapping.

    Word i is always the i-th random_raw output of PCG64(SeedSequence(seed)).
    """

    def __init__(self, seed: int):
        _check_seed(seed)
        bitgen = np.random.PCG64(np.random.SeedSequence(int(seed)))
        # One iterator over the Python ints of successive refills.
        refills = iter(lambda: bitgen.random_raw(_WORD_BUFFER).tolist(), None)
        self._words = itertools.chain.from_iterable(refills)

    def word(self) -> int:
        """Next raw 64-bit word."""
        return next(self._words)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by top-bits rejection."""
        if n <= 0:
            raise DomainError(f"need n >= 1, got {n}")
        if n == 1:
            return 0
        k = n.bit_length()
        words = -(-k // 64)
        shift = 64 * words - k
        while True:
            v = 0
            for _ in range(words):
                v = v << 64 | next(self._words)
            v >>= shift
            if v < n:
                return v


class ExactSampler:
    """Draws exactly uniform extensions of one shape from a single stream.

    Builds (or reuses) the completion-count table once; each sample walks
    the lattice from the empty down-set, choosing the next point among the
    current pits with weight g(D + v).  Samples from one instance form one
    deterministic sequence per seed.

    On lattices of at most 2^12 down-sets the pits of each visited D and
    their running weight sums are kept, and a draw is one bisect_right over
    them, the pit the documented scan stops at (see the module docstring).
    """

    def __init__(self, shape: GridShape, seed: int, state_cap: int | None = None):
        self.shape = shape
        self._stream = WordStream(seed)  # checks the seed before the DP is built
        self._g = completion_counts(shape, state_cap)
        self._memo: dict[int, tuple] | None = {} if len(self._g) <= _MEMO_MAX_STATES else None

    def _choices(self, placed: int) -> tuple:
        """The memo entry of the down-set D = placed, built on its first visit:
        (g(D), shift, running weight sums, next down-sets, pit indices).
        shift is 64 - bit_length(g(D)) when one word draws below g(D), and
        -1 when it takes more."""
        g = self._g
        nexts = []
        rest = self.shape.pit_mask(placed)
        while rest:
            low = rest & -rest
            nexts.append(placed | low)
            rest ^= low
        total = g[placed]
        shift = 64 - total.bit_length() if total.bit_length() <= 64 else -1
        sums = tuple(itertools.accumulate(g[d] for d in nexts))
        pits = tuple((d ^ placed).bit_length() - 1 for d in nexts)
        self._memo[placed] = entry = (total, shift, sums, tuple(nexts), pits)
        return entry

    def sample_indices(self) -> tuple[int, ...]:
        """One uniform extension as a raw index tuple."""
        memo = self._memo
        if memo is None:
            return self._scan_indices()
        words, below, choices = self._stream._words, self._stream.below, self._choices
        placed = 0
        out = []
        for _ in range(self.shape.size):
            total, shift, sums, nexts, pits = memo.get(placed) or choices(placed)
            if total == 1:  # a single pit: below(1) is 0 and reads no word
                i = 0
            elif shift >= 0:  # below(total) on one word, inline
                r = next(words) >> shift
                while r >= total:
                    r = next(words) >> shift
                i = bisect_right(sums, r)
            else:
                i = bisect_right(sums, below(total))
            out.append(pits[i])
            placed = nexts[i]
        return tuple(out)

    def _scan_indices(self) -> tuple[int, ...]:
        # The documented scan itself, for lattices past the memo: building
        # every pit's running sum costs more than stopping at the chosen one.
        g = self._g
        pit_mask = self.shape.pit_mask
        below = self._stream.below
        placed = 0
        out = []
        for _ in range(self.shape.size):
            r = below(g[placed])
            rest = pit_mask(placed)
            while True:
                assert rest, "weights of the pits must sum to g(D)"
                low = rest & -rest
                w = g[placed | low]
                if r < w:
                    break
                r -= w
                rest ^= low
            placed |= low
            out.append(low.bit_length() - 1)
        return tuple(out)

    def sample(self) -> LinearExtension:
        return LinearExtension(self.shape, self.sample_indices())


# The ensemble refuses shapes above this many points by shape alone: its
# start state (rank_lex_indices) reads per-point Python tables (coordinates
# and ranks, GridShape.coords_table and rank_table) of several hundred bytes
# a point; `sample --method mcmc` on 2^17 points peaks near 200 MB.
_ENSEMBLE_MAX_SIZE = 1 << 17
# Largest chains x size int64 state array the ensemble allocates, in bytes.
_ENSEMBLE_MAX_BYTES = 1 << 28
# The ensemble walks the swap table when count x size fits in this many
# entries, i.e. count <= this // size, the enumeration cap it passes to
# build_graph; past it the table costs more to build than a walk saves.
_SWAP_TABLE_ENTRIES = 1 << 16


def mcmc_ensemble(
    shape: GridShape,
    steps: int,
    chains: int,
    seed: int,
    laziness: float = 0.5,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Run many independent lazy swap walks at once (vectorized).

    Returns an int64 array of final states, one row per chain.  All chains
    start at the rank-sorted extension unless `starts` (a (chains, size)
    array of trusted valid extensions) is given.  Uses the documented
    Generator draw pattern, so results are reproducible per seed.

    A shape with at most one chain of length > 1 has one extension, so no
    swap is legal and the starts are returned as they are.  When count x
    size is at most 2^16 (build_graph with an enumeration cap of 2^16 //
    size), the states are row numbers into the swap graph's orders, and a
    step is one gather from its swap table.  Otherwise each step reads the
    two entries at k - 1 and k of every chain through the flat view of one
    C-ordered state array, tests the cover with GridShape.cover_arrays,
    and writes both back, swapped where the chain moves.  Both paths make
    the same moves, and neither writes to `starts`.  Shapes of more than
    2^17 points, and state arrays of more than 2^28 bytes, raise
    ResourceCapError before any table is built.
    """
    if steps < 0:
        raise DomainError(f"need steps >= 0, got {steps}")
    if chains < 0:
        raise DomainError(f"need chains >= 0, got {chains}")
    if not 0.0 <= laziness <= 1.0:
        raise DomainError(f"laziness must be in [0, 1], got {laziness}")
    _check_seed(seed)
    size = shape.size  # both refusals come before any per-point table is built
    if size > _ENSEMBLE_MAX_SIZE:
        raise ResourceCapError(
            f"the swap walk refuses {shape}: its tables cannot be built above {_ENSEMBLE_MAX_SIZE} points",
            cap=_ENSEMBLE_MAX_SIZE,
        )
    if 8 * chains * size > _ENSEMBLE_MAX_BYTES:
        raise ResourceCapError(
            f"the swap walk refuses {chains} chains on {shape}: their states would take "
            f"{8 * chains * size} bytes, above {_ENSEMBLE_MAX_BYTES}",
            cap=_ENSEMBLE_MAX_BYTES,
        )
    if starts is None:
        starts = np.broadcast_to(np.array(rank_lex_indices(shape), dtype=np.int64), (chains, size))
    elif np.shape(starts) != (chains, size):
        raise DomainError(f"starts must have shape ({chains}, {size}), got {np.shape(starts)}")
    if chains == 0 or steps == 0 or sum(a > 1 for a in shape.lengths) <= 1:
        return np.array(starts, dtype=np.int64, order="C")  # no step, or one extension
    rng = np.random.default_rng(seed)
    try:
        graph = build_graph(shape, cap=_SWAP_TABLE_ENTRIES // size)
    except ResourceCapError:  # more extensions than the table takes: test covers
        pass
    else:
        table = graph.table.ravel()
        state = order_ids(graph.orders, starts)
        for _ in range(steps):
            ks = rng.integers(1, size, size=chains)
            coins = rng.random(chains)
            state = np.where(coins >= laziness, table[state * size + ks], state)
        return graph.orders[state].astype(np.int64)
    # A C-ordered copy, whatever the layout of starts (a broadcast view is
    # F-ordered), so that reshape(-1) is a view of it and not a copy.
    arr = np.array(starts, dtype=np.int64, order="C")
    flat = arr.reshape(-1)
    up, step = shape.cover_arrays
    base = np.arange(0, chains * size, size)  # flat index of each chain's first point
    for _ in range(steps):
        ks = rng.integers(1, size, size=chains)
        coins = rng.random(chains)
        hi = base + ks
        lo = hi - 1
        a = flat[lo]
        b = flat[hi]
        move = (coins >= laziness) & (up[b] & step[b - a + size] == 0)
        # Every chain writes its pair back, swapped or not: no two chains
        # share an index, so no compress and no scatter of the movers.
        flat[lo] = np.where(move, b, a)
        flat[hi] = np.where(move, a, b)
    return arr


@dataclass(frozen=True)
class JumpStats:
    """Monte-Carlo jump/pits statistics over sampled extensions."""

    samples: int
    mean_degree: float
    degree_stderr: float
    degree_histogram: Mapping[int, int]
    mean_pits_profile: tuple[float, ...]
    pits_profile_stderr: tuple[float, ...]


def _mean_stderr(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)


def jump_stats_from_orders(shape: GridShape, orders: Iterable[Sequence[int]]) -> JumpStats:
    """Jump/pits statistics of an explicit batch of trusted index orders.

    Reads the orders in blocks (jumps.jump_pit_blocks; a (rows, size) array,
    such as mcmc_ensemble's, is sliced) and keeps the sums as exact
    integers.  Standard errors use the sample standard deviation
    (zero for a single draw).  The mean degree estimates the average vertex
    degree of the swap graph.
    """
    size = shape.size
    deg_total = deg_total_sq = 0
    histogram = np.zeros(size, dtype=np.int64)
    pit_total = np.zeros(size, dtype=np.int64)
    pit_total_sq = np.zeros(size, dtype=np.int64)
    n = 0
    for jumps, pits in jump_pit_blocks(shape, orders):
        degrees = jumps.sum(axis=1)
        deg_total += int(degrees.sum())
        deg_total_sq += int((degrees * degrees).sum())
        histogram += np.bincount(degrees, minlength=size)
        pit_total += pits.sum(axis=0)
        pit_total_sq += (pits * pits).sum(axis=0)
        n += len(pits)
    if n == 0:
        raise DomainError("need at least one order")
    mean_deg, se_deg = _mean_stderr(float(deg_total), float(deg_total_sq), n)
    profile = []
    profile_se = []
    for total, total_sq in zip(pit_total.tolist(), pit_total_sq.tolist()):
        mean_k, se_k = _mean_stderr(float(total), float(total_sq), n)
        profile.append(mean_k)
        profile_se.append(se_k)
    return JumpStats(
        samples=n,
        mean_degree=mean_deg,
        degree_stderr=se_deg,
        degree_histogram={d: c for d, c in enumerate(histogram.tolist()) if c},
        mean_pits_profile=tuple(profile),
        pits_profile_stderr=tuple(profile_se),
    )


@dataclass(frozen=True)
class EntropyProfile:
    """Conditional entropies of an extension drawn uniformly, in bits.

    Entry k (1-based, k = 1..size-1) is the entropy of the (k+1)-th point
    given the set of the first k points.  The entries sum to lg(count):
    the first point of a grid is forced, so it contributes nothing.
    """

    h: tuple[float, ...]

    @property
    def total_bits(self) -> float:
        return math.fsum(self.h)


def entropy_profile_exact(shape: GridShape) -> EntropyProfile:
    """Exact conditional entropy profile by full enumeration.

    Groups all extensions by the down-set of their first k points and
    averages the entropy of the next-point distribution over groups.  This
    route is independent of the counting DP, so comparing the profile's sum
    against lg(count) cross-checks the two engines.  Refuses shapes with
    more than 10^5 extensions, before the DP is built when the rank levels
    or the lattice alone show it (see enumerate_index_orders).
    """
    orders = enumerate_index_orders(shape, cap=10**5)
    size = shape.size
    if size == 1:
        return EntropyProfile(())
    # next_by_prefix[k][D][v]: extensions whose first k points form down-set
    # D and continue with v.  Grouping by the set, not the ordered prefix,
    # matches the conditional entropy being computed.
    next_by_prefix: list[defaultdict] = [defaultdict(Counter) for _ in range(size)]
    total = 0
    for order in orders:
        total += 1
        placed = 1 << order[0]
        for k in range(1, size):
            next_by_prefix[k][placed][order[k]] += 1
            placed |= 1 << order[k]
    h = []
    for k in range(1, size):
        contributions = []
        for counter in next_by_prefix[k].values():
            group = sum(counter.values())
            group_h = -math.fsum(c / group * math.log2(c / group) for c in counter.values())
            contributions.append(group / total * group_h)
        h.append(max(0.0, math.fsum(contributions)))
    return EntropyProfile(tuple(h))


def _deficit_threshold(shape: GridShape, R: float) -> float:
    if not shape.is_equilateral:
        raise DomainError(f"pits thresholds are defined for equal chain lengths, got {shape}")
    return pits_threshold(shape.lengths[0], shape.num_chains, R)


def pits_deficit_stats(shape: GridShape, seed: int, samples: int, R: float) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the low-pits time fraction.

    For each of `samples` exact draws (ExactSampler with `seed`), the
    fraction of times k in [1, size] whose pit count falls below the
    threshold 2^{-R} (m e / 2)^{n-1}.
    """
    threshold = _deficit_threshold(shape, R)
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    sampler = ExactSampler(shape, seed)
    size = shape.size
    total = 0.0
    total_sq = 0.0
    n = 0
    for _, pits in jump_pit_blocks(shape, (sampler.sample_indices() for _ in range(samples))):
        for t in (pits < threshold).sum(axis=1).tolist():
            frac = t / size  # float sums in draw order: the figures repeat bit for bit
            total += frac
            total_sq += frac * frac
            n += 1
    return _mean_stderr(total, total_sq, n)


def exact_pits_deficit_fractions(shape: GridShape, Rs: Sequence[float]) -> dict[float, Fraction]:
    """Exact expected low-pits fractions for several R at once.

    Sums f(D) g(D), the number of extensions whose first |D| points form D,
    over the nonempty down-sets D with few pits; no extension is listed.
    Both factors come from the completion table: f(D) = g(full ^
    reflect(D)) (see the counting module).  Exact rational output
    (denominator count * size), under the default DP state cap.
    """
    thresholds = {float(R): _deficit_threshold(shape, R) for R in Rs}
    g = completion_counts(shape)
    full = (1 << shape.size) - 1
    reflect, pit_mask = shape.reflect, shape.pit_mask
    by_pits: Counter[int] = Counter()  # (extension, time) pairs by pit count
    for bits, here in g.items():
        if bits:
            by_pits[pit_mask(bits).bit_count()] += g[full ^ reflect(bits)] * here
    return {
        R: Fraction(sum(w for c, w in by_pits.items() if c < t), g[0] * shape.size)
        for R, t in thresholds.items()
    }


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    pvalue: float


def chi_square_uniformity(observed: Sequence[int]) -> ChiSquareResult:
    """Chi-square test of the observed cell counts against equal expecteds.

    Pass the full support as cells (zeros included for unobserved cells).
    scipy is imported here, not at module level: this test is its only
    use, and importing scipy.stats would add most of the package's import
    time to every command.
    """
    from scipy import stats

    obs = np.asarray(list(observed), dtype=float)
    if obs.size < 2:
        raise DomainError("need at least two cells")
    if np.any(obs < 0) or obs.sum() <= 0:
        raise DomainError("cell counts must be nonnegative with a positive total")
    res = stats.chisquare(obs)
    return ChiSquareResult(float(res.statistic), int(obs.size - 1), float(res.pvalue))


def tv_distance_from_uniform(cell_counts: Iterable[int], support_size: int) -> float:
    """Total variation distance between empirical frequencies and uniform.

    `cell_counts` are the nonzero (or all) observed cell counts; cells of
    the support never observed contribute 1/support_size each.
    """
    cells = [int(c) for c in cell_counts]
    if support_size < len(cells) or support_size < 1:
        raise DomainError(f"support_size {support_size} smaller than the observed cell count {len(cells)}")
    if any(c < 0 for c in cells):
        raise DomainError("cell counts must be nonnegative")
    total = sum(cells)
    if total <= 0:
        raise DomainError("need a positive total count")
    p = 1.0 / support_size
    observed_part = math.fsum(abs(c / total - p) for c in cells)
    missing_part = (support_size - len(cells)) * p
    return 0.5 * (observed_part + missing_part)
