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

Exact low-pits fractions are sums over the counting module's paired
levels, a level at a time; the exact entropy profile enumerates, as an oracle.

Determinism contract (external, bit-exact):

- The exact sampler consumes one stream of 64-bit words: word i is the
  i-th random_raw output of numpy's PCG64(SeedSequence(seed)).  The
  package computes these words itself (gridext._pcg64), so exact sampling
  does not import numpy.random; the tests check them against numpy's.
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
  cover test otherwise.  The state walk reads a lazy table whose cell
  2 (s size + k) + [coin >= laziness] holds s, or T[s, k] when the coin
  moves.  The array walk keeps the chains as the rows of one C-ordered
  array of the narrowest unsigned dtype that holds size - 1, reads each
  chain's pair (k - 1, k) through its flat row-major view, at index
  chain x size + k, and writes back only the pairs that swap.  Both paths
  read the draws from one loop and make the same moves, so their output
  is byte-identical; neither the draws nor the bytes depend on how a step
  is computed.  The ensemble returns the chains in that narrow dtype,
  C-ordered, on every path (the state walk indexes the swap graph's
  orders, cast to it).

For parallel use, give worker i its own seed, such as
int.from_bytes(hashlib.sha256(f"{seed} {i}".encode()).digest()[:8], "big"),
an int in [0, 2^64).
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .counting import CompletionTable, _paired_levels, completion_counts
from .errors import DomainError, ResourceCapError
from .grid import GridShape
from .jumps import jump_pit_blocks, rank_lex_indices

# transposition and bounds are imported by the functions that call them
# (the walk, the entropy oracle, the pits threshold): an exact draw loads
# neither.  Likewise _pcg64, by WordStream: only what reads its words (an
# exact draw, the bounds suite's vectors) loads it, and the walk does not.

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


# The exact sampler keeps its per-down-set draw tables when the completion
# table has at most this many down-sets.  Past it few visits repeat: 500
# draws on 4x4x4 (232848 down-sets) visit 15922 of them, and keeping their
# tables added 14.5 MB to the peak and made a draw slower (median of five
# runs on two cores: 933 against 473 us).
_MEMO_MAX_STATES = 1 << 12


class WordStream:
    """Buffered 64-bit word stream with the documented seed-to-stream mapping.

    Word i is always the i-th random_raw output of numpy's
    PCG64(SeedSequence(seed)), computed without numpy.random.
    """

    def __init__(self, seed: int):
        _check_seed(seed)
        from ._pcg64 import raw_words

        self._words = raw_words(int(seed))

    def word(self) -> int:
        """Next raw 64-bit word."""
        return next(self._words)

    def words(self, count: int) -> np.ndarray:
        """The next `count` raw words, as a uint64 array."""
        return np.fromiter(itertools.islice(self._words, count), np.uint64, count)

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

    Builds its own completion-count table once; each sample walks the
    lattice from the empty down-set, choosing the next point among the
    current pits with weight g(D + v).  Samples from one instance form one
    deterministic sequence per seed, of which none is drawn until asked.

    Both paths draw r below g(D) and stop at the pit the documented scan
    stops at: over the pits v of D in increasing index, subtract g(D + v)
    from r until r < g(D + v).  Both read the pits through the table's one
    pit reader, CompletionTable.pick, which runs the scan from D.  On
    lattices of at most 2^12 down-sets each visited D keeps its pits with
    the running sums of their weights, and a draw is one bisect_right over
    the sums, or, when one word draws below g(D), of the word itself over
    the sums shifted to word thresholds; past that, each step makes one
    pick call.

    A caller that has already held the shape to its cap passes the
    shape's CompletionTable as `table` (a plain mapping has no pick), which
    is then read as it is: state_cap is not read and no cap is checked.
    """

    def __init__(
        self, shape: GridShape, seed: int, state_cap: int | None = None, *, table: CompletionTable | None = None
    ):
        self.shape = shape
        self._stream = WordStream(seed)  # checks the seed before the DP is built
        self._g = completion_counts(shape, state_cap) if table is None else table
        self._memo: dict[int, tuple] | None = {} if len(self._g) <= _MEMO_MAX_STATES else None

    def _choices(self, placed: int) -> tuple:
        """The memo entry of D = placed, built on its first visit from one
        lookup of g(D) and one pick(D, s) per pit, s the running weight sum,
        which returns the next pit and its weight: (n, thresholds, next
        down-sets, pit indices).  When one word draws below g(D) > 1, n is
        the number of pits and the thresholds are the running sums shifted
        left by 64 - bit_length(g(D)): a word w, whose top bits are r, picks
        bisect_right(thresholds, w), and that is n when r >= g(D), a
        rejection.  n is 0 when g(D) = 1, which draws no word, and -1 when a
        draw takes more words; the thresholds are then the running sums,
        g(D) the last."""
        total, s, pits, sums = self._g[placed], 0, [], []
        while s < total:
            v, weight = self._g.pick(placed, s)
            pits.append(v)
            sums.append(s := s + weight)
        if total == 1:
            n = 0
        elif total.bit_length() <= 64:
            n, shift = len(pits), 64 - total.bit_length()
            sums = [s << shift for s in sums]
        else:
            n = -1
        nexts = tuple(placed | 1 << v for v in pits)
        self._memo[placed] = entry = (n, tuple(sums), nexts, tuple(pits))
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
            n, thresholds, nexts, pits = memo.get(placed) or choices(placed)
            if n > 0:  # below(g(D)) on one word, inline: i == n is a rejection
                i = bisect_right(thresholds, next(words))
                while i == n:
                    i = bisect_right(thresholds, next(words))
            elif n:  # a draw of more than one word
                i = bisect_right(thresholds, below(thresholds[-1]))
            else:  # g(D) = 1, a single pit: below(1) is 0 and reads no word
                i = 0
            out.append(pits[i])
            placed = nexts[i]
        return tuple(out)

    def _scan_indices(self) -> tuple[int, ...]:
        """The documented scan itself, for lattices past the memo: building
        every pit's running sum costs more than stopping at the chosen one.
        Each step draws r = below(g(D)) and makes one CompletionTable.pick(D,
        r), which returns the pit and g of the next D."""
        below, pick = self._stream.below, self._g.pick
        placed, total = 0, self._g[0]
        out = []
        for _ in range(self.shape.size):
            v, total = pick(placed, below(total))
            placed |= 1 << v
            out.append(v)
        return tuple(out)


# The most chain points (chains x size) the ensemble holds, checked before
# any table is built: 2^28 bytes, had each point taken eight.
_ENSEMBLE_MAX_POINTS = 1 << 25
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

    Returns the final states, one row per chain, as a C-ordered array of
    the narrowest unsigned dtype that holds size - 1 (uint8 up to 256
    points, then uint16, then uint32), on every path.  All chains start at
    the rank-sorted extension unless `starts` (a (chains, size) array or
    nested list of trusted extensions, never written to) is given.  The
    draws and the two paths are the module's determinism contract, so
    results are reproducible per seed.  Shapes of more than 2^17 points
    (enumeration's chain limit too), and more than 2^25 chain points in
    all, raise ResourceCapError before any table is built.
    """
    from .transposition import _MAX_POINTS, build_graph, order_ids

    if steps < 0:
        raise DomainError(f"need steps >= 0, got {steps}")
    if chains < 0:
        raise DomainError(f"need chains >= 0, got {chains}")
    if not 0.0 <= laziness <= 1.0:
        raise DomainError(f"laziness must be in [0, 1], got {laziness}")
    _check_seed(seed)
    size = shape.size  # both refusals come before any per-point table is built
    if size > _MAX_POINTS:
        raise ResourceCapError(
            f"the swap walk refuses {shape}: its tables cannot be built above {_MAX_POINTS} points", cap=_MAX_POINTS
        )
    if chains * size > _ENSEMBLE_MAX_POINTS:
        raise ResourceCapError(
            f"the swap walk refuses {chains} chains on {shape}: they hold "
            f"{chains * size} points, above {_ENSEMBLE_MAX_POINTS}",
            cap=_ENSEMBLE_MAX_POINTS,
        )
    narrow = np.min_scalar_type(size - 1)
    if one_start := starts is None:
        starts = np.broadcast_to(np.array(rank_lex_indices(shape), dtype=narrow), (chains, size))
    elif (starts := np.asarray(starts)).shape != (chains, size):
        raise DomainError(f"starts must have shape ({chains}, {size}), got {starts.shape}")
    if chains == 0 or steps == 0 or shape.is_chain:
        return np.array(starts, dtype=narrow, order="C")  # no step, or one extension
    rng = np.random.default_rng(seed)
    coins, move = np.empty(chains), np.empty(chains, dtype=bool)  # made later, they raise the peak RSS

    def draws():  # the documented draw pattern, for both paths: per step, positions k and who moves
        for _ in range(steps):
            ks = rng.integers(1, size, size=chains)
            rng.random(out=coins)  # into a kept buffer: draws what random(chains) would
            yield ks, np.greater_equal(coins, laziness, out=move)
            del ks  # here and by the caller: the next draw never holds two position arrays

    try:
        graph = build_graph(shape, cap=_SWAP_TABLE_ENTRIES // size)
    except ResourceCapError:  # more extensions than the table takes: test covers
        pass
    else:
        # The lazy table's entries, like the states, are pre-multiplied by
        # 2 size, so a step is one add of 2k plus the coin and one gather.
        table = graph.table.astype(np.int64) * (2 * size)
        lazy = np.stack([np.repeat(table[:, :1], size, axis=1), table], axis=2).ravel()
        if one_start:  # every chain starts at the rank-sorted row: look it up once
            state = np.full(chains, order_ids(graph.orders, starts[:1])[0] * (2 * size), dtype=np.intp)
        else:
            state = order_ids(graph.orders, starts) * (2 * size)
        cell = np.empty_like(state)
        for ks, move in draws():
            np.add(ks, ks, out=ks)
            np.add(state, ks, out=cell)
            cell += move
            # mode="clip" writes straight into state: every cell is in range,
            # and the default mode="raise" fills a chain-sized buffer first.
            np.take(lazy, cell, out=state, mode="clip")
            del ks
        state //= 2 * size
        return graph.orders.astype(narrow)[state]
    # The chains in the narrowest unsigned dtype, as a C-ordered copy
    # whatever the layout of starts (a broadcast view is F-ordered), so that
    # reshape(-1) is a view of it and not a copy.
    arr = np.array(starts, dtype=narrow, order="C")
    flat = arr.reshape(-1)
    right = flat[1:]  # right[i] is flat[i + 1]
    up, step = shape.cover_arrays
    before = np.arange(-1, chains * size - 1, size)  # flat index of each chain's first point, less 1
    for lo, move in draws():
        lo += before  # flat index of the pair's first entry, at k - 1
        a, b = flat.take(lo), right.take(lo)
        # b - a + size in a signed wide dtype: unsigned subtraction wraps.
        diff = np.subtract(b, a, dtype=np.intp)
        diff += size
        moved = np.flatnonzero(move & (up.take(b) & step.take(diff) == 0))
        # Only the chains that move write, each its pair swapped.  No two
        # chains share an index.
        lo = lo[moved]
        flat[lo] = b[moved]
        right[lo] = a[moved]
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
    sums = zip(pit_total.tolist(), pit_total_sq.tolist())
    profile, profile_se = zip(*(_mean_stderr(float(total), float(total_sq), n) for total, total_sq in sums))
    return JumpStats(
        samples=n,
        mean_degree=mean_deg,
        degree_stderr=se_deg,
        degree_histogram={d: c for d, c in enumerate(histogram.tolist()) if c},
        mean_pits_profile=profile,
        pits_profile_stderr=profile_se,
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
    from .transposition import enumerate_index_orders

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
    from .bounds import pits_threshold

    if not shape.is_equilateral:
        raise DomainError(f"pits thresholds are defined for equal chain lengths, got {shape}")
    return pits_threshold(shape.lengths[0], shape.num_chains, R)


def pits_deficit_stats(shape: GridShape, seed: int, samples: int, R: float) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the low-pits time fraction.

    For each of `samples` exact draws (ExactSampler with `seed`), the
    fraction t / size of times k in [1, size] whose pit count falls below
    the threshold 2^{-R} (m e / 2)^{n-1}.  The sums of t and t^2 are exact
    integers, read a block of draws at a time; the standard error, as in
    jump_stats_from_orders, uses the sample standard deviation.
    """
    threshold = _deficit_threshold(shape, R)
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    sampler = ExactSampler(shape, seed)
    size = shape.size
    total = total_sq = n = 0
    for _, pits in jump_pit_blocks(shape, (sampler.sample_indices() for _ in range(samples))):
        t = (pits < threshold).sum(axis=1)
        total += int(t.sum())
        total_sq += int((t * t).sum())
        n += len(t)
    return _mean_stderr(total / size, total_sq / size**2, n)


def exact_pits_deficit_fractions(shape: GridShape, Rs: Sequence[float]) -> dict[float, Fraction]:
    """Exact expected low-pits fractions for several R at once.

    Sums f(D) g(D), the number of extensions whose first |D| points form D,
    over the nonempty down-sets D with few pits; no extension is listed.
    The counting module's paired levels give f, g and the pit counts a
    whole level at a time, under the default DP state cap.  All terms sum
    to the denominator count * size (an extension passes one D per size).
    """
    thresholds = [(float(R), _deficit_threshold(shape, R)) for R in Rs]
    by_pits = np.zeros(shape.size + 1, dtype=object)  # (extension, time) pairs by pit count
    for g, f, pits in _paired_levels(shape):
        np.add.at(by_pits, pits, f * g)
    total = sum(by_pits)
    return {R: Fraction(sum(w for c, w in enumerate(by_pits) if c < t), total) for R, t in thresholds}


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    pvalue: float


def _chi2_tail(dof: int, x: float) -> float:
    """P(chi-square with dof degrees > x): Q(dof/2, x/2), the regularized
    upper incomplete gamma, by its series below x/2 < dof/2 + 1 and by
    Lentz's continued fraction above (Numerical Recipes, 3rd ed., 6.2)."""
    a, x = dof / 2, x / 2
    if x <= 0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))  # x^a e^-x / Gamma(a)
    if x < a + 1:  # P(a, x) = scale * sum_n x^n / (a (a+1) ... (a+n))
        term = total = 1 / a
        n = a
        while term > total * 1e-16:
            n += 1
            term *= x / n
            total += term
        return 1 - scale * total
    tiny = 1e-300  # stands in for a zero denominator
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2
        d = 1 / (an * d + b or tiny)
        c = b + an / c or tiny
        h *= (delta := d * c)
        if abs(delta - 1) < 1e-15:
            break
    return scale * h


def chi_square_uniformity(observed: Sequence[int]) -> ChiSquareResult:
    """Chi-square test of the observed cell counts against equal expecteds.

    Pass the full support as cells (zeros included for unobserved cells);
    each must be an int.  The statistic is exact, (k sum o^2 - n^2) / n
    over k cells of total n, rounded to a float once; the p-value is the
    chi-square tail at k - 1 degrees (_chi2_tail).
    """
    try:
        cells = [operator.index(c) for c in observed]
    except TypeError:
        raise DomainError("cell counts must be integers") from None
    k, n = len(cells), sum(cells)
    if k < 2:
        raise DomainError("need at least two cells")
    if min(cells) < 0 or n <= 0:
        raise DomainError("cell counts must be nonnegative with a positive total")
    statistic = float(Fraction(k * sum(c * c for c in cells) - n * n, n))
    return ChiSquareResult(statistic, k - 1, _chi2_tail(k - 1, statistic))


def tv_distance_from_uniform(cell_counts: Iterable[int], support_size: int) -> float:
    """Total variation distance between empirical frequencies and uniform.

    `cell_counts` are the nonzero (or all) observed cell counts; cells of
    the support never observed contribute 1/support_size each.  The counts
    and support_size must be ints, as in chi_square_uniformity.
    """
    try:
        cells = [operator.index(c) for c in cell_counts]
        support_size = operator.index(support_size)
    except TypeError:
        raise DomainError("cell counts and support_size must be integers") from None
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
