"""Exact counting of linear extensions and closed-form count bounds.

The counting engine is a dynamic program over down-sets (order ideals): the
number of linear extensions that complete a down-set D is

    g(D) = sum over pits v of g(D + v),      g(whole grid) = 1,

where a pit is a minimal element of the complement.  The answer is g(empty).
The table is built in one top-down pass, level by level (by ideal
cardinality) from the whole grid: each state pushes its count onto the
states one maximal point smaller, found all at once by GridShape.top_mask
with one shift-and-AND per chain on the bitmask, so g(D) is complete
before D is expanded.  One table is kept per shape.  The state space is
the full down-set lattice; a configurable cap refuses shapes where it would
not fit in memory, once, before the DP: against the size of the cached
table, or else against the lattice size (closed form up to three chains
of length > 1, counted from the lattice of the shape less its longest
chain beyond), which the DP then fills exactly.  The cap counts 64-bit
words: a state is a size-bit int of ceil(size / 64) words, so the cap
admits cap // ceil(size / 64) states, one per unit of cap up to 64
points.  The same table holds f(D), the number of orders of D itself:
the point reflection (GridShape.reflect) reverses the order, so it maps
the orders of D onto the completions of full ^ reflect(D), and
f(D) = g(full ^ reflect(D)).  A uniform extension passes through D with
probability f(D) g(D) / g(empty), so exact expectations are sums over
this one table.

A DP state is the down-set's bitmask interpreted as a Python int; the int is
bit-for-bit the little-endian byte string of the bitset under the canonical
point-index contract (see grid module), so memo keys are exactly reproducible
across runs and platforms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DomainError, ResourceCapError
from .grid import GridShape, max_antichain_size, whitney_numbers

__all__ = [
    "DEFAULT_STATE_CAP",
    "completion_counts",
    "count_extensions",
    "hook_length_count",
    "factorial_product_lower_bound",
    "width_power_upper_bound",
    "normalized_count_root",
    "count_root_window",
]

# Default ceiling on the DP states (= down-sets) held in memory, in 64-bit
# words: each state of a shape of size points takes ceil(size / 64).
DEFAULT_STATE_CAP = 10**7


def _down_set_count(lengths: Iterable[int], cap: int) -> int:
    """Down-sets of the face spanned by the three longest chains, by
    MacMahon's box formula (exact for up to three chains of length > 1, a
    lower bound beyond).  Stops early, still above `cap`, once it passes
    `cap`; every factor is at least 3/2, so that takes O(log cap) steps.
    """
    a, b, c = sorted((1, 1, 1, *lengths))[-3:]
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
            if num > cap * den:
                return max(cap + 1, num // den)
    return num // den


def _lattice_lower_bound(shape: GridShape, cap: int) -> int:
    """Down-sets at least: the box count, the size + 1 prefixes of one
    extension, then 2^width (each subset of a widest rank level generates
    its own down-set), computed last so astronomic shapes stop at once.
    The size term is clipped at cap + 1, so a size of any length prints.
    """
    bound = max(_down_set_count(shape.lengths, cap), min(shape.size, cap) + 1)
    if bound > cap:
        return bound
    return max(bound, 1 << min(max_antichain_size(shape), cap.bit_length()))


def _lattice_size(shape: GridShape, states: int) -> int:
    """Down-sets of the shape: exact, or a lower bound past `states`.

    The closed-form bounds come first; they are exact for up to three
    chains of length > 1.  Past three, a down-set of P x [a] is a multichain
    D_1 >= ... >= D_a of down-sets of P, the shape less its longest chain
    a.  Starting from 1 on each down-set of P, one zeta transform over the
    lattice J(P) of those down-sets turns the number of multichains of i
    down-sets topped by D into that of i + 1: for each point p in
    canonical index order (a linear extension), add z[D - p] to z[D]
    whenever p is a maximal point of D.  After a - 1 passes the values sum
    to the count.  J(P), read from P's completion table, is never larger
    than the lattice, so a refusal there is a correct refusal here.
    """
    bound = _lattice_lower_bound(shape, states)
    *rest, a = sorted(shape.lengths)
    if bound > states or sum(x > 1 for x in rest) < 3:
        return bound
    sub = GridShape(tuple(rest))
    count = _lattice_size(sub, states)
    if count > states:
        return count
    ideals = completion_counts(sub, states * _words(sub)).keys()
    by_top = [[] for _ in range(sub.size)]  # down-sets by each of their maximal points
    for bits in ideals:
        left = sub.top_mask(bits)
        while left:
            low = left & -left
            by_top[low.bit_length() - 1].append(bits)
            left ^= low
    z = dict.fromkeys(ideals, 1)
    for _ in range(a - 1):
        for p, tops in enumerate(by_top):
            for bits in tops:
                z[bits] += z[bits ^ 1 << p]
    return sum(z.values())


def _words(shape: GridShape) -> int:
    """64-bit words of one DP state, a size-bit int."""
    return -(-shape.size // 64)


# One completion-count table per shape, the 32 most recently used, oldest first.
_tables: dict[GridShape, Mapping[int, int]] = {}
_TABLES_KEPT = 32


def _completion_counts(shape: GridShape) -> Mapping[int, int]:
    top_mask = shape.top_mask

    # Each state E pushes g(E) onto E - v for every maximal point v of E.
    # The pits of D are the maximal points of the states D + v, so g(D) is
    # complete before D is expanded.
    g: dict[int, int] = {(1 << shape.size) - 1: 1}
    level = g.copy()
    while level:
        below: dict[int, int] = {}
        for bits, here in level.items():
            rest = top_mask(bits)
            while rest:
                low = rest & -rest
                below[bits ^ low] = below.get(bits ^ low, 0) + here
                rest ^= low
        g.update(below)
        level = below
    return MappingProxyType(g)


def _check_cap(shape: GridShape, cap: int | None) -> None:
    """Raise ResourceCapError if the down-set lattice of the shape exceeds
    cap // ceil(size / 64) states (`cap` counts 64-bit words, default 10^7):
    the size of its cached table, or else _lattice_size.  Builds no table.
    """
    cap = DEFAULT_STATE_CAP if cap is None else int(cap)
    words = _words(shape)
    table = _tables.get(shape)
    count = _lattice_size(shape, cap // words) if table is None else len(table)
    if count <= cap // words:
        return
    # An astronomic word count is too long to print; past the cap it is
    # enough to say so.
    shown = words if words <= cap else f"more than {cap}"
    each = f" of {shown} 64-bit words each" if words > 1 else ""
    raise ResourceCapError(
        f"down-set lattice of {shape} exceeds the state cap of {cap} "
        f"(at least {count} ideals{each}); raise the cap to proceed",
        cap=cap,
    )


def completion_counts(shape: GridShape, cap: int | None = None) -> Mapping[int, int]:
    """Read-only map: down-set bitmask -> number of extensions completing it.

    One table per shape is built and shared across calls (results are
    identical to a private memo, so sharing is sound).  The cap is checked
    first (_check_cap), whether the table is cached already or not; a
    refused table is never built.
    """
    _check_cap(shape, cap)
    table = _tables.pop(shape, None)  # re-inserted as the most recently used
    _tables[shape] = table = _completion_counts(shape) if table is None else table
    if len(_tables) > _TABLES_KEPT:
        del _tables[next(iter(_tables))]
    return table


def count_extensions(shape: GridShape, cap: int | None = None) -> int:
    """Exactly count the linear extensions of a grid shape."""
    return completion_counts(shape, cap)[0]


def hook_length_count(shape: GridShape) -> int:
    """Count extensions of a two-chain grid by the hook length formula.

    A two-chain grid's extensions correspond to standard fillings of an
    a x b rectangle, counted by (ab)! divided by the product of hooks.
    Independent of the down-set DP; used as a counting oracle.
    """
    if shape.num_chains != 2:
        raise DomainError(f"hook length formula needs exactly two chains, got {shape}")
    a, b = shape.lengths
    denom = 1
    for i in range(a):
        for j in range(b):
            denom *= (a - i) + (b - j) - 1
    count, rem = divmod(math.factorial(a * b), denom)
    assert rem == 0, "hook product must divide the factorial"
    return count


def factorial_product_lower_bound(shape: GridShape) -> int:
    """Product of factorials of the rank-level sizes; never exceeds the count.

    Any product of one permutation per rank level is a valid extension, so
    this undercounts.
    """
    return math.prod(math.factorial(w) for w in whitney_numbers(shape))


def width_power_upper_bound(shape: GridShape) -> int:
    """(size / longest chain) ** size, rounded up; never below the count.

    Every antichain of the grid has at most size/max_j a_j elements, and at
    each step of an extension the next point is chosen from an antichain.
    The base is carried as an exact rational and the power's ceiling is
    returned (for grids the base is in fact an integer).
    """
    base = Fraction(shape.size, max(shape.lengths))
    val = base**shape.size
    return -(-val.numerator // val.denominator)


def normalized_count_root(m: int, n: int, count: int) -> float:
    """m^{-1} * count^{1/((n-1) m^n)}: the normalized per-cell growth root.

    For equal-chain grids this value is squeezed into the fixed window given
    by count_root_window(n).  The root of the big integer is evaluated as
    exp(log(count)/t); math.log on an int is exact to double precision
    (>= 15 significant digits), far finer than the window's margins.
    """
    m, n = int(m), int(n)
    if n < 2:
        raise DomainError(f"need n >= 2 chains (exponent undefined below that), got n={n}")
    if m < 2:
        raise DomainError(f"need chain length m >= 2, got m={m}")
    if count < 1:
        raise DomainError(f"count must be a positive integer, got {count}")
    t = (n - 1) * m**n
    return math.exp(math.log(count) / t) / m


def count_root_window(n: int) -> tuple[float, float]:
    """Closed window [(1/(n e))^{1/(n-1)}, e/2] for the normalized root."""
    if n < 2:
        raise DomainError(f"need n >= 2, got n={n}")
    lo = (1.0 / (n * math.e)) ** (1.0 / (n - 1))
    return lo, math.e / 2
