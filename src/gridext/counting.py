"""Exact counting of linear extensions and closed-form count bounds.

The counting engine is a dynamic program over down-sets (order ideals): the
number of linear extensions that complete a down-set D is

    g(D) = sum over pits v of g(D + v),      g(whole grid) = 1,

where a pit is a minimal element of the complement.  The answer is g(empty).
The table is built in one top-down pass, level by level (by ideal
cardinality) from the whole grid, on arrays.  A level is an (n, w) uint64
array of down-set masks, one row of w = ceil(size / 64) little-endian
words per state, with their exact counts beside it as an (L, n) uint64
array of 32-bit limbs, least significant row first; L is what the level's
largest count needs, and grows down the levels.  Each state E pushes g(E)
onto E - v for every maximal point v of E, found for the whole level at
once by one shift-and-AND per chain (a shift by a stride carries across
words), so g(D) is complete before D is expanded.  The lowest index
missing from a down-set is one of its pits, so each down-set of the level
below comes from exactly one edge, the one that removes that index: those
edges list the level below with no duplicate, one argsort orders it, and
every other edge finds its child there by searchsorted and adds its count
with np.add.at, one contiguous limb row at a time in uint64 lanes.  A
target takes at most size adds of limbs below 2^32, so no lane overflows,
and one carry pass a level normalizes the sums (_carried).  A level's
temporaries are a few words per state of it and of the level below, and
they are dropped before the next level.  No Python int is made per
down-set: count_extensions reads g(empty) from the last level's limbs.

Each call runs its own pass and keeps no table after it.  The state space
is the full down-set lattice; a configurable cap refuses shapes where it
would not fit, before any level is built, against the lattice size
(closed form up to three chains of length > 1, counted from the lattice
of the shape less its longest chain beyond), which the DP fills exactly.
The cap counts 64-bit words, what a level's mask array holds per state:
ceil(size / 64), so it admits cap // ceil(size / 64) states, one per unit
of cap up to 64 points.
The same levels hold f(D), the number of orders of D itself: the point
reflection v -> size - 1 - v reverses the order, so it maps the orders of
D onto the completions of E = full ^ reflect(D), and the pits of D onto
the maximal points of E.  So f(D) = g(E), and a uniform extension passes
through D with probability f(D) g(D) / g(empty).  _paired_levels pairs
level k with level size - k, reflected as a whole, so exact expectations
are sums over whole levels, with no lookup per down-set.

The table (CompletionTable) maps each down-set's bitmask, as a Python int,
to its count.  It keeps the DP's levels as they come, one sorted key
array and one bytes buffer of little-endian limbs per cardinality, and
iterates them in decreasing cardinality; on 8x8 it takes 21 B a state,
where a list of int counts took 56 B and a dict 128 B.  A count becomes
a Python int only when it is read, by one int.from_bytes on its slice of
the buffer.  The key int is read from the row's little-endian bytes
('<u8'), so it is bit-for-bit the little-endian byte string of the bitset
under the canonical point-index contract (see grid module).  Within a
level the states are sorted by _keys: by the word up to 64 points, by
those bytes past it, which is the order of Python bytes.  So a lookup is
one bisect_left in the level of the key's bit count, on the word or on
the bytes.  Neither the keys, their order nor the count buffers depend on
the platform's byte order.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DomainError, ResourceCapError
from .grid import GridShape, _bit_indices, max_antichain_size, whitney_numbers

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


def _box_is_exact(shape: GridShape) -> bool:
    """At most three chains of length > 1: the box count is the lattice size."""
    return sum(a > 1 for a in shape.lengths) <= 3


def _lattice_lower_bound(shape: GridShape, cap: int) -> int:
    """Down-sets at least: the box count, the size + 1 prefixes of one
    extension (clipped at cap + 1, so a size of any length prints), then,
    where the box count is not exact, 2^width (each subset of a widest rank
    level generates its own down-set), so astronomic shapes stop at once.
    """
    bound = max(_down_set_count(shape.lengths, cap), min(shape.size, cap) + 1)
    if bound > cap or _box_is_exact(shape):
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
    canonical index order (a linear extension), add z[D] to z[D + p]
    whenever p is a pit of D.  After a - 1 passes the values sum to the
    count.  J(P), sized by this rule and listed by _ints from P's levels, is
    never larger than the lattice, so a refusal there is correct here.
    """
    bound = _lattice_lower_bound(shape, states)
    if bound > states or _box_is_exact(shape):
        return bound
    *rest, a = sorted(shape.lengths)
    sub = GridShape(tuple(rest))
    if _lattice_size(sub, states) > states:
        return states + 1
    ideals = [bits for masks, _ in _levels(sub) for bits in _ints(masks.T)]
    by_pit = [[] for _ in range(sub.size)]  # down-sets by each of their pits
    for bits in ideals:
        for p in _bit_indices(sub.pit_mask(bits)):
            by_pit[p].append(bits)
    z = dict.fromkeys(ideals, 1)
    for _ in range(a - 1):
        for p, downs in enumerate(by_pit):
            for bits in downs:
                z[bits | 1 << p] += z[bits]
    return sum(z.values())


def _words(shape: GridShape) -> int:
    """64-bit words of one DP state, a size-bit int."""
    return -(-shape.size // 64)


_ONE, _ALL = np.uint64(1), ~np.uint64(0)
# Byte b bit-reversed, for _reflected, and its set bits, for the pit counts.
_BIT_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
_POPCOUNT = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)


def _word_array(bits: int, words: int) -> np.ndarray:
    """A size-bit int as `words` uint64 words, least significant first."""
    return np.frombuffer(bits.to_bytes(8 * words, "little"), dtype="<u8").astype(np.uint64)


def _keys(masks: np.ndarray) -> np.ndarray:
    """One sortable key per row: the word itself, or the row's little-endian bytes."""
    words = masks.shape[1]
    return masks[:, 0] if words == 1 else masks.astype("<u8", copy=False).view(f"V{8 * words}").ravel()


def _shifted_down(masks: np.ndarray, q: int, r: int) -> np.ndarray:
    """Each row as a size-bit int shifted down (>>) by 64q + r: words move
    down by q and bits by r, and the r low bits of the next word carry in."""
    words = masks.shape[1]
    out = np.empty_like(masks)
    if q:
        out[:, words - q :] = 0
    np.right_shift(masks[:, q:], np.uint64(r), out=out[:, : words - q])
    if r and q + 1 < words:
        out[:, : words - q - 1] |= masks[:, q + 1 :] << np.uint64(64 - r)
    return out


def _bits(marks: np.ndarray):
    """Yield (rows, col, bit) rounds until each set bit of `marks` has been
    yielded once, word by word: a round holds the lowest bit left in word
    col of every row where that word is nonzero.  The nonzero words are
    taken first, so `marks` is not held while the rounds run.
    """
    words = []
    for col in np.flatnonzero(marks.any(axis=0)).tolist():
        rows = marks[:, col].nonzero()[0]
        words.append((col, rows, marks[rows, col]))
    del marks
    while words:
        col, rows, left = words.pop(0)
        while rows.size:
            bit = ~left
            bit += _ONE
            bit &= left
            yield rows, col, bit
            left ^= bit
            del bit
            keep = left.nonzero()[0]
            rows, left = rows[keep], left[keep]


def _flipped(masks: np.ndarray, rows: np.ndarray, col: int, bit: np.ndarray) -> np.ndarray:
    """The rows `rows` of `masks`, each with `bit` flipped in word `col`."""
    kids = masks[rows]
    kids[:, col] ^= bit
    return kids


def _tops(masks: np.ndarray, faces) -> np.ndarray:
    """The maximal points of each row's down-set: v is maximal unless its
    upper cover v + stride_j along some chain (x_j < a_j) is in the set."""
    tops = masks.copy()
    for q, r, below_top in faces:
        moved = _shifted_down(masks, q, r)
        moved &= below_top
        tops &= np.invert(moved, out=moved)
        del moved
    return tops


def _level_below(masks: np.ndarray, counts: np.ndarray, faces) -> tuple[np.ndarray, np.ndarray]:
    """The down-sets one point smaller than the rows of `masks` (sorted by
    _keys), sorted the same way, with their completion counts as limbs
    (_carried): each state E pushes g(E) onto E - v for every maximal point
    v of E, one limb row at a time.

    The lowest index m missing from a down-set C is a pit of C, as its
    lower covers have lower indices.  So C comes from exactly one edge
    E -> E - v with v = m, and that edge is the one whose v lies in the
    trailing ones of E, the points below the lowest index missing from E.
    Those first edges list the level below once each, argsort orders it,
    and every other edge finds its child there by searchsorted.
    """
    words = masks.shape[1]
    tops = _tops(masks, faces)
    first = masks + _ONE  # the trailing ones of each word ...
    np.invert(first, out=first)
    first &= masks
    if words > 1:  # ... up to the first word that is not all ones
        first[:, 1:][np.logical_or.accumulate(masks[:, :-1] != _ALL, axis=1)] = 0
    first &= tops
    tops ^= first
    parents, below = [], []
    for rows, col, bit in _bits(first):
        parents.append(rows)
        below.append(_flipped(masks, rows, col, bit))
    del first
    if not below:
        return masks[:0], counts[:, :0]
    below, parents = np.concatenate(below), np.concatenate(parents)
    if len(below) > 1:
        order = np.argsort(_keys(below))
        below, parents = below[order], parents[order]
        del order
    sums = np.take(counts, parents, axis=1)
    del parents
    if tops.any():
        keys, rest = _keys(below), _bits(tops)
        del tops
        for rows, col, bit in rest:
            at = np.searchsorted(keys, _keys(_flipped(masks, rows, col, bit)))
            for limb, out in zip(counts, sums):
                np.add.at(out, at, limb[rows])
    return below, _carried(sums)


_LIMB_BITS, _LIMB_MAX = np.uint64(32), np.uint64(0xFFFFFFFF)


def _carried(sums: np.ndarray) -> np.ndarray:
    """(L, n) uint64 limb sums, least significant row first, normalized in
    place to limbs below 2^32 by one carry pass, with a row more when the
    top one carries.  A DP target takes at most size adds of limbs below
    2^32, so no lane overflows and one row more always suffices."""
    for low, high in zip(sums, sums[1:]):
        high += low >> _LIMB_BITS
        low &= _LIMB_MAX
    carry = sums[-1] >> _LIMB_BITS
    if not carry.any():
        return sums
    sums[-1] &= _LIMB_MAX
    return np.concatenate((sums, carry[None]))


def _limb_bytes(counts: np.ndarray) -> tuple[bytes, int]:
    """Normalized (L, n) limbs as one buffer of n little-endian counts, 4L
    bytes each, and that step: count i is int.from_bytes of bytes
    [i * step, (i + 1) * step)."""
    return counts.astype("<u4").T.tobytes(), 4 * len(counts)


def _wide(counts: np.ndarray) -> np.ndarray:
    """Normalized (L, n) limbs as (ceil(L / 2), n) 64-bit words, least
    significant row first: each word is two limbs."""
    if len(counts) % 2:
        counts = np.concatenate((counts, np.zeros_like(counts[:1])))
    return counts[0::2] | counts[1::2] << _LIMB_BITS


def _ints(words: np.ndarray) -> np.ndarray:
    """(W, n) 64-bit words, low row first (_wide counts, masks.T), as an object
    array of n exact ints: the top row's, then one shift-and-OR per row below."""
    ints = words[-1].tolist()
    for row in words[-2::-1]:
        ints = [high << 64 | low for high, low in zip(ints, row.tolist())]
    return np.array(ints, dtype=object)


def _faces(shape: GridShape) -> list:
    """(q, r, below_top words) per chain of length > 1, its stride 64q + r."""
    words = _words(shape)
    return [(s // 64, s % 64, _word_array(below_top, words)) for s, _, below_top in shape._chain_faces[1]]


def _levels(shape: GridShape):
    """Yield each level (masks, counts) of the completion table, sorted by
    _keys, from the whole grid down to the empty set, the counts as (L, n)
    limbs (_carried), L as the level needs; callers check the cap."""
    faces = _faces(shape)
    masks = _word_array(shape._chain_faces[0], _words(shape)).reshape(1, -1)
    counts = np.ones((1, 1), dtype=np.uint64)
    while len(masks):
        yield masks, counts
        masks, counts = _level_below(masks, counts, faces)


def _reflected(masks: np.ndarray, size: int) -> np.ndarray:
    """full ^ reflect(D) for each row D: its little-endian bytes reversed,
    each bit-reversed, shifted down past the padding, then complemented."""
    words = masks.shape[1]
    flipped = _BIT_REVERSED[masks.astype("<u8", copy=False).view(np.uint8)[:, ::-1]]
    out = _shifted_down(flipped.view("<u8").astype(np.uint64, copy=False), 0, 64 * words - size)
    out ^= _word_array((1 << size) - 1, words)
    return out


def _paired_levels(shape: GridShape):
    """After the default cap check, hold every level, its counts as 64-bit
    words (_wide), and yield, for k = 1..size, arrays over the down-sets D
    of k points in _keys order: g(D); f(D) = g(E), E = full ^ reflect(D),
    by one searchsorted in E's level; D's pits, E's tops, counted.

    A level is read twice, for g at step size - i and for f at step i,
    and its counts become exact ints at each read (_ints; f's after the
    searchsorted gather on the words).  No ints outlive their step, so
    two levels' ints exist at once.  Ints kept from a level's first read
    to its second would still hold nearly every level at the middle step."""
    _check_cap(shape, None)
    # levels[i] holds the down-sets of size - i points.
    levels = [(masks, _wide(counts)) for masks, counts in _levels(shape)]
    size, faces = shape.size, _faces(shape)
    for k in range(1, size + 1):
        (masks, g), (below, counts) = levels[size - k], levels[k]
        reflected = _reflected(masks, size)
        f = _ints(counts[:, np.searchsorted(_keys(below), _keys(reflected))])
        pits = _POPCOUNT[_tops(reflected, faces).view(np.uint8)].sum(axis=1)
        yield _ints(g), f, pits


def _check_cap(shape: GridShape, cap: int | None) -> None:
    """Raise ResourceCapError if the down-set lattice of the shape exceeds
    cap // ceil(size / 64) states (`cap` counts 64-bit words, default 10^7),
    as _lattice_size shows from (shape, cap) alone, before any level is built.
    """
    cap = DEFAULT_STATE_CAP if cap is None else int(cap)
    words = _words(shape)
    count = _lattice_size(shape, cap // words)
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


class CompletionTable(Mapping[int, int]):
    """Read-only map: down-set bitmask -> g(D), kept as the DP's levels.

    _levels[k] holds the down-sets of k points as (keys, counts, step): the
    keys sorted by _keys, the counts their limbs as one bytes buffer of
    little-endian counts, `step` bytes each (_limb_bytes).  Up to 64 points
    the keys are the level's uint64 words through a memoryview, which
    bisect reads as Python ints; past 64 they are the rows' little-endian
    bytes (_Rows), whose order is _keys' order.  A down-set's key is
    _key(bits): the int itself, or its little-endian bytes.  So a lookup is
    one bisect_left in level bits.bit_count() and one int.from_bytes on the
    count's slice; iteration yields the down-sets as ints from the whole
    grid down to the empty set, each level in _keys order; and pick(D, r),
    the table's one pit reader, runs the exact sampler's scan over the
    weights g(D + v) in one call.

    The constructor runs the DP and checks no cap: completion_counts holds
    the shape to its cap first.
    """

    def __init__(self, shape: GridShape):
        self._pit_mask = shape.pit_mask
        words = _words(shape)
        # operator.index is the identity on ints.
        self._key = operator.index if words == 1 else partial(int.to_bytes, length=8 * words, byteorder="little")
        self._levels = []
        for masks, counts in _levels(shape):  # from the whole grid down
            if words == 1:
                keys = memoryview(masks[:, 0]).cast("B").cast("Q")
            else:
                keys = _Rows(masks.astype("<u8", copy=False).tobytes(), 8 * words)
            self._levels.append((keys, *_limb_bytes(counts)))
        self._levels.reverse()
        self._len = sum(len(keys) for keys, _, _ in self._levels)

    def __getitem__(self, bits: int) -> int:
        try:
            bits = operator.index(bits)
            keys, counts, step = self._levels[bits.bit_count()]
            key = self._key(bits)
        except (TypeError, IndexError, OverflowError):
            raise KeyError(bits) from None
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            raise KeyError(bits)
        i *= step
        return int.from_bytes(counts[i : i + step], "little")

    def pick(self, bits: int, r: int) -> tuple[int, int]:
        """The documented scan from the down-set D = bits, in one call: over
        the pits v of D in increasing index, subtract g(D + v) from r until
        r < g(D + v), and return that (v, g(D + v)).  Each weight is one
        bisect_left in level |D| + 1, read only when the scan reaches it; on
        one-word keys D + v increases with v, so each search starts at the
        previous pit's index.  Trusts `bits` to be a key and 0 <= r; raises
        AssertionError if the weights run out first (r >= g(D), or D the
        whole grid, which has no pits).
        """
        rest = self._pit_mask(bits)
        if rest:
            keys, counts, step = self._levels[bits.bit_count() + 1]
            key, ordered, i = self._key, isinstance(keys, memoryview), 0
            while rest:
                low = rest & -rest
                i = bisect_left(keys, key(bits | low), i if ordered else 0)
                at = i * step
                weight = int.from_bytes(counts[at : at + step], "little")
                if r < weight:
                    return low.bit_length() - 1, weight
                r -= weight
                rest ^= low
        raise AssertionError("weights of the pits must sum to g(D)")

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        for keys, _, _ in reversed(self._levels):
            yield from keys if isinstance(keys, memoryview) else (
                int.from_bytes(keys[i], "little") for i in range(len(keys))
            )


class _Rows:
    """A multi-word level's keys for bisect: row i is the i-th `step` bytes."""

    def __init__(self, data: bytes, step: int):
        self.data, self.step = data, step

    def __len__(self) -> int:
        return len(self.data) // self.step

    def __getitem__(self, i: int) -> bytes:
        return self.data[i * self.step : (i + 1) * self.step]


def completion_counts(shape: GridShape, cap: int | None = None) -> Mapping[int, int]:
    """Read-only map: down-set bitmask -> number of extensions completing it.

    A fresh CompletionTable, built after the cap check (_check_cap): every
    level of the DP, kept sorted, so a lookup is one bisect and iteration
    runs from the whole grid down to the empty set.
    """
    _check_cap(shape, cap)
    return CompletionTable(shape)


def count_extensions(shape: GridShape, cap: int | None = None) -> int:
    """Exactly count the linear extensions of a grid shape: g(empty), from
    completion_counts' levels under its cap, holding one level at a time."""
    _check_cap(shape, cap)
    for _, counts in _levels(shape):
        pass
    return _ints(_wide(counts))[0]


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
