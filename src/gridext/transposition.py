"""Exhaustive enumeration of linear extensions and the adjacent-swap graph.

Vertices are all linear extensions of one grid; two are adjacent when they
differ by swapping a consecutive incomparable pair.  The degree of a vertex
therefore equals the number of jumps of that extension.  The graph is two
arrays (TranspositionGraph): `orders`, every extension in enumeration
order, one per row, and their swap table T (swap_table), whose row s lists
for each position k the row reached by the swap at k, or s itself when
that pair is comparable.  Degrees, edges, connectivity and the DOT
rendering are all read from T, and build_graph asserts that T is an
involution in each column.  The swap walk on an enumerable shape steps
through the same table.  The mean degree, the mean jump count, needs
neither the graph nor the down-set lattice: it is size - num_ranks
(exhaustive_mean_degree), so it evaluates at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .counting import _lattice_lower_bound, count_extensions, factorial_product_lower_bound
from .errors import ResourceCapError
from .grid import GridShape

__all__ = [
    "DEFAULT_ENUM_CAP",
    "TranspositionGraph",
    "GraphStats",
    "enumerate_index_orders",
    "backtracking_count",
    "exhaustive_mean_degree",
    "build_graph",
    "graph_stats",
    "to_dot",
]

DEFAULT_ENUM_CAP = 10**6
DEFAULT_BACKTRACK_CAP = 10**7
# Points up to which enumeration lists a chain or the rank levels; the swap
# walk, whose start state reads per-point tables, refuses shapes past it.
_MAX_POINTS = 1 << 17
_DOT_ROWS = 1 << 12  # vertices per block of DOT output
_BACKTRACK_ROWS = 1 << 14  # open branches per block of the backtracking oracle
_WORD = 64  # points up to which the backtracking oracle's placed set fits a uint64


def _orders(shape: GridShape) -> Iterator[tuple[int, ...]]:
    # Depth-first over pit choices; taking the pits in increasing index
    # order makes the output lexicographic in the index sequences.  The
    # depth is one level per point, so the search keeps its own stack: per
    # level, the pits not yet tried there.
    size = shape.size
    pit_mask = shape.pit_mask
    prefix: list[int] = []
    untried = [pit_mask(0)]
    placed = 0
    while untried:
        rest = untried[-1]
        if not rest:
            untried.pop()
            if prefix:
                placed ^= 1 << prefix.pop()
            continue
        low = rest & -rest
        untried[-1] = rest ^ low
        prefix.append(low.bit_length() - 1)
        if len(prefix) < size:
            placed |= low
            untried.append(pit_mask(placed))
        else:
            yield tuple(prefix)
            prefix.pop()


def enumerate_index_orders(shape: GridShape, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every extension as a raw index tuple, in lexicographic order.

    This is the bit-exact stream behind the extension file format.  Refuses
    to start when the shape has more than `cap` extensions (default 10^6),
    first where a table-free bound shows it: more than (size + 1) * cap
    down-sets, each a prefix of some extension, or the rank levels: up to
    2^17 points their factorial product, past it 2^(num_ranks - 2), as
    every inner level of a non-chain is at least 2 wide; else the count
    decides, under the default state cap.  A chain (GridShape.is_chain) of
    up to 2^17 points has one extension, 0 1 ... size - 1, listed without
    the DP if cap >= 1.
    """
    cap = DEFAULT_ENUM_CAP if cap is None else int(cap)
    if cap >= 1 and shape.is_chain:  # one extension, no table
        if shape.size > _MAX_POINTS:
            raise ResourceCapError(f"shape {shape} has one extension, of more than {_MAX_POINTS} points", cap=_MAX_POINTS)
        return iter([tuple(range(shape.size))])
    prefixes = (shape.size + 1) * cap
    levels = shape.size <= _MAX_POINTS  # few enough points to list the rank levels
    if (
        _lattice_lower_bound(shape, prefixes) > prefixes
        or levels and factorial_product_lower_bound(shape) > cap
        # Not a chain: each inner rank level is at least 2 wide.
        or not levels and shape.num_ranks - 2 >= cap.bit_length()
    ):
        total = f"more than {cap}"
    elif (total := count_extensions(shape)) <= cap:
        return _orders(shape)
    raise ResourceCapError(f"shape {shape} has {total} extensions, above the enumeration cap of {cap}", cap=cap)


def _lex_keys(rows: np.ndarray) -> np.ndarray:
    # Big-endian entries compare bytewise in numeric order, so each row
    # becomes one opaque key, and keys sort as the rows do lexicographically.
    rows = np.ascontiguousarray(rows, dtype=">u4")
    return rows.view(f"V{4 * rows.shape[1]}").ravel()


def order_ids(orders: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row numbers in `orders` of each of `rows`, which must all occur there.

    `orders` holds extensions in lexicographic order, one per row, as
    enumerate_index_orders lists them; the lookup is a binary search.
    """
    return np.searchsorted(_lex_keys(orders), _lex_keys(rows))


def swap_table(shape: GridShape, orders: np.ndarray) -> np.ndarray:
    """The swap graph as an int32 table over `orders`, every extension of
    `shape` in enumeration order, one per row.

    T[s, k] for 1 <= k < size is the row reached from row s by swapping its
    entries k - 1 and k, or s itself when they are comparable (b covers a,
    read from GridShape.cover_arrays); T[s, 0] = s.  A legal swap always
    lands on an extension, so order_ids finds every swapped row.
    """
    count, size = orders.shape
    table = np.repeat(np.arange(count, dtype=np.int32)[:, None], size, axis=1)
    up, step = shape.cover_arrays
    keys = _lex_keys(orders)
    chunk = max(1, (1 << 14) // size)  # rows per pass, to bound the temporaries
    for lo in range(0, count, chunk):
        block = orders[lo : lo + chunk]
        a, b = block[:, :-1], block[:, 1:]
        rows, ks = np.nonzero(up[b] & step[b - a + size] == 0)
        ks += 1
        swapped = block[rows]
        i = np.arange(len(rows))
        swapped[i, ks - 1] = block[rows, ks]
        swapped[i, ks] = block[rows, ks - 1]
        table[rows + lo, ks] = np.searchsorted(keys, _lex_keys(swapped))
    return table


def backtracking_count(shape: GridShape, cap: int | None = None) -> int:
    """Count extensions by exhausting the pit-choice tree, no memoization.

    Deliberately shares no state with the down-set DP, nor its pit masks,
    so the two counts are independent; the flip side is exponential time,
    so this is an oracle for small shapes only.  The tree is walked a
    block of open branches at a time: an explicit stack holds (placed,
    pits, depth) as uint64 arrays of at most _BACKTRACK_ROWS rows, one
    branch per row, all at the same depth.  One pop expands every row:
    for each point v that is a pit of some row, those rows place v and
    gain each upper cover of v whose lower covers are then all placed.
    With two points left, the top corner and one point below it, a branch
    completes in one way, so a block at depth size - 2 adds its rows.

    A chain (GridShape.is_chain) has one extension.  Otherwise a placed
    set must fit one 64-bit word, so a shape of more than 64 points (at
    least 2^32 extensions by its rank levels) raises ResourceCapError at
    once, as does one whose rank levels alone show more than `cap`
    extensions (default 10^7); the walk itself stops at the first block
    that takes the count past `cap`.
    """
    cap = DEFAULT_BACKTRACK_CAP if cap is None else int(cap)
    refusal = ResourceCapError(f"shape {shape} has more than {cap} extensions (backtracking cap)", cap=cap)
    if shape.is_chain:
        if cap < 1:
            raise refusal
        return 1
    if shape.size > _WORD:
        raise ResourceCapError(f"shape {shape} has more than {_WORD} points (backtracking oracle)", cap=_WORD)
    if factorial_product_lower_bound(shape) > cap:
        raise refusal
    masks = np.array(shape.lower_cover_masks, dtype=np.uint64)
    bits = np.uint64(1) << np.arange(shape.size, dtype=np.uint64)
    # Per point v: (bit, lower-cover mask) of each point covering v.
    ups = [[(bits[u], masks[u]) for u in covers] for covers in shape.upper_covers]
    zero = np.uint64(0)
    last = shape.size - 2
    count = 0
    stack = [(np.zeros(1, np.uint64), np.bitwise_or.reduce(bits[masks == 0], keepdims=True), 0)]
    while stack:
        placed, pits, depth = stack.pop()
        if depth == last:
            count += len(pits)
            if count > cap:
                raise refusal
            continue
        children = []
        union = int(np.bitwise_or.reduce(pits))
        while union:
            low = union & -union
            union ^= low
            v = low.bit_length() - 1
            rows = np.flatnonzero(pits & bits[v])
            now = placed[rows] | bits[v]
            nxt = pits[rows] ^ bits[v]
            for bit, mask in ups[v]:
                nxt |= np.where((now & mask) == mask, bit, zero)
            children.append((now, nxt))
        now, nxt = map(np.concatenate, zip(*children))
        for lo in range(0, len(now), _BACKTRACK_ROWS):
            stack.append((now[lo : lo + _BACKTRACK_ROWS], nxt[lo : lo + _BACKTRACK_ROWS], depth + 1))
    return count


def exhaustive_mean_degree(shape: GridShape, cap: int | None = None) -> Fraction:
    """Exact average jump count over all extensions: size - num_ranks.

    Along an extension x_1, ..., x_size the rank steps r(x_{k+1}) - r(x_k)
    sum to num_ranks - 1, from the bottom corner to the top.  Two
    consecutive points are either a cover, a step of exactly +1, or a
    jump, an incomparable pair.  Swapping a jump's two points gives another
    extension with a jump at the same time and the opposite step; this
    swap pairs up all (extension, jump time) pairs, so over all extensions
    the jump steps sum to 0.  So the covers alone make the climb: on
    average an extension has num_ranks - 1 covers among its size - 1
    steps, and size - num_ranks jumps.

    No table is built, so astronomic shapes evaluate at once.  `cap`, once
    the DP state cap, is unused.
    """
    return Fraction(shape.size - shape.num_ranks)


@dataclass(frozen=True, eq=False)  # arrays do not compare to one bool
class TranspositionGraph:
    """Adjacent-swap graph on all extensions of one grid, as two arrays.

    Vertex ids are row numbers of `orders`, every extension as an index
    sequence in lexicographic order; `table` is their swap table (see
    swap_table).  Row s's edges are its entries T[s, k] > s, in increasing
    k, so each edge (s, T[s, k]) appears once with s < T[s, k].  Both
    arrays are read-only.
    """

    shape: GridShape
    orders: np.ndarray
    table: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        """Degree of each vertex: its entries T[s, k] != s."""
        return (self.table != self.table[:, :1]).sum(1)


def build_graph(shape: GridShape, cap: int | None = None) -> TranspositionGraph:
    """Build the full swap graph by exhaustive enumeration: the enumerated
    orders as one int32 array, and their swap table T.

    A swap undone is the identity, so T must be an involution in each
    column: T[T[s, k], k] == s.  That check, which also makes every edge
    found from both ends, is asserted.
    """
    orders = np.array(list(enumerate_index_orders(shape, cap)), dtype=np.int32)
    table = swap_table(shape, orders)
    back = table[table, np.arange(shape.size)]
    assert (back == table[:, :1]).all(), "the swap table must be an involution in each column"
    orders.flags.writeable = table.flags.writeable = False
    return TranspositionGraph(shape, orders, table)


@dataclass(frozen=True)
class GraphStats:
    vertices: int
    edges: int
    min_degree: int
    max_degree: int
    avg_degree: Fraction
    degree_histogram: Mapping[int, int]
    connected: bool


def graph_stats(g: TranspositionGraph) -> GraphStats:
    """Degree statistics plus connectivity, all read from the swap table.

    Each edge counts once in the degree of either end, so the edge count
    is half the degree sum.  Connectivity is a breadth-first search from
    vertex 0 whose frontier advances through whole rows of T.
    """
    degrees = g.degrees
    nv = len(degrees)
    seen = np.zeros(nv, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reached = np.unique(g.table[frontier])
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    values, counts = np.unique(degrees, return_counts=True)
    total = int(degrees.sum())
    return GraphStats(
        vertices=nv,
        edges=total // 2,
        min_degree=int(values[0]),
        max_degree=int(values[-1]),
        avg_degree=Fraction(total, nv),
        degree_histogram=dict(zip(values.tolist(), counts.tolist())),
        connected=bool(seen.all()),
    )


def dot_blocks(g: TranspositionGraph) -> Iterator[str]:
    """The DOT rendering, one block of rows at a time: first the vertices,
    labelled with the extensions' index sequences, then the edges
    (s, T[s, k] > s) row by row.  No list of all lines is held.
    """
    yield "graph extensions {\n"
    for lo in range(0, len(g.orders), _DOT_ROWS):
        block = g.orders[lo : lo + _DOT_ROWS].tolist()
        yield "".join(f'  v{i} [label="{" ".join(map(str, row))}"];\n' for i, row in enumerate(block, lo))
    for lo in range(0, len(g.table), _DOT_ROWS):
        block = g.table[lo : lo + _DOT_ROWS]
        rows, ks = np.nonzero(block > block[:, :1])
        yield "".join(f"  v{i} -- v{j};\n" for i, j in zip((rows + lo).tolist(), block[rows, ks].tolist()))
    yield "}\n"


def to_dot(g: TranspositionGraph) -> str:
    """DOT rendering as one string (see dot_blocks)."""
    return "".join(dot_blocks(g))
