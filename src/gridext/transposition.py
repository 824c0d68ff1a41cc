"""Exhaustive enumeration of linear extensions and the adjacent-swap graph.

Vertices are all linear extensions of one grid; two are adjacent when they
differ by swapping a consecutive incomparable pair.  The degree of a vertex
therefore equals the number of jumps of that extension.  Enumeration runs
depth-first over blocks of prefixes of one length, each a numpy array, and
keeps per prefix the number of unplaced lower covers of every point; it
reads no pit mask (enumerate_index_orders).  The graph is two arrays
(TranspositionGraph): `orders`, every extension in enumeration order, one
per row, the enumerator's int32 blocks concatenated, and their swap table
T (swap_table), whose row s lists for each position k the row reached by
the swap at k, or s itself when that pair is comparable.  Degrees, edges,
connectivity and the DOT rendering are all read from T, and build_graph
asserts that T is an involution in each column.  The swap walk on an
enumerable shape steps through the same table.  The mean degree, the mean
jump count, needs neither the graph nor the down-set lattice: it is
size - num_ranks (exhaustive_mean_degree), so it evaluates at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .counting import count_extensions
from .errors import ResourceCapError
from .grid import GridShape, _bit_indices, whitney_numbers
from .jumps import _block_rows, _labels

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
# Points up to which enumeration lists a chain; the swap walk, whose start
# state reads per-point tables, refuses shapes past it.
_MAX_POINTS = 1 << 17
_BACKTRACK_ROWS = 1 << 14  # open branches per block of the backtracking oracle
_WORD = 64  # points up to which the backtracking oracle's placed set fits a uint64


def _order_blocks(shape: GridShape) -> Iterator[np.ndarray]:
    # The blocks of enumerate_index_orders, int32 (rows, size) arrays, for
    # a shape of two or more points.  A stacked block is (prefixes,
    # waiting): waiting[r, v] counts the unplaced lower covers of point v
    # after prefix r, or is -1 once v is placed, so the prefix's pits are
    # its zeros.
    size = shape.size
    rows = _block_rows(shape)
    last = size - 1  # the top corner, always placed last
    index = np.arange(size)
    # Per chain of length > 1: which points have an upper cover along it, and its stride.
    chains = [(index // s % a < a - 1, s) for a, s in zip(shape.lengths, shape.strides) if a > 1]
    waiting = np.array([len(downs) for downs in shape.lower_covers], dtype=np.int64)
    stack = [(np.zeros((1, 0), dtype=np.int32), waiting[None])]
    while stack:
        prefix, waiting = stack.pop()
        parents, pits = np.nonzero(waiting == 0)
        depth = prefix.shape[1] + 1
        child = np.empty((len(pits), depth + (depth == last)), dtype=np.int32)
        child[:, : depth - 1] = prefix[parents]
        child[:, depth - 1] = pits
        if depth == last:
            child[:, last] = last
            yield child
            continue
        waiting = waiting[parents]
        waiting[np.arange(len(pits)), pits] = -1
        for has_up, stride in chains:
            up = np.flatnonzero(has_up[pits])
            waiting[up, pits[up] + stride] -= 1
        for lo in range((len(pits) - 1) // rows * rows, -1, -rows):
            stack.append((child[lo : lo + rows], waiting[lo : lo + rows]))


def _ranks_exceed(shape: GridShape, cap: int) -> bool:
    # The rank levels alone show more than cap extensions: 2^(num_ranks - 2), each inner level of a
    # non-chain being 2 wide or more, then their factorial product, each factor stopped at (bits + 1)! > cap.
    if shape.num_ranks - 2 >= (bits := cap.bit_length()):
        return True
    return math.prod(math.factorial(min(w, bits + 1)) for w in whitney_numbers(shape)) > cap


def _enumeration(shape: GridShape, cap: int | None) -> Iterator[np.ndarray]:
    # enumerate_index_orders' refusals, then its orders as int32 blocks.
    cap = DEFAULT_ENUM_CAP if cap is None else int(cap)
    if cap >= 1 and shape.is_chain:  # one extension, no table
        if shape.size > _MAX_POINTS:
            raise ResourceCapError(f"shape {shape} has one extension, of more than {_MAX_POINTS} points", cap=_MAX_POINTS)
        return iter([np.arange(shape.size, dtype=np.int32)[None]])
    if _ranks_exceed(shape, cap):
        total = f"more than {cap}"
    elif (total := count_extensions(shape)) <= cap:
        return _order_blocks(shape)
    raise ResourceCapError(f"shape {shape} has {total} extensions, above the enumeration cap of {cap}", cap=cap)


def enumerate_index_orders(shape: GridShape, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every extension as a raw index tuple, in lexicographic order.

    This is the bit-exact stream behind the extension file format.  The
    orders are listed depth-first over blocks of prefixes, all of one
    length, at most 2^12 point indices a block (jumps._block_rows).  A
    block's children are its rows' pits in (parent row, pit index) order.
    When the parents are in lexicographic order, so are the children: a
    parent's children share its prefix and differ in the next point.  The
    children are pushed in reversed chunks, so the first chunk is expanded
    first and all descendants of a chunk precede those of the next; the
    output stays lexicographic.  Per prefix, each point keeps its number
    of unplaced lower covers; placing v decrements those of v's upper
    covers, one step per chain of length > 1, and the top corner is
    appended last.  No pit mask is read, so the listing shares no table
    with the down-set DP.

    Refuses to start when the shape has more than `cap` extensions (default
    10^6), first where one of two table-free bounds shows it, cheapest
    first: 2^(num_ranks - 2), as each inner rank level of a non-chain is at
    least 2 wide; the rank levels' factorial product, each factorial stopped
    once it alone passes the cap.  Else the count decides, under the default
    state cap.  A chain (GridShape.is_chain) of up to 2^17 points has one
    extension, 0 1 ... size - 1, listed without the DP if cap >= 1.
    """
    blocks = _enumeration(shape, cap)
    return (tuple(row) for block in blocks for row in block.tolist())


def _lex_keys(rows: np.ndarray) -> np.ndarray:
    # Big-endian entries compare bytewise in numeric order, so each row
    # becomes one opaque key, and keys sort as the rows do lexicographically.
    # The entries are point indices below the row length, so the narrowest
    # width that holds row length - 1 is enough.
    dtype = np.min_scalar_type(rows.shape[1] - 1).newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    return rows.view(f"V{dtype.itemsize * rows.shape[1]}").ravel()


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
    chunk = _block_rows(shape)  # rows per pass, to bound the temporaries
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
    if _ranks_exceed(shape, cap):
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
        for v in _bit_indices(int(np.bitwise_or.reduce(pits))):
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
    orders as one int32 array, the enumerator's blocks concatenated with no
    tuple per order, and their swap table T.

    A swap undone is the identity, so T must be an involution in each
    column: T[T[s, k], k] == s.  That check, which also makes every edge
    found from both ends, is asserted.
    """
    orders = np.concatenate(list(_enumeration(shape, cap)))
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
    vertex 0 whose frontier advances through whole rows of T; one reused
    bool array marks the vertices a step reaches, so each joins the next
    frontier once, with no sort.
    """
    degrees = g.degrees
    nv = len(degrees)
    seen = np.zeros(nv, dtype=bool)
    seen[0] = True
    reached = np.zeros(nv, dtype=bool)
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reached[g.table[frontier]] = True
        np.greater(reached, seen, out=reached)  # reached and not seen before
        frontier = np.flatnonzero(reached)
        seen[frontier] = True
        reached[frontier] = False
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
    chunk = _block_rows(g.shape)
    text = _labels(g.shape.size).__getitem__
    yield "graph extensions {\n"
    for lo in range(0, len(g.orders), chunk):
        block = g.orders[lo : lo + chunk].tolist()
        yield "".join('  v%d [label="%s"];\n' % (i, " ".join(map(text, row))) for i, row in enumerate(block, lo))
    for lo in range(0, len(g.table), chunk):
        block = g.table[lo : lo + chunk]
        rows, ks = np.nonzero(block > block[:, :1])
        yield "".join("  v%d -- v%d;\n" % pair for pair in zip((rows + lo).tolist(), block[rows, ks].tolist()))
    yield "}\n"


def to_dot(g: TranspositionGraph) -> str:
    """DOT rendering as one string (see dot_blocks)."""
    return "".join(dot_blocks(g))
