"""Exhaustive enumeration of linear extensions and the adjacent-swap graph.

Vertices are all linear extensions of one grid; two are adjacent when they
differ by swapping a consecutive incomparable pair.  The degree of a vertex
therefore equals the number of jumps of that extension.  The graph is the
swap table T of swap_table: row s lists, for each position k, the vertex
reached by the swap at k, or s itself when that pair is comparable.  The
swap walk on an enumerable shape steps through the same table.  The mean
degree, the mean jump count, is read from the down-set lattice instead
(exhaustive_mean_degree), so it needs no enumeration.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .counting import DEFAULT_STATE_CAP, completion_counts, count_extensions, forward_counts
from .errors import ResourceCapError
from .grid import GridShape
from .jumps import LinearExtension

__all__ = [
    "DEFAULT_ENUM_CAP",
    "DEFAULT_BACKTRACK_CAP",
    "TranspositionGraph",
    "GraphStats",
    "enumerate_index_orders",
    "swap_table",
    "order_ids",
    "backtracking_count",
    "exhaustive_mean_degree",
    "build_graph",
    "graph_stats",
    "to_dot",
]

DEFAULT_ENUM_CAP = 10**6
DEFAULT_BACKTRACK_CAP = 10**7


def _orders(shape: GridShape) -> Iterator[tuple[int, ...]]:
    # Depth-first over pit choices; taking the pits in increasing index
    # order makes the output lexicographic in the index sequences.
    size = shape.size
    pit_mask = shape.pit_mask
    prefix: list[int] = []

    def rec(placed: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == size:
            yield tuple(prefix)
            return
        rest = pit_mask(placed)
        while rest:
            low = rest & -rest
            prefix.append(low.bit_length() - 1)
            yield from rec(placed | low)
            prefix.pop()
            rest ^= low

    yield from rec(0)


def enumerate_index_orders(
    shape: GridShape,
    cap: int | None = None,
    state_cap: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every extension as a raw index tuple, in lexicographic order.

    This is the bit-exact stream behind the extension file format.  Refuses
    to start when the exact count (from the counting engine, cheap at these
    scales) exceeds `cap` (default 10^6).  Every down-set is a prefix of one
    of the extensions, so a shape within the cap has at most (size + 1) *
    cap down-sets.  Unless `state_cap` is given, that (at most the default
    state cap) is the DP's state cap, so a larger lattice is refused before
    the DP is built.
    """
    cap = DEFAULT_ENUM_CAP if cap is None else int(cap)
    if state_cap is None:
        state_cap = min((shape.size + 1) * max(cap, 0), DEFAULT_STATE_CAP)
    total = count_extensions(shape, cap=state_cap)
    if total > cap:
        raise ResourceCapError(
            f"shape {shape} has {total} extensions, above the enumeration cap of {cap}",
            cap=cap,
        )
    return _orders(shape)


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
    so this is an oracle for small shapes only.  An explicit stack holds
    (placed, pits, depth) per open branch; with two points left, the
    branch completes in as many ways as it has pits.  Raises
    ResourceCapError beyond `cap` leaves (default 10^7).
    """
    cap = DEFAULT_BACKTRACK_CAP if cap is None else int(cap)
    size = shape.size
    if size <= 2:  # a single chain: one extension
        count = 1
    else:
        masks = shape.lower_cover_masks
        # Per point v: (bit, lower-cover mask) of each point covering v.
        ups = [tuple((1 << u, masks[u]) for u in covers) for covers in shape.upper_covers]
        last = size - 2
        count = 0
        stack = [(0, sum(1 << v for v, m in enumerate(masks) if m == 0), 0)]
        while stack:
            placed, pits, depth = stack.pop()
            if depth == last:
                count += pits.bit_count()
                if count > cap:
                    break
                continue
            depth += 1
            rest = pits
            while rest:
                low = rest & -rest
                rest ^= low
                now = placed | low
                nxt = pits ^ low
                for bit, mask in ups[low.bit_length() - 1]:
                    if mask & now == mask:
                        nxt |= bit
                stack.append((now, nxt, depth))
    if count > cap:
        raise ResourceCapError(f"shape {shape} has more than {cap} extensions (backtracking cap)", cap=cap)
    return count


def exhaustive_mean_degree(shape: GridShape, cap: int | None = None) -> Fraction:
    """Exact average jump count over all extensions, as a fraction.

    After a prefix D, the next pair (v, u) is a jump exactly when u was
    already a pit of D, so all extensions together have
    2 * sum_D f(D) * sum_{v < u pits of D} g(D + v + u) jumps (see
    forward_counts).  `cap` is the DP state cap.
    """
    g = completion_counts(shape, cap)
    total = 0
    for bits, f, pits in forward_counts(shape, cap):
        pairs = 0
        while pits:
            low = pits & -pits
            pits ^= low
            rest = pits
            while rest:
                other = rest & -rest
                pairs += g[bits | low | other]
                rest ^= other
        total += f * pairs
    return Fraction(2 * total, g[0])


@dataclass(frozen=True)
class TranspositionGraph:
    """Adjacent-swap graph on all extensions of one grid.

    Vertex ids are positions in `vertices` (lexicographic order of index
    sequences); `edges` holds id pairs (i, j) with i < j;
    `degree_sequence[i]` is the degree of vertex i.
    """

    shape: GridShape
    vertices: tuple[LinearExtension, ...]
    edges: tuple[tuple[int, int], ...]
    degree_sequence: tuple[int, ...]


def build_graph(
    shape: GridShape,
    cap: int | None = None,
    state_cap: int | None = None,
) -> TranspositionGraph:
    """Build the full swap graph by exhaustive enumeration.

    Edges and degrees are read from the swap table: row i's edges are the
    entries T[i, k] > i, in increasing k, and its degree counts the entries
    T[i, k] != i.  Each edge must be found exactly twice (once per
    endpoint); that handshake is asserted.
    """
    orders = list(enumerate_index_orders(shape, cap, state_cap))
    edges, degrees = _edges_and_degrees(swap_table(shape, np.array(orders, dtype=np.int32)))
    assert sum(degrees) == 2 * len(edges), "every edge must be discovered from both endpoints"
    vertices = tuple(LinearExtension(shape, o) for o in orders)
    return TranspositionGraph(shape, vertices, edges, degrees)


def _edges_and_degrees(table: np.ndarray) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    # Column 0 holds each row's own id.  Edges are read a block of rows at
    # a time, and every edge refers to one shared int per vertex, so the
    # edge list costs no more than the ids it holds.
    ids = list(range(len(table)))
    edges: list[tuple[int, int]] = []
    for lo in range(0, len(table), 4096):
        block = table[lo : lo + 4096]
        rows, ks = np.nonzero(block > block[:, :1])
        ends = map(ids.__getitem__, block[rows, ks].tolist())
        edges.extend(zip(map(ids.__getitem__, (rows + lo).tolist()), ends))
    degrees = (table != table[:, :1]).sum(1).tolist()
    return tuple(edges), tuple(degrees)


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
    """Degree statistics plus connectivity.

    The average degree is computed both as 2|E|/|V| and as the mean of the
    degree sequence; the two must agree as exact rationals.
    """
    nv = len(g.vertices)
    by_edges = Fraction(2 * len(g.edges), nv)
    by_degrees = Fraction(sum(g.degree_sequence), nv)
    assert by_edges == by_degrees, "handshake: edge count and degree sum disagree"

    adj: list[list[int]] = [[] for _ in range(nv)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = bytearray(nv)
    queue = deque([0])
    seen[0] = 1
    reached = 1
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = 1
                reached += 1
                queue.append(j)

    histogram = dict(sorted(Counter(g.degree_sequence).items()))
    return GraphStats(
        vertices=nv,
        edges=len(g.edges),
        min_degree=min(g.degree_sequence),
        max_degree=max(g.degree_sequence),
        avg_degree=by_edges,
        degree_histogram=histogram,
        connected=reached == nv,
    )


def to_dot(g: TranspositionGraph) -> str:
    """DOT rendering; vertex labels are the extensions' index sequences."""
    lines = ["graph extensions {"]
    for i, ext in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{ext.to_line()}"];')
    for i, j in g.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
