"""Exhaustive enumeration of linear extensions and the adjacent-swap graph.

Vertices are all linear extensions of one grid; two are adjacent when they
differ by swapping a consecutive incomparable pair.  The degree of a vertex
therefore equals the number of jumps of that extension, and edges can be
found by scanning each extension's jump times and looking up the swapped
sequence.  Their mean, the mean jump count, is read from the down-set
lattice instead (exhaustive_mean_degree), so it needs no enumeration.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .counting import completion_counts, count_extensions, forward_counts
from .errors import ResourceCapError
from .grid import GridShape
from .jumps import LinearExtension, jump_times

__all__ = [
    "DEFAULT_ENUM_CAP",
    "DEFAULT_BACKTRACK_CAP",
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
    scales) exceeds `cap` (default 10^6).
    """
    cap = DEFAULT_ENUM_CAP if cap is None else int(cap)
    total = count_extensions(shape, cap=state_cap)
    if total > cap:
        raise ResourceCapError(
            f"shape {shape} has {total} extensions, above the enumeration cap of {cap}",
            cap=cap,
        )
    return _orders(shape)


def backtracking_count(shape: GridShape, cap: int | None = None) -> int:
    """Count extensions by exhausting the pit-choice tree, no memoization.

    Deliberately shares no state or recursion with the down-set DP so the
    two counts are independent; the flip side is exponential time, so this
    is an oracle for small shapes only.  Raises ResourceCapError beyond
    `cap` leaves (default 10^7).
    """
    cap = DEFAULT_BACKTRACK_CAP if cap is None else int(cap)
    size = shape.size
    masks = shape.lower_cover_masks
    ups = shape.upper_covers
    count = 0

    def rec(depth: int, placed: int, pits: tuple[int, ...]) -> None:
        nonlocal count
        if depth == size:
            count += 1
            if count > cap:
                raise ResourceCapError(
                    f"shape {shape} has more than {cap} extensions (backtracking cap)",
                    cap=cap,
                )
            return
        depth += 1
        for i, v in enumerate(pits):
            now = placed | 1 << v
            nxt = pits[:i] + pits[i + 1 :]
            for u in ups[v]:
                if not (masks[u] & ~now):
                    nxt += (u,)
            rec(depth, now, nxt)

    rec(0, 0, tuple(v for v, m in enumerate(masks) if m == 0))
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

    Edges are discovered by swapping each vertex's pair at every jump time
    and looking the swapped sequence up in a vertex table, so each edge
    must be found exactly twice (once per endpoint); that handshake is
    asserted.
    """
    orders = list(enumerate_index_orders(shape, cap, state_cap))
    position = {o: i for i, o in enumerate(orders)}
    edges: list[tuple[int, int]] = []
    degrees = [0] * len(orders)

    for i, o in enumerate(orders):
        times = jump_times(shape, o)
        degrees[i] = len(times)
        for k in times:
            swapped = o[: k - 1] + (o[k], o[k - 1]) + o[k + 1 :]
            j = position[swapped]  # a legal swap always lands on a vertex
            if i < j:
                edges.append((i, j))

    assert sum(degrees) == 2 * len(edges), "every edge must be discovered from both endpoints"
    vertices = tuple(LinearExtension(shape, o) for o in orders)
    return TranspositionGraph(shape, vertices, tuple(edges), tuple(degrees))


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
