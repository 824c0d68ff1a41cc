"""Linear extensions of grid posets: validation, jumps, pits, rank extremes.

A linear extension lists every point of the grid exactly once, never placing
a point before one below it.  Time k (1-based) is a jump when the elements at
positions k and k+1 are incomparable.  Consecutive elements of an extension
are comparable only when the later one covers the earlier (a point strictly
between them would have to be placed between them), so the test is one
lookup: a in shape.lower_covers[b] (GridShape.cover_arrays gives the same
test on whole arrays).  A pit at time k is a minimal element of the part of
the grid not yet placed after k steps; GridShape.pit_mask reads all pits of
a prefix at once, and pits_counts keeps their number up to date along an
order.  Both statistics cost O(size * chains) per order.

File format (external contract): one extension per line, canonical point
indices separated by single spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .counting import DownSet
from .errors import DomainError, InvalidExtensionError
from .grid import GridShape, Point

__all__ = [
    "LinearExtension",
    "JumpProfile",
    "PitsSequence",
    "jumps",
    "jump_times",
    "pits_sequence",
    "pits_counts",
    "rank_lex_indices",
    "rank_lex_extension",
    "first_of_rank",
    "last_of_rank",
    "read_extensions_file",
    "write_extensions_file",
    "write_index_orders",
]


def _validate_order(shape: GridShape, indices: tuple[int, ...]) -> None:
    size = shape.size
    if len(indices) != size:
        raise InvalidExtensionError(f"expected {size} points for shape {shape}, got {len(indices)}")
    coords = shape.coords_table
    lower = shape.lower_covers
    placed = bytearray(size)  # a flag per point: O(size * chains) work, no size-bit ints
    for pos, v in enumerate(indices, start=1):
        if not 0 <= v < size:
            raise InvalidExtensionError(f"index {v} at time {pos} out of range 0..{size - 1}", position=pos)
        if placed[v]:
            raise InvalidExtensionError(f"point {coords[v]} repeated at time {pos}", position=pos)
        for u in lower[v]:  # increasing index: the first one missing is the lowest
            if not placed[u]:
                raise InvalidExtensionError(
                    f"point {coords[v]} at time {pos} precedes its lower cover {coords[u]}",
                    position=pos,
                )
        placed[v] = 1


@dataclass(frozen=True)
class LinearExtension:
    """An order-respecting arrangement of all points of a grid.

    `indices[k-1]` is the canonical index of the k-th point placed.
    Validation is eager: every instance is a genuine extension, and all
    downstream operations rely on that.
    """

    shape: GridShape
    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(int(v) for v in self.indices)
        _validate_order(self.shape, indices)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_points(cls, shape: GridShape, points: Iterable[Point]) -> "LinearExtension":
        idx = []
        for p in points:
            if p.shape != shape:
                raise DomainError(f"point {p} belongs to shape {p.shape}, not {shape}")
            idx.append(p.index)
        return cls(shape, tuple(idx))

    @cached_property
    def order(self) -> tuple[Point, ...]:
        """The extension as Point objects."""
        return tuple(self.shape.point_at(v) for v in self.indices)

    def prefix(self, k: int) -> DownSet:
        """Down-set of the first k points placed (0 <= k <= size)."""
        if not 0 <= k <= len(self.indices):
            raise DomainError(f"prefix length {k} out of range 0..{len(self.indices)}")
        bits = 0
        for v in self.indices[:k]:
            bits |= 1 << v
        return DownSet(self.shape, bits)

    def __len__(self) -> int:
        return len(self.indices)

    def to_line(self) -> str:
        """Serialize per the extension file format."""
        return " ".join(str(v) for v in self.indices)

    @classmethod
    def from_line(cls, shape: GridShape, line: str) -> "LinearExtension":
        try:
            idx = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise InvalidExtensionError(f"malformed extension line: {line!r}") from exc
        return cls(shape, idx)


@dataclass(frozen=True)
class JumpProfile:
    """Sorted jump times of one extension; the degree is their number."""

    jump_times: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.jump_times)


@dataclass(frozen=True)
class PitsSequence:
    """counts[k-1] = number of pits after k placements, k = 1..size."""

    counts: tuple[int, ...]


def jump_times(shape: GridShape, indices: Sequence[int]) -> tuple[int, ...]:
    """Jump times of a raw index sequence (trusted to be a valid extension).

    Time k in [1, size-1] is a jump iff point k+1 does not cover point k,
    which on a valid extension means the two are incomparable.
    """
    lower = shape.lower_covers
    return tuple(k for k in range(1, len(indices)) if indices[k - 1] not in lower[indices[k]])


def jumps(ext: LinearExtension) -> JumpProfile:
    """Jump profile of a validated extension."""
    return JumpProfile(jump_times(ext.shape, ext.indices))


def pits_counts(shape: GridShape, indices: Sequence[int]) -> tuple[int, ...]:
    """Pit counts after each placement of a raw index sequence (trusted).

    Keeps, per point, the number of its lower covers not yet placed.  The
    placed point was a pit; each of its upper covers whose number reaches
    0 becomes one.  The counts equal the popcounts of the prefixes' pit
    masks, at O(size * chains) work per order.
    """
    ups = shape.upper_covers
    waiting = list(map(len, shape.lower_covers))
    pits = waiting.count(0)
    out = []
    for v in indices:
        pits -= 1
        for u in ups[v]:
            left = waiting[u] - 1
            waiting[u] = left
            if not left:
                pits += 1
        out.append(pits)
    return tuple(out)


def pits_sequence(ext: LinearExtension) -> PitsSequence:
    """Pits sequence of a validated extension; the last entry is always 0."""
    return PitsSequence(pits_counts(ext.shape, ext.indices))


def rank_lex_indices(shape: GridShape) -> tuple[int, ...]:
    """Indices sorted by (rank, coordinate tuple); valid for any shape.

    Rank strictly increases along the order, so this is always a linear
    extension; it doubles as the deterministic start state for the
    random-walk sampler.
    """
    ranks = shape.rank_table
    coords = shape.coords_table
    return tuple(sorted(range(shape.size), key=lambda v: (ranks[v], coords[v])))


def rank_lex_extension(shape: GridShape) -> LinearExtension:
    """Rank-by-rank, lexicographic-within-rank extension of an equal-chain grid.

    This construction attains the maximum jump degree m^n - 3 among all
    extensions of [m]^n.  Restricted to equal chain lengths; the degree
    guarantee does not transfer to mixed shapes.
    """
    if not shape.is_equilateral:
        raise DomainError(f"rank-lex construction requires equal chain lengths, got {shape}")
    return LinearExtension(shape, rank_lex_indices(shape))


def _require_equilateral_rank(shape: GridShape, s: int) -> tuple[int, int]:
    if not shape.is_equilateral:
        raise DomainError(f"defined for equal chain lengths only, got {shape}")
    if not 1 <= s <= shape.num_ranks:
        raise DomainError(f"rank {s} out of range 1..{shape.num_ranks}")
    return shape.lengths[0], shape.num_chains


def first_of_rank(shape: GridShape, s: int) -> Point:
    """Lexicographically first point of rank s in an equal-chain grid.

    Greedy: scan coordinates left to right, giving each the least value
    that leaves the remaining coordinate sum achievable.  The first
    coordinate comes out as max(s - (n-1)(m-1), 1).
    """
    m, n = _require_equilateral_rank(shape, s)
    rem = s + n - 1  # coordinate sum of every rank-s point
    coords = []
    for j in range(n):
        x = max(1, rem - (n - 1 - j) * m)
        coords.append(x)
        rem -= x
    return Point(shape, tuple(coords))


def last_of_rank(shape: GridShape, s: int) -> Point:
    """Lexicographically last point of rank s; first coordinate is min(s, m)."""
    m, n = _require_equilateral_rank(shape, s)
    rem = s + n - 1
    coords = []
    for j in range(n):
        x = min(m, rem - (n - 1 - j))
        coords.append(x)
        rem -= x
    return Point(shape, tuple(coords))


def write_index_orders(fh, orders: Iterable[Sequence[int]]) -> int:
    """Stream index orders to an open text file in the extension file format.

    The one writer behind every extension file; returns the number written.
    """
    count = 0
    for count, order in enumerate(orders, start=1):
        fh.write(" ".join(map(str, order)) + "\n")
    return count


def write_extensions_file(path, extensions: Iterable[LinearExtension]) -> int:
    """Write extensions one per line; returns the number written."""
    with open(path, "w", encoding="ascii") as fh:
        return write_index_orders(fh, (ext.indices for ext in extensions))


def read_extensions_file(path, shape: GridShape) -> list[LinearExtension]:
    """Read and validate an extension file against a shape.

    The file is ASCII; a line holding any other byte is rejected by number.
    """
    out = []
    # surrogateescape decodes each non-ASCII byte b to the lone surrogate
    # U+DC00 + b, so the line it sits on can be named.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                raise InvalidExtensionError(f"line {lineno}: non-ASCII byte 0x{byte:02x}")
            line = line.strip()
            if not line:
                continue
            try:
                out.append(LinearExtension.from_line(shape, line))
            except InvalidExtensionError as exc:
                raise InvalidExtensionError(f"line {lineno}: {exc}", position=exc.position) from exc
    return out
