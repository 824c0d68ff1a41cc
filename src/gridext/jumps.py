"""Linear extensions of grid posets: validation, jumps, pits, extension files.

A linear extension lists every point of the grid exactly once, never placing
a point before one below it.  Time k (1-based) is a jump when the elements at
positions k and k+1 are incomparable.  Consecutive elements of an extension
are comparable only when the later one covers the earlier (a point strictly
between them would have to be placed between them), so the test is one
lookup: a in shape.lower_covers[b] (GridShape.cover_arrays gives the same
test on whole arrays).  A pit at time k is a minimal element of the part of
the grid not yet placed after k steps; GridShape.pit_mask reads all pits of
a prefix at once, and pits_counts keeps their number up to date along an
order.  Both statistics cost O(size * chains) per order, and both read a
raw index sequence: an extension is its tuple of canonical indices.

File format (external contract): one extension per line, canonical point
indices separated by single spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidExtensionError
from .grid import GridShape

__all__ = [
    "LinearExtension",
    "jump_times",
    "pits_counts",
    "rank_lex_indices",
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

    def __len__(self) -> int:
        return len(self.indices)

    @classmethod
    def from_line(cls, shape: GridShape, line: str) -> "LinearExtension":
        try:
            idx = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise InvalidExtensionError(f"malformed extension line: {line!r}") from exc
        return cls(shape, idx)


def jump_times(shape: GridShape, indices: Sequence[int]) -> tuple[int, ...]:
    """Jump times of a raw index sequence (trusted to be a valid extension).

    Time k in [1, size-1] is a jump iff point k+1 does not cover point k,
    which on a valid extension means the two are incomparable.
    """
    lower = shape.lower_covers
    return tuple(k for k in range(1, len(indices)) if indices[k - 1] not in lower[indices[k]])


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


def rank_lex_indices(shape: GridShape) -> tuple[int, ...]:
    """Indices sorted by (rank, coordinate tuple); valid for any shape.

    Rank strictly increases along the order, so this is always a linear
    extension; it doubles as the deterministic start state for the
    random-walk sampler.  On equal chains [m]^n it attains the maximum
    jump count m^n - 3 (the extremes suite checks this); the guarantee
    does not transfer to mixed shapes.
    """
    ranks = shape.rank_table
    coords = shape.coords_table
    return tuple(sorted(range(shape.size), key=lambda v: (ranks[v], coords[v])))


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
