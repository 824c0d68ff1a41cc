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

The package's statistics read whole blocks of orders at once:
jump_pit_block takes a (rows, size) array and returns the jump flags and
pit counts of every row, with no Python loop over orders or times.  Both
come from the positions of the points and, per point, the last position
of a lower cover: one maximum per chain, then one comparison for the
jumps and one bincount and one cumsum for the pits.  jump_times and
pits_counts are the per-order reference the kernel is tested against.
One cutter, _blocks, cuts every stream of orders or lines into blocks.
read_extensions_file and the jumps and pits commands read a file as
validated int64 blocks (_read_blocks): a token is a point iff it is that
point's label (_labels, the writer's table), and a row is an extension iff
no point repeats and every point but 0 sits after its last lower cover
(ready < pos).  A block that fails is read again line by line through
LinearExtension.from_line, which names the first bad line's error.

File format (external contract): one extension per line, canonical point
indices separated by single spaces.  An index is a decimal numeral of ASCII
digits with no sign, underscore or leading zero; a reader also takes other
whitespace between and around them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidExtensionError
from .grid import GridShape

__all__ = [
    "LinearExtension",
    "jump_times",
    "pits_counts",
    "jump_pit_block",
    "jump_pit_blocks",
    "rank_lex_indices",
    "read_extensions_file",
    "write_extensions_file",
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
        try:
            indices = tuple(map(operator.index, self.indices))
        except TypeError:
            pos, v = next((pos, v) for pos, v in enumerate(self.indices, 1) if not hasattr(v, "__index__"))
            raise InvalidExtensionError(f"index {v!r} at time {pos} is not an integer", position=pos) from None
        _validate_order(self.shape, indices)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_line(cls, shape: GridShape, line: str) -> "LinearExtension":
        """The extension on one line of an extension file: read_extensions_file's
        per-line path, which names a bad line's first error."""
        return cls(shape, _parse_line(line))

    @classmethod
    def _trusted(cls, shape: GridShape, indices: tuple[int, ...]) -> "LinearExtension":
        # An instance of indices already validated, without validating again.
        ext = object.__new__(cls)
        object.__setattr__(ext, "shape", shape)
        object.__setattr__(ext, "indices", indices)
        return ext


def _parse_line(line: str) -> tuple[int, ...]:
    toks = line.split()
    digits = "".join(toks)
    spaced = f" {'  '.join(toks)} "  # two spaces apart: matches of " 0 " cannot overlap
    try:
        # ASCII digits only, and no leading zero: a token that starts with 0 is 0.
        if not (digits.isascii() and digits.isdigit() and spaced.count(" 0") == spaced.count(" 0 ")):
            raise ValueError("not a line of decimal numerals")
        return tuple(map(int, toks))  # also refuses a numeral past int()'s digit limit
    except ValueError as exc:
        raise InvalidExtensionError(f"malformed extension line: {line!r}") from exc


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


def _positions(shape: GridShape, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, ready) of a (rows, size) int64 array of orders, indices in range.

    pos[r, v] is the position of point v in row r (left unset for a point
    the row misses), ready[r, v] the last position of a lower cover of v,
    0 for point 0: the maximum over the chains of pos one step down that
    chain, as shifted grid views.
    """
    rows, size = orders.shape
    pos = np.empty_like(orders)
    pos[np.arange(rows)[:, None], orders] = np.arange(size)
    # Chains of length 1 add no axis: numpy allows at most 64 dimensions.
    pos_grid = pos.reshape(rows, *(a for a in shape.lengths if a > 1))
    ready = np.zeros_like(pos_grid)
    for axis in range(1, ready.ndim):
        above, below = np.moveaxis(ready, axis, 0)[1:], np.moveaxis(pos_grid, axis, 0)[:-1]
        np.maximum(above, below, out=above)
    return pos, ready.reshape(rows, size)


def jump_pit_block(shape: GridShape, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jump flags and pit counts of a (rows, size) int array of trusted orders.

    Returns a bool (rows, size - 1) array, entry [r, k - 1] true iff time k
    of row r is a jump, and an int64 (rows, size) array, entry [r, k - 1]
    the number of pits after k placements: row by row, jump_times and
    pits_counts.
    """
    orders = np.asarray(orders, dtype=np.int64)
    rows, size = orders.shape
    ready = _positions(shape, orders)[1]
    # Only the bottom corner, point 0, has no lower cover; it is placed first.
    # The point at position p follows one of its lower covers iff its last
    # lower cover sits at p - 1; otherwise time p is a jump.
    jumps = np.take_along_axis(ready, orders, axis=1)[:, 1:] != np.arange(size - 1)
    # Point v != 0 is a pit after k placements iff ready < k <= pos, so the
    # count is #{v != 0: ready[v] <= k - 1} less the k - 1 such points placed.
    ready[:, 1:] += size * np.arange(rows)[:, None]
    pits = np.bincount(ready[:, 1:].ravel(), minlength=rows * size).reshape(rows, size).cumsum(axis=1)
    pits -= np.arange(size)
    return jumps, pits


_BLOCK_ENTRIES = 1 << 12  # point indices per block: 32 KB an int64 array


def _block_rows(shape: GridShape) -> int:
    """Orders per block of every pass that takes orders a block at a time."""
    return max(1, _BLOCK_ENTRIES // shape.size)


def _blocks(items: Iterable, rows: int) -> Iterator:
    """The one stream cutter: blocks of `rows` items, the last shorter; row slices
    (views) of an array, else lists, reading the iterable once."""
    if isinstance(items, np.ndarray):
        return (items[lo : lo + rows] for lo in range(0, len(items), rows))
    items = iter(items)
    return iter(lambda: list(itertools.islice(items, rows)), [])


def jump_pit_blocks(shape: GridShape, orders: Iterable[Sequence[int]]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """jump_pit_block over a stream of trusted orders, in _blocks of at most
    2^12 point indices (one order if it is longer): (jump flags, pit
    counts) per block, rows in stream order.
    """
    return (jump_pit_block(shape, block) for block in _blocks(orders, _block_rows(shape)))


def rank_lex_indices(shape: GridShape) -> tuple[int, ...]:
    """Indices sorted by (rank, coordinate tuple); valid for any shape.

    Rank strictly increases along the order, so this is always a linear
    extension; it doubles as the deterministic start state for the
    random-walk sampler.  On equal chains [m]^n it attains the maximum
    jump count m^n - 3 (the extremes suite checks this); the guarantee
    does not transfer to mixed shapes.  Canonical index order is the
    lexicographic order of the coordinates, so a stable sort by rank alone
    breaks ties by coordinates.
    """
    return tuple(sorted(range(shape.size), key=shape.rank_table.__getitem__))


def _labels(size: int) -> list[str]:
    """The decimal text of each point index 0..size-1, formatted once."""
    return list(map(str, range(size)))


def write_index_orders(fh, orders: Iterable[Sequence[int]]) -> int:
    """Stream index orders to an open text file in the extension file format.

    The one writer behind every extension file; returns the number written.
    Trusted orders of one shape: one label list, from the first order's length.
    """
    count = 0
    for count, order in enumerate(orders, start=1):
        if count == 1:
            text = _labels(len(order)).__getitem__
        fh.write(" ".join(map(text, order)) + "\n")
    return count


def write_extensions_file(path, extensions: Iterable[LinearExtension]) -> int:
    """Write extensions one per line; returns the number written."""
    with open(path, "w", encoding="ascii") as fh:
        return write_index_orders(fh, (ext.indices for ext in extensions))


def _block_orders(shape: GridShape, lines: list[str], index: dict[str, int]) -> np.ndarray | None:
    """The (rows, size) int64 orders of a block of lines if every line is
    an extension of the shape, else None.  `index` inverts _labels(size)."""
    size = shape.size
    try:  # a token that is no label, ragged lines or lines of another length: refused
        block = np.array([list(map(index.__getitem__, line.split())) for line in lines], dtype=np.int64)
        block = block.reshape(len(lines), size)
    except (KeyError, ValueError):
        return None
    pos, ready = _positions(shape, block)
    # A repeated point keeps only one of its positions; a point placed no
    # later than its last lower cover is out of order.
    if (np.take_along_axis(pos, block, axis=1) != np.arange(size)).any() or (ready[:, 1:] >= pos[:, 1:]).any():
        return None
    return block


def _read_blocks(path, shape: GridShape) -> Iterator[np.ndarray]:
    """The nonblank lines of an extension file as validated (rows, size)
    int64 blocks of the jump_pit_blocks row count.  A block that fails
    _block_orders' check is read again in file order through
    LinearExtension.from_line, which raises the first error, as a
    line-by-line read would.  The file is ASCII; a line holding any other
    byte is rejected by number.
    """
    index = {label: v for v, label in enumerate(_labels(shape.size))}
    # surrogateescape decodes each non-ASCII byte b to the lone surrogate
    # U+DC00 + b, so the line it sits on can be named.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        stripped = ((lineno, line.strip()) for lineno, line in enumerate(fh, start=1))
        lines = filter(operator.itemgetter(1), stripped)  # nonblank lines, numbered
        for block in _blocks(lines, _block_rows(shape)):
            orders = _block_orders(shape, [line for _, line in block], index)
            if orders is None:
                orders = []
                for lineno, line in block:
                    try:
                        if not line.isascii():
                            byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                            raise InvalidExtensionError(f"non-ASCII byte 0x{byte:02x}")
                        orders.append(LinearExtension.from_line(shape, line).indices)
                    except InvalidExtensionError as exc:
                        raise InvalidExtensionError(f"line {lineno}: {exc}", position=exc.position) from exc
                orders = np.asarray(orders, dtype=np.int64)
            yield orders


def read_extensions_file(path, shape: GridShape) -> list[LinearExtension]:
    """Read and validate an extension file against a shape: the extensions
    of _read_blocks' blocks, or the first bad line's error."""
    blocks = _read_blocks(path, shape)
    return [LinearExtension._trusted(shape, order) for block in blocks for order in map(tuple, block.tolist())]
