"""Grid posets: finite products of chains under the componentwise order.

A grid shape (a_1, ..., a_k) describes the poset whose elements are integer
vectors x with 1 <= x_j <= a_j, ordered by x <= y iff x_j <= y_j for every
coordinate.  The rank of x is 1 + sum_j (x_j - 1), so ranks run from 1 at
the bottom corner to 1 + sum_j (a_j - 1) at the top corner.

Every point also has a canonical integer index used for compact storage and
for all file formats produced by this package:

    index(x) = sum_j (x_j - 1) * prod_{l > j} a_l

i.e. row-major order with the last coordinate varying fastest.  Coordinates
are 1-based, indices are 0-based.  This numbering is part of the external
contract and must not change.

The package works on indices and bitmasks only: a point is its index, a
set of points (a down-set, the pits of one) is an int whose bit v stands
for point v.  GridShape.index_of and GridShape.coords_of convert at the
boundary; the per-index tables below (coordinates, ranks, covers), the
pit mask and the cover arrays carry the order structure.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DomainError

__all__ = ["GridShape", "whitney_numbers", "max_antichain_size"]

@dataclass(frozen=True)
class GridShape:
    """Chain lengths (a_1, ..., a_k) of a product-of-chains poset."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        try:
            lengths = tuple(map(operator.index, self.lengths))
        except TypeError as exc:
            raise DomainError(f"chain lengths must be an iterable of ints, got {self.lengths!r}") from exc
        if not lengths:
            raise DomainError("a grid shape needs at least one chain")
        if any(a < 1 for a in lengths):
            raise DomainError(f"chain lengths must be >= 1, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def equilateral(cls, m: int, n: int) -> "GridShape":
        """The shape with n chains of equal length m."""
        try:
            n = operator.index(n)
        except TypeError as exc:
            raise DomainError(f"the number of chains must be an int, got n={n!r}") from exc
        if n < 1:
            raise DomainError(f"need at least one chain, got n={n}")
        return cls((m,) * n)

    @property
    def num_chains(self) -> int:
        return len(self.lengths)

    @cached_property
    def size(self) -> int:
        """Number of points, prod_j a_j."""
        return math.prod(self.lengths)

    @cached_property
    def num_ranks(self) -> int:
        """Largest rank value, 1 + sum_j (a_j - 1)."""
        return 1 + sum(a - 1 for a in self.lengths)

    @property
    def is_equilateral(self) -> bool:
        return len(set(self.lengths)) == 1

    @property
    def is_chain(self) -> bool:
        """At most one chain of length > 1: 0 1 ... size - 1 is the one extension."""
        return sum(a > 1 for a in self.lengths) <= 1

    # --- canonical indexing ------------------------------------------------

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Multipliers of (x_j - 1) in the canonical index; strides[-1] == 1."""
        out = [1] * len(self.lengths)
        for j in range(len(self.lengths) - 2, -1, -1):
            out[j] = out[j + 1] * self.lengths[j + 1]
        return tuple(out)

    def index_of(self, coords: tuple[int, ...]) -> int:
        """Canonical index of a coordinate vector (validates the vector)."""
        if len(coords) != len(self.lengths):
            raise DomainError(f"expected {len(self.lengths)} coordinates, got {len(coords)}")
        for x, a in zip(coords, self.lengths):
            if not 1 <= x <= a:
                raise DomainError(f"coordinate {x} out of range 1..{a} in {tuple(coords)}")
        return sum((x - 1) * s for x, s in zip(coords, self.strides))

    def coords_of(self, index: int) -> tuple[int, ...]:
        """Coordinate vector of a canonical index."""
        if not 0 <= index < self.size:
            raise DomainError(f"index {index} out of range for shape {self.lengths} (size {self.size})")
        return self.coords_table[index]

    # --- precomputed tables, indexed by canonical index --------------------
    #
    # These back every hot loop in the package.  All of them are immutable
    # and computed once per shape.

    @cached_property
    def coords_table(self) -> tuple[tuple[int, ...], ...]:
        ranges = [range(1, a + 1) for a in self.lengths]
        return tuple(itertools.product(*ranges))

    @cached_property
    def rank_table(self) -> tuple[int, ...]:
        base = len(self.lengths)
        return tuple(1 - base + sum(c) for c in self.coords_table)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """upper_covers[i] lists indices of points covering point i."""
        out = []
        for i, coords in enumerate(self.coords_table):
            ups = tuple(
                i + s
                for x, a, s in zip(coords, self.lengths, self.strides)
                if x < a
            )
            out.append(ups)
        return tuple(out)

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """lower_covers[i] lists indices of points covered by point i, in increasing order."""
        out = []
        for i, coords in enumerate(self.coords_table):
            out.append(tuple(i - s for x, s in zip(coords, self.strides) if x > 1))
        return tuple(out)

    @cached_property
    def lower_cover_masks(self) -> tuple[int, ...]:
        """Bitmask of lower covers per point; bit v set iff v is covered.

        One size-bit int per point, O(size^2) bits in all: of the package,
        only the backtracking oracle reads it.  The cover test for
        consecutive points is `a in lower_covers[b]`, and the extension
        validator loops over lower_covers.
        """
        return tuple(sum(1 << d for d in downs) for downs in self.lower_covers)

    @cached_property
    def cover_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int64 arrays (up, step) for testing covers on whole arrays.

        b covers a iff up[b] & step[b - a + size] != 0.  Bit j of up[b] is
        set when b has a lower cover along the j-th chain of length > 1, and
        step[d + size] holds bit j when d is that chain's stride.  Those
        strides are distinct, so a difference names at most one chain.
        Both arrays have O(size) entries, unlike a table of point pairs.
        """
        size = self.size
        index = np.arange(size, dtype=np.int64)
        up = np.zeros(size, dtype=np.int64)
        step = np.zeros(2 * size, dtype=np.int64)
        bit = 1
        for a, s in zip(self.lengths, self.strides):
            if a > 1:
                up[index // s % a > 0] |= bit
                step[size + s] = bit
                bit <<= 1
        up.flags.writeable = step.flags.writeable = False
        return up, step

    @cached_property
    def _chain_faces(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        # (full mask, ((stride_j, bottom_j, below_top_j) per chain of length
        # > 1)): bit v of bottom_j is set iff x_j = 1, of below_top_j iff
        # x_j < a_j.  pit_mask reads bottom_j; the counting DP finds the
        # maximal points of a whole level with below_top_j.
        full = (1 << self.size) - 1
        terms = []
        for j, (a, s) in enumerate(zip(self.lengths, self.strides)):
            if a > 1:
                bottom = sum(1 << v for v, coords in enumerate(self.coords_table) if coords[j] == 1)
                terms.append((s, bottom, (full ^ bottom) >> s))
        return full, tuple(terms)

    def pit_mask(self, bits: int) -> int:
        """Bitmask of the pits (minimal points outside) of the down-set `bits`.

        Point v outside the set is a pit iff v - stride_j is inside for every
        chain j with x_j > 1.  `bits << stride_j` moves each such lower cover
        onto v, and the bottom face x_j = 1 (no lower cover along j) is let
        through.  Trusts `bits` to encode a down-set.
        """
        full, terms = self._chain_faces
        mask = ~bits & full
        for stride, bottom, _ in terms:
            mask &= bits << stride | bottom
        return mask

    def __str__(self) -> str:
        return "x".join(str(a) for a in self.lengths)


def _bit_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits of a point set `bits`, increasing."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def whitney_numbers(shape: GridShape) -> tuple[int, ...]:
    """Level sizes by rank, entry s = number of points of rank s+1.

    Convolving the all-ones vectors of the chain lengths (a chain of length
    1 changes nothing, so it is skipped) counts vectors by coordinate sum
    directly; counting rank_table gives an independent route for checking.
    """
    w = [1]
    for a in filter((1).__lt__, shape.lengths):
        out = [0] * (len(w) + a - 1)
        for i, x in enumerate(w):
            for d in range(a):
                out[i + d] += x
        w = out
    return tuple(w)


def max_antichain_size(shape: GridShape) -> int:
    """Size of a largest antichain: the largest rank level.

    Grid posets have the Sperner property, so the widest rank level is a
    maximum antichain.  For n equal chains of length m the middle rank
    floor(n*(m-1)/2) + 1 attains it.
    """
    return max(whitney_numbers(shape))
