"""Exact and randomized analysis of linear extensions of grid posets.

A grid poset is a product of chains [a_1] x ... x [a_k] under the
componentwise order.  This package counts and enumerates its linear
extensions, samples them uniformly (exactly or by a lazy swap walk),
analyzes jumps and pits, builds the adjacent-swap graph, and evaluates
the closed-form bounds that govern these quantities, with vacuity made
explicit at desk scales.

Each module's __all__ is its public API; this package re-exports them all.
"""

from . import bounds, counting, errors, grid, jumps, sampling, transposition, verify
from ._version import __version__
from .bounds import *
from .counting import *
from .errors import *
from .grid import *
from .jumps import *
from .sampling import *
from .transposition import *
from .verify import *

__all__ = [
    "__version__", *errors.__all__, *grid.__all__, *counting.__all__, *jumps.__all__,
    *transposition.__all__, *sampling.__all__, *bounds.__all__, *verify.__all__,
]
