"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from GridextError,
so callers can catch one type at the boundary.  The subclasses also derive
from the matching builtin (ValueError / RuntimeError) to stay friendly to
generic handlers.
"""

from __future__ import annotations

__all__ = ["GridextError", "DomainError", "InvalidExtensionError", "ResourceCapError"]


class GridextError(Exception):
    """Base class for all errors raised by gridext."""


class DomainError(GridextError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class InvalidExtensionError(GridextError, ValueError):
    """A sequence of points is not a linear extension of its grid.

    Attributes
    ----------
    position:
        1-based time step at which the violation was detected, or None
        when the problem is structural (wrong length, repeats).
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ResourceCapError(GridextError, RuntimeError):
    """A computation would exceed a configured resource cap.

    Attributes
    ----------
    cap:
        The configured limit that would have been exceeded.
    """

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap
