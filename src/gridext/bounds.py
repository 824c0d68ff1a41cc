"""Closed-form inequalities for extension counts, degrees, and pits.

Every function here is a pure formula evaluation.  Several of the bounds
only say something once the chain length is astronomically large; at desk
scale they are vacuous (a negative lower bound, or a fraction at or above
one).  Vacuity is therefore a first-class output: each report carries a
`vacuous` flag, and callers are expected to surface it rather than silently
compare against a meaningless number.

All logarithms are base 2.  Formulas evaluate in double precision, good to
at least 15 significant digits; a value past the double range (m^n above
about 2^1024, at astronomic m or n) is reported as +-inf, with its vacuity
flag still set from its sign, and one below it as 0.0.  Comparisons against
exact integer counts go through math.log of the big integer (exact to double
precision) and use a documented 1e-9 relative tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError

__all__ = [
    "BoundReport",
    "entropy_deficit_rate",
    "log_count_lower_bound",
    "avg_degree_lower_bound",
    "almost_regular_fraction",
    "pits_threshold",
    "pits_fraction_bound",
    "markov_tail_probability",
    "factorial_convexity_holds",
    "bound_reports",
]


@dataclass(frozen=True)
class BoundReport:
    """A named formula value plus the inputs it was evaluated at.

    `vacuous` is True when the value carries no information (e.g. a
    nonpositive lower bound for a nonnegative quantity, or a fraction
    bound at or above 1).
    """

    name: str
    inputs: Mapping[str, float | int]
    value: float
    vacuous: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _require_mn(m: int, n: int) -> tuple[int, int]:
    m, n = int(m), int(n)
    if m < 2 or n < 2:
        raise DomainError(f"defined for chain length m >= 2 and n >= 2 chains, got m={m}, n={n}")
    return m, n


def _require_n(n: int) -> int:
    n = int(n)
    if n < 2:
        raise DomainError(f"need n >= 2, got n={n}")
    return n


def _require_R(R: float) -> float:
    R = float(R)
    if not R > 0:  # also rejects NaN
        raise DomainError(f"need R > 0, got R={R}")
    return R


def _scaled_grid_size(m: int, n: int, coeff: int, factor: float) -> float:
    """coeff * m^n * factor as a double, for m >= 2 and coeff <= n.

    0 when factor is 0 (inf * 0 would be nan), +-inf by its sign once m^n
    passes the double range, which it does for every n > 1024; n is tested
    as an int first, so an astronomic n is never converted to float.
    """
    if not factor:
        return 0.0
    if n > 1024 or n * math.log2(m) > 1025:
        return math.copysign(math.inf, factor)
    try:
        return coeff * float(m**n) * factor
    except OverflowError:
        return math.copysign(math.inf, factor)


def entropy_deficit_rate(n: int) -> float:
    """(1 + lg n) / (n - 1): per-cell entropy shortfall rate in lower bounds.

    Divided exactly and rounded once: the float quotient for n <= 2^53,
    and no float conversion of an astronomic n (the value underflows to 0).
    """
    n = _require_n(n)
    return float(Fraction(1 + math.log2(n)) / (n - 1))


def log_count_lower_bound(m: int, n: int) -> BoundReport:
    """(n-1) m^n (lg m - rate): lower bound on lg(count) for [m]^n in bits.

    Vacuous whenever lg m does not exceed the deficit rate, which covers
    every desk-scale m at small n.
    """
    m, n = _require_mn(m, n)
    factor = math.log2(m) - entropy_deficit_rate(n)
    value = _scaled_grid_size(m, n, n - 1, factor)
    return BoundReport(
        name="log_count_lower_bound",
        inputs={"m": m, "n": n},
        value=value,
        vacuous=value <= 0.0,
    )


def avg_degree_lower_bound(m: int, n: int) -> BoundReport:
    """m^n (1 - sqrt(48 lg n / lg m)): lower bound on the mean jump count.

    Informative only when lg m > 48 lg n; vacuous otherwise (the subtracted
    square root reaches or passes 1).
    """
    m, n = _require_mn(m, n)
    ratio = 48.0 * math.log2(n) / math.log2(m)
    factor = 1.0 - math.sqrt(ratio)
    value = _scaled_grid_size(m, n, 1, factor)
    return BoundReport(
        name="avg_degree_lower_bound",
        inputs={"m": m, "n": n},
        value=value,
        vacuous=value <= 0.0,
    )


def almost_regular_fraction(m: int, n: int) -> BoundReport:
    """(48 lg n / lg m)^{1/4}: bound on the fraction of low-degree vertices.

    Bounds the share of extensions whose jump count falls noticeably short
    of the maximum; vacuous when it is 1 or more.
    """
    m, n = _require_mn(m, n)
    value = (48.0 * math.log2(n) / math.log2(m)) ** 0.25
    return BoundReport(
        name="almost_regular_fraction",
        inputs={"m": m, "n": n},
        value=value,
        vacuous=value >= 1.0,
    )


def pits_threshold(m: int, n: int, R: float) -> float:
    """2^{-R} (m e / 2)^{n-1}: the low-pits cutoff at depth parameter R."""
    m, n = _require_mn(m, n)
    R = _require_R(R)
    try:
        return 2.0**-R * (m * math.e / 2.0) ** (n - 1)
    except OverflowError:
        return math.inf


def pits_fraction_bound(n: int, R: float) -> BoundReport:
    """(1 + lg n) / R: cap on the expected fraction of low-pits times.

    Applies to the fraction of times k at which the pit count drops below
    pits_threshold(m, n, R); vacuous at 1 or above (fractions never exceed 1).
    """
    n, R = _require_n(n), _require_R(R)
    value = (1 + math.log2(n)) / R
    return BoundReport(
        name="pits_fraction_bound",
        inputs={"n": n, "R": R},
        value=value,
        vacuous=value >= 1.0,
    )


def markov_tail_probability(delta: float) -> BoundReport:
    """1/delta: chance that low-pits times exceed delta times their mean cap.

    Plain first-moment tail bound; vacuous at delta = 1 (probability 1).
    """
    delta = float(delta)
    if not delta >= 1:  # also rejects NaN
        raise DomainError(f"need delta >= 1, got delta={delta}")
    value = 1.0 / delta
    return BoundReport(
        name="markov_tail_probability",
        inputs={"delta": delta},
        value=value,
        vacuous=value >= 1.0,
    )


def factorial_convexity_holds(values: Sequence[int]) -> bool:
    """Check sum lgGamma(b_j + 1) >= s * lgGamma(mean + 1) for positive ints.

    Each entry must be an int (read with operator.index: a float or a NaN
    is refused).  Log-convexity of the factorial makes this hold for every
    input; it is evaluated with math.lgamma (double precision, ~1e-15
    relative) and a 1e-12 relative slack so exact-equality cases (all
    entries equal) pass.
    """
    try:
        shifted = [operator.index(b) + 1 for b in values]
    except TypeError:
        raise DomainError("entries must be integers") from None
    if not shifted:
        raise DomainError("need a nonempty vector")
    if min(shifted) < 2:
        raise DomainError(f"entries must be positive integers, got {[b - 1 for b in shifted]}")
    s = len(shifted)
    rhs = s * math.lgamma(math.fsum(shifted) / s)
    return math.fsum(map(math.lgamma, shifted)) >= rhs - 1e-12 * max(1.0, abs(rhs))


def bound_reports(m: int, n: int, R: float | None = None, delta: float | None = None) -> list[BoundReport]:
    """All bound reports for (m, n), plus pits / tail reports when asked."""
    out = [
        log_count_lower_bound(m, n),
        avg_degree_lower_bound(m, n),
        almost_regular_fraction(m, n),
    ]
    if R is not None:
        threshold = pits_threshold(m, n, R)
        out.append(
            BoundReport(
                name="pits_threshold",
                inputs={"m": m, "n": n, "R": float(R)},
                value=threshold,
                vacuous=False,
            )
        )
        out.append(pits_fraction_bound(n, R))
    if delta is not None:
        out.append(markov_tail_probability(delta))
    return out
