"""Exact evaluation of the Minkowski question-mark function.

On a continued fraction x = [0; a1, a2, ...] the function is the alternating
dyadic series

    ?(x) = 2^(1-a1) - 2^(1-(a1+a2)) + 2^(1-(a1+a2+a3)) - ...

It maps (0, 1] onto (0, 1] monotonically, sending rationals (finite words) to
dyadic rationals m/2^e and eventually periodic expansions to rationals.
Evaluation here is exact: finite words produce `DyadicRational`, periodic
expansions produce `fractions.Fraction` via closed-form geometric summation,
and digit prefixes produce certified `cf_core.RationalInterval` enclosures
from the alternating-series bracket.  Floating point never enters; the sup/inf
identities downstream hold bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Sequence

from .cf_core import ContinuedFraction, RationalInterval, _checked_digits


@total_ordering
@dataclass(frozen=True)
class DyadicRational:
    """Exact mantissa / 2^exponent with exponent >= 0, stored reduced.

    Reduced means the mantissa is odd, or zero with exponent zero, so equal
    values compare equal field-by-field.  Values order among themselves;
    arithmetic goes through ``as_fraction``.
    """

    mantissa: int
    exponent: int = 0

    def __post_init__(self):
        m, e = int(self.mantissa), int(self.exponent)
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if m == 0:
            e = 0
        else:
            # (m & -m).bit_length() - 1 counts trailing zero bits, sign-safe
            shift = min(e, (m & -m).bit_length() - 1)
            m >>= shift
            e -= shift
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.exponent)

    def __lt__(self, other: "DyadicRational") -> bool:
        return (self.mantissa << other.exponent) < (other.mantissa << self.exponent)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def __str__(self) -> str:
        return str(self.as_fraction())


def _dyadic_parts(word: Sequence[int]) -> tuple[int, int]:
    """Alternating sum over a digit word as (mantissa, exponent), exactly.

    With partial digit sums A_m, the value is
    sum_m (-1)^(m-1) 2^(1-A_m) = [sum_m (-1)^(m-1) 2^(1+A_n-A_m)] / 2^A_n.
    """
    total = sum(word)
    mantissa = 0
    running = 0
    for i, a in enumerate(word):
        running += a
        term = 1 << (1 + total - running)
        mantissa += -term if i % 2 else term
    return mantissa, total


def _word_value(word: Sequence[int]) -> Fraction:
    """The alternating sum over a digit word; 0 for the empty word."""
    mantissa, exponent = _dyadic_parts(word)
    return Fraction(mantissa, 1 << exponent)


def minkowski_finite(cf: ContinuedFraction) -> DyadicRational:
    """Exact value on a finite word; always lands in (0, 1].

    Both words naming the same rational give the same value, e.g.
    [0; 1, 1] and [0; 2] both map to 1/2.
    """
    if not cf.is_finite:
        raise ValueError("finite continued fraction required")
    return DyadicRational(*_dyadic_parts(cf.preperiod))


def minkowski_enclosure(prefix: Sequence[int]) -> RationalInterval:
    """Certified interval containing ?(x) for every x starting with ``prefix``.

    The series alternates with strictly decreasing terms, so every
    continuation lands between the length-n partial sum S_n and
    S_n + (-1)^n 2^-(a1+...+an), the partial sum shifted by a signed bound on
    the whole remaining tail.  Length is exactly 2^-(a1+...+an) > 0.
    """
    word = _checked_digits(prefix)
    if not word:
        raise ValueError("prefix must be nonempty")
    s_n = _word_value(word)
    tail_bound = Fraction(1, 1 << sum(word))
    if len(word) % 2 == 0:
        return RationalInterval(s_n, s_n + tail_bound)
    return RationalInterval(s_n - tail_bound, s_n)


def minkowski_periodic(cf: ContinuedFraction) -> Fraction:
    """Exact rational value on an eventually periodic expansion.

    The repeating block is summed as a geometric series.  A block of odd
    length flips the sign of every term on each repeat, so it is doubled
    first; with head value H over the m preperiod digits (digit sum A),
    block value C and block digit sum B, the series collapses to

        H + (-1)^m 2^-A * C / (1 - 2^-B).
    """
    if cf.is_finite:
        raise ValueError("periodic continued fraction required")
    block = cf.period if len(cf.period) % 2 == 0 else cf.period * 2
    c = _word_value(block)
    tail = c / (1 - Fraction(1, 2 ** sum(block)))
    head = _word_value(cf.preperiod)
    sign = -1 if len(cf.preperiod) % 2 else 1
    return head + sign * tail / 2 ** sum(cf.preperiod)
