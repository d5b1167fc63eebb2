"""Exact evaluation of the Minkowski question-mark function.

On a continued fraction x = [0; a1, a2, ...] the function is the alternating
dyadic series

    ?(x) = 2^(1-a1) - 2^(1-(a1+a2)) + 2^(1-(a1+a2+a3)) - ...

It maps (0, 1] onto (0, 1] monotonically, sending rationals (finite words) to
dyadic rationals m/2^e and eventually periodic expansions to rationals.
Evaluation here is exact: finite words give a `DyadicRational` (a
`fractions.Fraction` that checks its denominator is a power of two),
periodic expansions give a `Fraction` via closed-form geometric summation,
and digit prefixes give certified `cf_core.RationalInterval` enclosures from
the alternating-series bracket.  Floating point never enters; the sup/inf
identities downstream hold bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cf_core import ContinuedFraction, RationalInterval, _checked_prefix


class DyadicRational(Fraction):
    """A Fraction whose reduced denominator is a power of two.

    Takes Fraction's own arguments, so DyadicRational(3, 4) is 3/4, and
    raises ValueError on any other denominator.  ``mantissa`` and
    ``exponent`` read the reduced form m/2^e: an odd mantissa, or zero over
    2^0.  Arithmetic returns plain Fractions.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self.denominator & (self.denominator - 1):
            raise ValueError("a dyadic rational needs a power-of-two denominator")
        return self

    @property
    def mantissa(self) -> int:
        return self.numerator

    @property
    def exponent(self) -> int:
        return self.denominator.bit_length() - 1

    def as_fraction(self) -> Fraction:
        return Fraction(self)


def _word_value(word: Sequence[int]) -> DyadicRational:
    """The alternating sum over a digit word, exactly; 0 for the empty word.

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
    return DyadicRational(mantissa, 1 << total)


def _tail_hull(word: tuple[int, ...], lo: Fraction, hi: Fraction) -> RationalInterval:
    """head(word) + (-1)^n 2^-(sum of word) * [lo, hi], where n = len(word).

    The hull of the values whose expansion starts with ``word`` when the
    series tails after it, unsigned and unscaled, range over [lo, hi].
    """
    head = _word_value(word)
    scale = Fraction(1, 1 << sum(word))
    if len(word) % 2 == 0:
        return RationalInterval(head + scale * lo, head + scale * hi)
    return RationalInterval(head - scale * hi, head - scale * lo)


def minkowski_finite(cf: ContinuedFraction) -> DyadicRational:
    """Exact value on a finite word; always lands in (0, 1].

    Both words naming the same rational give the same value, e.g.
    [0; 1, 1] and [0; 2] both map to 1/2.
    """
    if not cf.is_finite:
        raise ValueError("finite continued fraction required")
    return _word_value(cf.preperiod)


def minkowski_enclosure(prefix: Sequence[int]) -> RationalInterval:
    """Certified interval containing ?(x) for every x starting with ``prefix``.

    The series alternates with strictly decreasing terms, so every
    continuation lands between the length-n partial sum S_n and
    S_n + (-1)^n 2^-(a1+...+an): the tail hull with tails in [0, 1].
    Length is exactly 2^-(a1+...+an) > 0.
    """
    return _tail_hull(_checked_prefix(prefix), Fraction(0), Fraction(1))


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
