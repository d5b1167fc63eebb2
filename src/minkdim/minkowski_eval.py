"""Exact evaluation of the Minkowski question-mark function.

On a continued fraction x = [0; a1, a2, ...] the function is the alternating
dyadic series

    ?(x) = 2^(1-a1) - 2^(1-(a1+a2)) + 2^(1-(a1+a2+a3)) - ...

It maps (0, 1] onto (0, 1] monotonically.  Every value here comes from one
integer, a word's mantissa M = 2^(a1+...+an) ?([0; a1, ..., an]), built by
Horner's rule from the left (M <- M 2^a + 2 (-1)^(j-1)).  A finite word gives
the `DyadicRational` M / 2^(digit sum) (a `fractions.Fraction` that checks
its denominator is a power of two), an eventually periodic expansion one
`Fraction` of integers in the mantissas of its preperiod and period, and
`_tail_hull` the exact hull of a word's values when the tails after it
range over an interval, from which `selfsimilar` builds image cylinders.
Floating point never enters; the sup/inf identities downstream hold
bit-exactly.

Exact values are built in lowest terms without a gcd over the whole
numerator: M = 2 * odd for every nonempty word, so a finite value is
(M / 2) / 2^(A - 1) outright, and a periodic value's denominator is an odd
d times a power of two, so its gcd is one of d-sized integers and a shift.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .cf_core import ContinuedFraction, RationalInterval, _lowest_terms


class DyadicRational(Fraction):
    """A Fraction whose reduced denominator is a power of two.

    Takes Fraction's own arguments, so DyadicRational(3, 4) is 3/4, and
    raises ValueError on any other denominator.  ``mantissa`` and
    ``exponent`` read the reduced form m/2^e: an odd mantissa, or zero over
    2^0.  Arithmetic returns plain Fractions.  ``minkowski_finite`` builds
    its values in that reduced form directly, past these checks.
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


def _mantissa(word: Sequence[int]) -> int:
    """The integer M with ?(word) = M / 2^(sum of word); 0 for the empty word.

    Horner's rule from the left, M <- M 2^a + 2 (-1)^(j-1) for the j-th digit
    a, multiplies the whole alternating sum by 2^(a1+...+an) as it goes.
    """
    m, step = 0, 2
    for a in word:
        m = (m << a) + step
        step = -step
    return m


def _tail_hull(word: tuple[int, ...], lo: Fraction, hi: Fraction) -> RationalInterval:
    """head(word) + (-1)^n 2^-(sum of word) * [lo, hi], where n = len(word).

    The hull of the values whose expansion starts with ``word`` when the
    series tails after it, unsigned and unscaled, range over [lo, hi]:
    (M + (-1)^n [lo, hi]) / 2^(sum of word) with M the word's mantissa.
    The series alternates with strictly decreasing terms, so tails in
    [0, 1] give an interval holding ?(x) for every x that starts with
    ``word``.
    """
    m, den = _mantissa(word), 1 << sum(word)
    if len(word) % 2:
        lo, hi = -hi, -lo
    return RationalInterval((m + lo) / den, (m + hi) / den)


def minkowski_finite(cf: ContinuedFraction) -> DyadicRational:
    """Exact value on a finite word; always lands in (0, 1].

    Both words naming the same rational give the same value, e.g.
    [0; 1, 1] and [0; 2] both map to 1/2.  Horner's last step leaves
    M = 2 mod 4, so the reduced form is (M / 2) / 2^(A - 1), built with no gcd.
    """
    if not cf.is_finite:
        raise ValueError("finite continued fraction required")
    word = cf.preperiod
    return _lowest_terms(DyadicRational, _mantissa(word) >> 1, 1 << (sum(word) - 1))


def minkowski_periodic(cf: ContinuedFraction) -> Fraction:
    """Exact rational value on an eventually periodic expansion.

    With mantissa M_H, digit sum A and length m for the preperiod, and M_P,
    B and p for the period, the tail after the preperiod is a geometric
    series: the period's value M_P / 2^B, repeated with ratio (-1)^p 2^-B,
    sums to M_P / d.  The whole series is one fraction of integers:

        (M_H d + (-1)^m M_P) / (d 2^A),   d = 2^B - (-1)^p.

    An odd period needs no doubling: its negative ratio gives d = 2^B + 1.
    d is odd and the numerator is (-1)^m M_P mod d, so the reduced form
    divides out gcd(M_P, d), a gcd of B-bit integers, and then the power of
    two the numerator shares with 2^A.
    """
    if cf.is_finite:
        raise ValueError("periodic continued fraction required")
    pre, period = cf.preperiod, cf.period
    d = (1 << sum(period)) + (1 if len(period) % 2 else -1)
    tail = _mantissa(period)
    if len(pre) % 2:
        tail = -tail
    g = gcd(tail, d)
    d //= g
    n = _mantissa(pre) * d + tail // g
    a = sum(pre)
    shift = min((n & -n).bit_length() - 1, a)
    return _lowest_terms(Fraction, n >> shift, d << (a - shift))
