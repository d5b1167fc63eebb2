"""Closed-form geometry of Minkowski images of digit-restricted sets.

Fix a digit set K = {k1 < ... < kS} and push the set of all x with digits in
K through the Minkowski function.  The image is a compact self-similar
subset of (0, 1): fixing the first digit k maps the image onto an affine
copy of itself scaled by exactly 2^-k, because the set of possible series
tails looks the same (up to sign) after any fixed head -- its diameter does
not depend on the rank at which it is cut.  This module computes, all as
exact `fractions.Fraction`:

  * sup, inf and diameter of the full image set (hull extremes are attained
    by the periodic words alternating the smallest and largest digits);
  * the rank-n tail sets (sets of series remainders after n fixed digits)
    and their rank-independent diameter;
  * image cylinders: the exact hull of the image points with a given digit
    head, whose diameters contract by 2^-k per appended digit k.  A whole
    depth is enumerated in integers: every hull endpoint is an integer over
    2^(digit sum) times the common denominator of inf and sup.  The integers
    are built a depth at a time, so memory holds the last depth's three
    lists (words, mantissas, digit sums: S^depth entries each) in place of a
    depth-first stack of O(depth S) entries; ``construct``, the caller,
    keeps every row of that depth anyway.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .cf_core import (
    DEFAULT_BUDGET,
    ContinuedFraction,
    DigitSet,
    RationalInterval,
    _checked_digits,
    _lowest_terms,
    check_budget,
)
from .minkowski_eval import _tail_hull, minkowski_periodic


def image_sup(K: DigitSet) -> Fraction:
    """Exact supremum of the image set: the value on [0; k1, kS, k1, kS, ...].

    The recursion ?(x) = 2^(1-a1) - 2^(-a1) ?(shift x) makes the greedy
    choice optimal at every rank for any S: the smallest digit maximizes
    2^-a1 (2 - m) for any continuation value m in (0, 1], and the
    continuation must then be minimal, and vice versa.  Only k1 and kS
    enter, so for every S this is 2 (2^kS - 1) / (2^(k1+kS) - 1).
    """
    k1, ks = K.digits[0], K.digits[-1]
    return minkowski_periodic(ContinuedFraction((), (k1, ks)))


def image_inf(K: DigitSet) -> Fraction:
    """Exact infimum: the value on [0; kS, k1, kS, k1, ...].

    For every S this is 2 (2^k1 - 1) / (2^(k1+kS) - 1).
    """
    k1, ks = K.digits[0], K.digits[-1]
    return minkowski_periodic(ContinuedFraction((), (ks, k1)))


def image_diameter(K: DigitSet) -> Fraction:
    """sup - inf; for every S equal to 2 (2^kS - 2^k1) / (2^(k1+kS) - 1)."""
    return image_sup(K) - image_inf(K)


def _check_rank(rank: int) -> None:
    if rank < 0:
        raise ValueError("rank must be nonnegative")


def tail_set_sup(K: DigitSet, rank: int = 0) -> Fraction:
    """Sup of the rank-n tail set.

    The rank-n tail set collects the series remainders
    (-1)^n (2^-b1 - 2^-(b1+b2) + ...) over digits b_i in K.  Up to the sign
    (-1)^n it is exactly half the image set, so only the parity of the rank
    matters.
    """
    _check_rank(rank)
    return image_sup(K) / 2 if rank % 2 == 0 else -image_inf(K) / 2


def tail_set_inf(K: DigitSet, rank: int = 0) -> Fraction:
    """Inf of the rank-n tail set; mirror of tail_set_sup."""
    _check_rank(rank)
    return image_inf(K) / 2 if rank % 2 == 0 else -image_sup(K) / 2


def tail_set_diameter(K: DigitSet, rank: int = 0) -> Fraction:
    """Diameter of the rank-n tail set: identical for every rank.

    For every S it equals (2^kS - 2^k1) / (2^(k1+kS) - 1), half the image
    diameter.  Rank independence is what makes the image exactly
    self-similar.
    """
    return tail_set_sup(K, rank) - tail_set_inf(K, rank)


def image_cylinder(K: DigitSet, word: Sequence[int]) -> RationalInterval:
    """Exact hull of the image points whose expansion starts with ``word``.

    The fixed head contributes its finite value; the remaining tails fill a
    copy of the full tail set scaled by 2^-(sum of word), so the hull
    endpoints are the head value plus/minus the scaled image extremes and
    its length, the cylinder's diameter, is exactly 2^-(sum of word) times
    the image diameter.  The empty word yields the hull of the whole image
    set.
    """
    w = _checked_digits(word)
    for d in w:
        if d not in K:
            raise ValueError(f"digit {d} is not in {K}")
    return _tail_hull(w, image_inf(K), image_sup(K))


def image_hulls(K: DigitSet, depth: int, budget: int = DEFAULT_BUDGET) -> Iterator[tuple]:
    """(word, inf, sup, diameter) of all S^depth image cylinders at the given
    depth, in lexicographic word order.

    Child hulls are nested in their parents and siblings have disjoint
    interiors; the union at each depth covers the image set.  Depth 0 yields
    the single whole-image hull.  Depth and budget violations raise at call
    time; no exact value is built before the first ``next()``.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    check_budget(K, depth, budget)
    return _hull_walk(K, depth)


def _hull_walk(K: DigitSet, depth: int) -> Iterator[tuple]:
    """The integer build behind ``image_hulls``, a depth at a time.

    With inf = a/D and sup = b/D, the word with head value m/2^A (A its
    digit sum) has the hull [mD + a, mD + b] / (2^A D) at even n and
    [mD - b, mD - a] / (2^A D) at odd n: one integer check orders them all.
    Appending digit k to a length-j word gives m 2^k + 2 (-1)^j and A + k.
    Each depth's words, m and A are three lists, one comprehension each,
    children in parent order and digits ascending.  Memory holds the last
    depth's three lists (S^depth entries each, beside the previous depth's
    while they are built) in place of a depth-first stack of O(depth S)
    entries.  The diameter is (b - a) / (2^A D), built once per distinct A.

    Endpoints are built in lowest terms without a gcd each: D is odd (inf
    and sup are periodic values with an empty preperiod) and mD + c = c
    (mod D), so an endpoint's gcd with 2^A D is gcd(c, D) 2^min(v, A), v its
    2-adic valuation: one gcd per endpoint column, one shift per endpoint.
    """
    inf0, sup0 = image_inf(K), image_sup(K)
    den = lcm(inf0.denominator, sup0.denominator)
    a, b = int(inf0 * den), int(sup0 * den)
    c_lo, c_hi = (a, b) if depth % 2 == 0 else (-b, -a)
    if not c_lo < c_hi:
        raise ValueError(f"image hulls need inf < sup, got [{inf0}, {sup0}]")
    digits = K.digits
    words: list[tuple[int, ...]] = [()]
    ms, sums = [0], [0]
    for j in range(depth):
        step = -2 if j % 2 else 2
        words = [word + (k,) for word in words for k in digits]
        ms = [(m << k) + step for m in ms for k in digits]
        sums = [total + k for total in sums for k in digits]
    diameters = {total: Fraction(b - a, den << total) for total in {*sums}}
    g_lo, g_hi = gcd(c_lo, den), gcd(c_hi, den)
    d_lo, c_lo, d_hi, c_hi = den // g_lo, c_lo // g_lo, den // g_hi, c_hi // g_hi
    for word, m, total in zip(words, ms, sums):
        lo, hi = m * d_lo + c_lo, m * d_hi + c_hi
        s_lo, s_hi = (lo & -lo).bit_length() - 1, (hi & -hi).bit_length() - 1
        if s_lo > total:  # a compare, cheaper than a min() call per endpoint
            s_lo = total
        if s_hi > total:
            s_hi = total
        yield (
            word,
            _lowest_terms(Fraction, lo >> s_lo, d_lo << (total - s_lo)),
            _lowest_terms(Fraction, hi >> s_hi, d_hi << (total - s_hi)),
            diameters[total],
        )
