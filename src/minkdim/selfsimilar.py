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
    2^(digit sum) times the common denominator of inf and sup.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .cf_core import (
    DEFAULT_BUDGET,
    ContinuedFraction,
    DigitSet,
    RationalInterval,
    _checked_digits,
    check_budget,
)
from .minkowski_eval import _tail_hull, minkowski_periodic


def image_sup(K: DigitSet) -> Fraction:
    """Exact supremum of the image set: the value on [0; k1, kS, k1, kS, ...].

    The recursion ?(x) = 2^(1-a1) - 2^(-a1) ?(shift x) makes the greedy
    choice optimal at every rank for any S: the smallest digit maximizes
    2^-a1 (2 - m) for any continuation value m in (0, 1], and the
    continuation must then be minimal, and vice versa.  For S = 2 this
    collapses to 2 (2^k2 - 1) / (2^(k1+k2) - 1).
    """
    k1, ks = K.digits[0], K.digits[-1]
    return minkowski_periodic(ContinuedFraction((), (k1, ks)))


def image_inf(K: DigitSet) -> Fraction:
    """Exact infimum: the value on [0; kS, k1, kS, k1, ...].

    For S = 2 this is 2 (2^k1 - 1) / (2^(k1+k2) - 1).
    """
    k1, ks = K.digits[0], K.digits[-1]
    return minkowski_periodic(ContinuedFraction((), (ks, k1)))


def image_diameter(K: DigitSet) -> Fraction:
    """sup - inf; for S = 2 equal to 2 (2^k2 - 2^k1) / (2^(k1+k2) - 1)."""
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

    For S = 2 it equals (2^k2 - 2^k1) / (2^(k1+k2) - 1), half the image
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
    """The integer walk behind ``image_hulls``.

    With inf = a/D and sup = b/D, the word with head value m/2^A (A its
    digit sum) has the hull [mD + a, mD + b] / (2^A D) at even n and
    [mD - b, mD - a] / (2^A D) at odd n: one integer check orders them all.
    Appending digit k to a length-j word gives m 2^k + 2 (-1)^j and A + k.
    The diameter is (b - a) / (2^A D), kept per A.
    """
    inf0, sup0 = image_inf(K), image_sup(K)
    den = lcm(inf0.denominator, sup0.denominator)
    a, b = int(inf0 * den), int(sup0 * den)
    c_lo, c_hi = (a, b) if depth % 2 == 0 else (-b, -a)
    if not c_lo < c_hi:
        raise ValueError(f"image hulls need inf < sup, got [{inf0}, {sup0}]")
    diameters: dict[int, Fraction] = {}  # digit sum -> its one diameter
    stack = [((), 0, 0)]  # (word, m, A); O(depth S) entries at a time
    while stack:
        word, m, total = stack.pop()
        if len(word) == depth:
            base, scale = m * den, den << total
            if (diameter := diameters.get(total)) is None:
                diameter = diameters[total] = Fraction(b - a, scale)
            yield word, Fraction(base + c_lo, scale), Fraction(base + c_hi, scale), diameter
            continue
        step = -2 if len(word) % 2 else 2
        stack += [(word + (k,), (m << k) + step, total + k) for k in reversed(K.digits)]
