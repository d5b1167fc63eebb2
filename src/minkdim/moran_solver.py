"""Moran-equation solver: the similarity dimension of the image sets.

A self-similar set assembled from S disjoint scaled copies of itself with
contraction ratios r_1, ..., r_S has Hausdorff dimension equal to the unique
root of sum(r_i^s) = 1.  Minkowski images of digit-restricted sets contract
by 2^-k per digit k, so the equation specializes to

    sum_{k in K} 2^(-k s) = 1,

whose left side falls strictly from S at s = 0 to sum 2^-k < 1 at s = 1.
The root is found by Newton steps (f'(s) = -ln 2 * sum k 2^(-k s)),
safeguarded by bisection; f is convex, so a Newton step from the left of
the root never passes it.  The steps start at the root of the same
equation solved in float64, which two 128-bit evaluations polish, or at
the bracket's midpoint where float64 cannot hold the equation (a digit of
2^53 or more) or its rounding breaks the float64 solve's bracket (as for
{4271920223403974, 4271920223403975}, whose two terms cancel).  Both
sums come from one pass of ``_moran_sums``: one mpmath power for the
leading term 2^(-k1 s), whose exponent never underflows, times a sum of
powers of x = 2^-s in Python-integer fixed point with enough guard bits
for the working precision.  Once Newton meets its residual target, one
more Newton step at twice the working precision, rounded back to the
working one, gives the root rounded to nearest at 128 bits, whatever path
the solver took.  So results are deterministic bit-for-bit, rounding noise
cannot make a root fall when a digit is added, and identities like
root(c*K) = root(K)/c hold to working precision, not just to tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import mul, sub
from typing import Any, Callable

from mpmath import mp, mpf

from .cf_core import DigitSet
from .errors import ToleranceError

PRECISION_BITS = 128  # working precision for all solver arithmetic
MIN_TOLERANCE = 2.0**-50  # tol must lie in [MIN_TOLERANCE, MAX_TOLERANCE]
MAX_TOLERANCE = 1e-3
DEFAULT_TOLERANCE = 1e-12
MAX_STEPS = 85  # evaluations allowed after the bracket's two endpoints
_RESIDUAL_BITS = 100  # Newton polishes |f(s) - 1| below 2^-100
_FLOAT_CUT = 1100  # float64 terms below 2^-1100 are 0: not computed
_LN2 = math.log(2)


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless tol lies in [MIN_TOLERANCE, MAX_TOLERANCE]."""
    if not MIN_TOLERANCE <= tol <= MAX_TOLERANCE:
        raise ValueError(f"tolerance must lie in [2^-50, {MAX_TOLERANCE}], got {tol}")


@dataclass(frozen=True)
class MoranRoot:
    """The solved root s in (0, 1) with solver diagnostics.

    ``residual`` is |f(s) - 1| at s, at twice the working precision;
    ``iterations`` counts the evaluations of f at 128 and 256 bits, not the
    float64 ones that find the starting point; ``bracket`` is the solver's
    live bracket at return, certified f(lo) >= 1 >= f(hi).  Newton reaches
    the root from one side, so its far end is often the starting bracket's
    end (``[0.99857786..., 1.0]`` for {1..9}): it is no precision measure,
    ``residual`` is.
    """

    s: Any  # mpmath.mpf
    residual: Any
    iterations: int
    bracket: tuple[Any, Any]


def moran_function(K: DigitSet, s) -> mpf:
    """Left-hand side sum(2^(-k s)) over K; strictly decreasing in s >= 0."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return _moran_sums(K, s, PRECISION_BITS)[0]


def _moran_sums(K: DigitSet, s, prec: int) -> tuple[mpf, mpf]:
    """(sum 2^(-k s), sum k 2^(-k s)) over K, for s >= 0, at prec bits.

    With k1 the least digit and x = 2^-s, both sums are 2^(-k1 s) times
    sum_k x^(k - k1) and sum_k k x^(k - k1).  The head 2^(-k1 s) is the
    exact shift 2^-floor(k1 s) times one mpmath power at prec bits of the
    fractional part, with k1 s formed exactly, so its exponent neither
    underflows nor loses bits.  The rest runs in F-bit fixed point:
    X = floor(x 2^F) and its repeated squares, squaring stopped at the first
    that truncates to 0; the walk over the sorted digits gets each term from
    the one before by multiplying in the squares named by the bits of the
    gap between their digits, and stops at the first term that truncates to
    0.  Every step truncates, so every fixed-point term is a lower bound,
    and head times each sum is rounded down: apart from the head's own
    rounding, neither sum is ever overstated.

    Error bound.  Let u = 2^-F, n = |K|, b the bit length of the span
    k_n - k1, and M the lesser of the span and a power of two in [1/s, 4/s]:
    M >= max_m m x^m = 1/(e s ln 2) bounds how far squaring amplifies the
    rounding of X (M = 0 at s = 0, where every step is exact).  The stored
    square x^(2^j) falls short by at most (j + 1)(M + 1) u, so each of the at
    most b multiplications per gap costs at most (b (M + 1) + 1) u, and the
    fixed-point sum, at least 1, falls short by at most E u with
    E = n^2 b^2 (M + 2).  A term the walk drops is below E u, and one it
    keeps has k - k1 <= F M, so the weighted sum, at least k1, falls short by
    at most E u (1 + F M / k1) of itself.  F takes prec + 2 bits plus the
    bits of both factors, so each sum is within 2^-(prec + 1) of its value,
    relative, before the head's rounding.
    """
    digits = K.digits
    k1, n, b = digits[0], len(digits), (digits[-1] - digits[0]).bit_length()
    M = 0 if s == 0 else min(digits[-1] - k1, 1 << max(0, 2 - mp.mag(s)))
    F = prec + 2 + (n * n * b * b * (M + 2)).bit_length()
    F += (2 * F * (M + 1) // k1 + 1).bit_length()
    with mp.workprec(F + 8):
        squares = [int(mp.ldexp(mpf(2) ** -mpf(s), F))]  # floor: the power is positive
    while squares[-1] and len(squares) < b:
        squares.append(squares[-1] ** 2 >> F)
    # x^gap truncates to 0 once gap reaches 2^zero_bit: so do all later terms
    zero_bit = len(squares) - 1 if not squares[-1] else b
    term, total, weighted, prev = 1 << F, 1 << F, k1 << F, k1
    for k in digits[1:]:
        gap, prev = k - prev, k
        if gap >> zero_bit:
            break
        j = 0
        while gap:
            if gap & 1:
                term = term * squares[j] >> F
            gap >>= 1
            j += 1
        if not term:
            break
        total += term
        weighted += k * term
    exponent = mp.fmul(k1, s, exact=True)
    whole = int(exponent)  # 2^-exponent = 2^-whole 2^-(exponent - whole), both exact
    with mp.workprec(prec):
        head = mp.ldexp(mpf(2) ** -mp.fsub(exponent, whole, exact=True), -whole)
        return tuple(mp.ldexp(mp.fmul(head, v, rounding="f"), -F) for v in (total, weighted))


def bisect_newton(h: Callable, h_prime: Callable, lo, hi, *, residual_target, start=None):
    """Root of a decreasing h on the closed bracket [lo, hi]: h(lo) >= 0 >= h(hi).

    Newton, safeguarded by bisection.  One loop starts at ``start`` when it
    lies strictly inside (lo, hi), else at the bracket's midpoint, evaluates
    h, stops as soon as |h| <= residual_target, narrows the bracket to the
    side the sign names and steps to the Newton point
    s - h(s)/h'(s) when it lies strictly inside the live bracket, else to
    the midpoint (so a zero slope or a non-finite Newton point bisects).
    Works unchanged over floats and mpmath floats.  An endpoint value that
    rounds to zero still brackets: the loop converges to a point that meets
    the target.

    Every caller's h is convex as well as decreasing, which makes Newton
    safe from the first step: the tangent lies below a convex h, so from a
    point with h > 0 the Newton point has h >= 0 again and climbs
    monotonically to the root, and from a point with h < 0 one Newton step
    lands left of the root.  The safeguard only fires while a step from the
    right lands outside the bracket, or when rounding breaks the argument.

    Returns (root, h(root), evaluations, bracket), the residual signed; the
    bracket is the live one at return, so it certifies the root but its far
    end may still be an end of [lo, hi]: it is no precision measure, the
    residual is.  Raises ToleranceError if h(lo) >= 0 >= h(hi) fails at
    working precision or if the target is unreachable within MAX_STEPS
    evaluations after the two endpoints.
    """
    h_lo, h_hi = h(lo), h(hi)
    if not (h_lo >= 0 >= h_hi):
        prec = mp.prec if isinstance(h_lo, mpf) else 53  # mpf, or float64
        raise ToleranceError(
            f"h({lo}) = {h_lo} and h({hi}) = {h_hi} at {prec}-bit precision: "
            f"[{lo}, {hi}] does not bracket the root"
        )
    s = start if start is not None and lo < start < hi else (lo + hi) / 2
    for iterations in range(3, MAX_STEPS + 3):
        res = h(s)
        if abs(res) <= residual_target:
            return s, res, iterations, (lo, hi)
        if res > 0:
            lo = s
        else:
            hi = s
        slope = h_prime(s)
        s_next = s - res / slope if slope else lo  # lo is not inside: bisect
        if not (lo < s_next < hi):  # also catches a NaN Newton point
            s_next = (lo + hi) / 2
        if s_next == s:  # no representable progress at this precision
            break
        s = s_next
    raise ToleranceError(
        f"residual {abs(res)} still above {residual_target} after "
        f"{iterations} evaluations"
    )


def _float_root(K: DigitSet, hi) -> float | None:
    """The root in float64, where the 128-bit solve starts; None where
    float64 cannot hold the equation.

    Solves psi(s) = log(sum_k 2^(-(k - k1) s)) / s - k1 ln 2 = 0 on (0, hi]
    with ``bisect_newton``.  The log of a sum of exponentials of linear
    functions, g, is convex, decreasing and positive, so g(s)/s is too, and
    psi falls from +inf at 0.  At the root g(s)/s = k1 ln 2, so a residual
    target relative to k1 ln 2 fixes the root's relative precision, whatever
    its size, and a looser target needs only the one Newton step taken
    after the loop.  k1's term, 1, enters through log1p.  Each other term is
    2.0 ** (-s (k - k1)), the product formed before the power, so a wide gap
    costs no accuracy; the terms that would fall below 2^-1100 are zero in
    float64 and are not computed.  Returns None for a digit of 2^53 or
    more, whose gaps float64 rounds, and where float64 rounding breaks the
    bracket or the residual target; the 128-bit solve then starts at its
    midpoint.
    """
    digits = K.digits
    k1, hi = digits[0], float(hi)
    if digits[-1] >= 2**53:
        return None

    @lru_cache(maxsize=1)
    def parts(s):  # g(s)/s and -g'(s)/ln 2
        gaps = list(map(sub, digits[1 : bisect_right(digits, k1 + _FLOAT_CUT / s)], repeat(k1)))
        terms = list(map(pow, repeat(2.0), map(mul, repeat(-s), gaps)))
        tail = sum(terms)
        return math.log1p(tail) / s, sum(map(mul, gaps, terms)) / (1 + tail)

    def psi(s):
        return parts(s)[0] - k1 * _LN2 if s else math.inf

    def psi_prime(s):
        g_over_s, slope = parts(s)
        return -(_LN2 * slope + g_over_s) / s

    try:
        s, res, _, _ = bisect_newton(psi, psi_prime, 0.0, hi, residual_target=2.0**-44 * k1 * _LN2)
    except ToleranceError:
        return None
    # one more Newton step, on the cached sums, to float64's last bits: a root
    # that rounds to hi, such as {1..n}'s for n past 53, starts just below it
    return min(s - res / psi_prime(s), math.nextafter(hi, 0))


def moran_root(K: DigitSet, tol: float = DEFAULT_TOLERANCE) -> MoranRoot:
    """Unique root of sum(2^(-k s)) = 1 over K, certified to |f(s)-1| <= tol.

    ``tol`` must lie in [MIN_TOLERANCE, MAX_TOLERANCE] (``check_tolerance``);
    the root is always polished to |f(s) - 1| <= 2^-100, so it meets every
    accepted tol, then rounded to nearest at PRECISION_BITS by one Newton
    step at twice that.  The step is taken only inside the bracket: from an
    answer too small for the absolute stop, such as {1, 10^400}'s, it leaves
    it.  Monotonicity plus the endpoint values f(0) = S > 1 >= f(hi)
    guarantee existence and uniqueness in (0, hi], where hi = min(1,
    ceil(log2 S)/k1) (rounded up): f(hi) <= S 2^(-k1 hi) <= 1.  f(0) = S is
    taken as known, with no walk over the digits, whose sum it would equal
    exactly at s = 0 (most of the time of {1..10^6}'s root).  For huge k1
    the root lies near 1/k1, so the search starts in this bracket, not in
    [0, 1].  Newton starts at the float64 root (``_float_root``); it
    changes how many evaluations the root takes, not its bits.
    """
    check_tolerance(tol)
    # h and h' at the same point (every Newton step) share one pass
    sums = lru_cache(maxsize=1)(lambda s: _moran_sums(K, s, PRECISION_BITS))
    with mp.workprec(PRECISION_BITS):
        hi = min(mpf(1), mp.fdiv((len(K) - 1).bit_length(), K.digits[0], rounding="u"))
        start = _float_root(K, hi)
        s, res, iters, bracket = bisect_newton(
            lambda s: sums(s)[0] - 1 if s else mpf(len(K) - 1),  # f(0) = S
            lambda s: -mp.ln2 * sums(s)[1],
            mpf(0),
            hi,
            residual_target=mpf(2) ** -_RESIDUAL_BITS,
            start=None if start is None else mpf(start),
        )
    # one Newton step at 256 bits, rounded to nearest at 128: the root to the
    # last bit, whatever path reached it; a step leaving the bracket is not taken
    with mp.workprec(2 * PRECISION_BITS):
        f, weighted = _moran_sums(K, s, 2 * PRECISION_BITS)
        s_near = mp.fadd(s, (f - 1) / (mp.ln2 * weighted), prec=PRECISION_BITS)
        if bracket[0] <= s_near <= bracket[1]:
            s = s_near
        res = _moran_sums(K, s, 2 * PRECISION_BITS)[0] - 1
    return MoranRoot(s=s, residual=abs(res), iterations=iters + 2, bracket=bracket)
