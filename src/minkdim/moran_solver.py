"""Moran-equation solver: the similarity dimension of the image sets.

A self-similar set assembled from S disjoint scaled copies of itself with
contraction ratios r_1, ..., r_S has Hausdorff dimension equal to the unique
root of sum(r_i^s) = 1.  Minkowski images of digit-restricted sets contract
by 2^-k per digit k, so the equation specializes to

    sum_{k in K} 2^(-k s) = 1,

whose left side falls strictly from S at s = 0 to sum 2^-k < 1 at s = 1.
The root is located by bisection to a narrow bracket and polished with
Newton steps (f'(s) = -ln 2 * sum k 2^(-k s)), all in extended-precision
arithmetic so results are deterministic bit-for-bit and accurate far beyond
the requested tolerance -- identities like root(c*K) = root(K)/c then hold
to working precision, not just to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from mpmath import mp, mpf

from .cf_core import DigitSet
from .errors import ToleranceError

PRECISION_BITS = 128  # working precision for all solver arithmetic
MIN_TOLERANCE = 2.0**-50  # tol must lie in [MIN_TOLERANCE, MAX_TOLERANCE]
MAX_TOLERANCE = 1e-3
DEFAULT_TOLERANCE = 1e-12
BISECT_WIDTH = 2.0**-20  # bracket width handed from bisection to Newton
MAX_NEWTON = 64  # Newton steps allowed after bisection
_RESIDUAL_BITS = 100  # Newton polishes |f(s) - 1| below 2^-100


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless tol lies in [MIN_TOLERANCE, MAX_TOLERANCE]."""
    if not MIN_TOLERANCE <= tol <= MAX_TOLERANCE:
        raise ValueError(f"tolerance must lie in [2^-50, {MAX_TOLERANCE}], got {tol}")


@dataclass(frozen=True)
class MoranRoot:
    """The solved root s in (0, 1) with solver diagnostics.

    ``residual`` is |f(s) - 1| at return; ``iterations`` counts function
    evaluations; ``bracket`` endpoints straddle the root.
    """

    s: Any  # mpmath.mpf
    residual: Any
    iterations: int
    bracket: tuple[Any, Any]


def moran_function(K: DigitSet, s) -> mpf:
    """Left-hand side sum(2^(-k s)) over K; strictly decreasing in s >= 0."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    with mp.workprec(PRECISION_BITS):
        sv = mpf(s)
        return mp.fsum(mpf(2) ** (-k * sv) for k in K.digits)


def _moran_derivative(K: DigitSet, s) -> mpf:
    with mp.workprec(PRECISION_BITS):
        sv = mpf(s)
        return -mp.ln2 * mp.fsum(k * mpf(2) ** (-k * sv) for k in K.digits)


def bisect_newton(h: Callable, h_prime: Callable, lo, hi, *, residual_target):
    """Root of a strictly decreasing h on [lo, hi] with h(lo) > 0 > h(hi).

    Bisection narrows the bracket to BISECT_WIDTH; Newton steps (clamped to
    the live bracket, falling back to its midpoint) then polish until
    |h| <= residual_target.  Works unchanged over floats and mpmath floats.

    Returns (root, |h(root)|, evaluations, bracket); raises ToleranceError
    if the target is unreachable within MAX_NEWTON steps, and ValueError if
    h(lo) > 0 > h(hi) fails.
    """
    h_lo, h_hi = h(lo), h(hi)
    iterations = 2
    if not (h_lo > 0 > h_hi):
        raise ValueError("root not bracketed: need h(lo) > 0 > h(hi)")
    while hi - lo > BISECT_WIDTH:
        mid = (lo + hi) / 2
        hm = h(mid)
        iterations += 1
        if hm > 0:
            lo = mid
        elif hm < 0:
            hi = mid
        else:
            return mid, abs(hm), iterations, (lo, hi)
    s = (lo + hi) / 2
    res = h(s)
    iterations += 1
    for _ in range(MAX_NEWTON):
        if abs(res) <= residual_target:
            return s, abs(res), iterations, (lo, hi)
        if res > 0:
            lo = s
        else:
            hi = s
        s_next = s - res / h_prime(s)
        if not (lo < s_next < hi):
            s_next = (lo + hi) / 2
        if s_next == s:  # no representable progress at this precision
            break
        s = s_next
        res = h(s)
        iterations += 1
    if abs(res) <= residual_target:
        return s, abs(res), iterations, (lo, hi)
    raise ToleranceError(
        f"residual {abs(res)} still above {residual_target} after "
        f"{iterations} evaluations"
    )


def moran_root(K: DigitSet, tol: float = DEFAULT_TOLERANCE) -> MoranRoot:
    """Unique root of sum(2^(-k s)) = 1 over K, certified to |f(s)-1| <= tol.

    ``tol`` must lie in [MIN_TOLERANCE, MAX_TOLERANCE] (``check_tolerance``);
    the root is always polished to |f(s) - 1| <= 2^-100, so it meets every
    accepted tol.  Monotonicity plus the endpoint values f(0) = S > 1 > f(1)
    guarantee existence and uniqueness in (0, 1).  If f(1) - 1 rounds to
    zero at PRECISION_BITS (it is -2^-n for K = {1..n}, so n >= 129), the
    endpoints no longer bracket the root numerically and ToleranceError is
    raised.
    """
    check_tolerance(tol)
    with mp.workprec(PRECISION_BITS):
        try:
            s, res, iters, bracket = bisect_newton(
                lambda s: moran_function(K, s) - 1,
                lambda s: _moran_derivative(K, s),
                mpf(0),
                mpf(1),
                residual_target=mpf(2) ** -_RESIDUAL_BITS,
            )
        except ValueError:  # f(0) - 1 = S - 1 > 0 is exact, so f(1) - 1 rounded
            raise ToleranceError(
                f"f(1) - 1 rounds to zero at {PRECISION_BITS}-bit working "
                "precision, so [0, 1] does not bracket the root"
            ) from None
    return MoranRoot(s=s, residual=res, iterations=iters, bracket=bracket)
