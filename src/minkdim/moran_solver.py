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
        return _moran_sum(K, s)


def _moran_sum(K: DigitSet, s) -> mpf:
    """f(s), at the caller's precision."""
    sv = mpf(s)
    return mp.fsum(mpf(2) ** (-k * sv) for k in K.digits)


def _moran_derivative(K: DigitSet, s) -> mpf:
    """f'(s), at the caller's precision: moran_root sets PRECISION_BITS."""
    sv = mpf(s)
    return -mp.ln2 * mp.fsum(k * mpf(2) ** (-k * sv) for k in K.digits)


def bisect_newton(h: Callable, h_prime: Callable, lo, hi, *, residual_target):
    """Root of a decreasing h on the closed bracket [lo, hi]: h(lo) >= 0 >= h(hi).

    One loop evaluates h, stops as soon as |h| <= residual_target, narrows
    the bracket and steps: to the bracket's midpoint until it is BISECT_WIDTH
    wide, then by Newton (clamped to the live bracket, falling back to its
    midpoint).  Works unchanged over floats and mpmath floats.  An endpoint
    value that rounds to zero still brackets: the loop starts at the midpoint
    and converges to a point that meets the target.

    Returns (root, h(root), evaluations, bracket), the residual signed.
    Raises ToleranceError if h(lo) >= 0 >= h(hi) fails at working precision
    or if the target is unreachable within MAX_NEWTON steps.
    """
    h_lo, h_hi = h(lo), h(hi)
    iterations = 2
    if not (h_lo >= 0 >= h_hi):
        prec = mp.prec if isinstance(h_lo, mpf) else 53  # mpf, or float64
        raise ToleranceError(
            f"h({lo}) = {h_lo} and h({hi}) = {h_hi} at {prec}-bit precision: "
            f"[{lo}, {hi}] does not bracket the root"
        )
    s, newton_steps = (lo + hi) / 2, 0
    while newton_steps <= MAX_NEWTON:
        res = h(s)
        iterations += 1
        if abs(res) <= residual_target:
            return s, res, iterations, (lo, hi)
        wide = hi - lo > BISECT_WIDTH  # judged before this evaluation narrows it
        if res > 0:
            lo = s
        else:
            hi = s
        newton_steps += not wide
        s_next = (lo + hi) / 2 if wide else s - res / h_prime(s)
        if not (lo < s_next < hi):
            s_next = (lo + hi) / 2
        if s_next == s:  # no representable progress at this precision
            break
        s = s_next
    raise ToleranceError(
        f"residual {abs(res)} still above {residual_target} after "
        f"{iterations} evaluations"
    )


def moran_root(K: DigitSet, tol: float = DEFAULT_TOLERANCE) -> MoranRoot:
    """Unique root of sum(2^(-k s)) = 1 over K, certified to |f(s)-1| <= tol.

    ``tol`` must lie in [MIN_TOLERANCE, MAX_TOLERANCE] (``check_tolerance``);
    the root is always polished to |f(s) - 1| <= 2^-100, so it meets every
    accepted tol.  Monotonicity plus the endpoint values f(0) = S > 1 > f(1)
    guarantee existence and uniqueness in (0, 1).
    """
    check_tolerance(tol)
    with mp.workprec(PRECISION_BITS):
        s, res, iters, bracket = bisect_newton(
            lambda s: moran_function(K, s) - 1,
            lambda s: _moran_derivative(K, s),
            mpf(0),
            mpf(1),
            residual_target=mpf(2) ** -_RESIDUAL_BITS,
        )
    if res == 0:  # f(s) - 1 rounds to zero: report it at twice the working precision
        with mp.workprec(2 * PRECISION_BITS):
            res = _moran_sum(K, s) - 1
    return MoranRoot(s=s, residual=abs(res), iterations=iters, bracket=bracket)
