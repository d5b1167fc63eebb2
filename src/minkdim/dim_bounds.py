"""Dimension bounds for digit-ceiling sets, and the preservation verdict.

For the set of x whose continued-fraction digits are all at most n (n > 8),
the Hausdorff dimension obeys the clarified Jarnik-type estimate

    1 - 1/(n lg 2)  <=  dim  <=  1 - 1/(8 n lg n),      lg = log base 10.

The verdict pits this interval against the exactly computable dimension of
the Minkowski image of the same set: the Moran root s of
sum_{k<=n} 2^(-k s) = 1, taken from its closed form for digits {1, ..., n}
(``preservation_verdict``), so every n that the bounds accept gets an answer.
When the root lies outside the interval by more than a tolerance, the
Minkowski function provably moved the dimension.  The outcome is never
"preserved": an interval bound can refute equality, not confirm it, so the
only verdicts are NOT_PRESERVED and INCONCLUSIVE.  The gap to the upper bound
is about 1/(8 n lg n), so the default tolerance leaves every n above about
28,000 INCONCLUSIVE; a smaller tolerance reaches further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from mpmath import mp, mpf
from mpmath.ctx_iv import MPIntervalContext

from .moran_solver import PRECISION_BITS, MoranRoot

DEFAULT_TOLERANCE = 1e-6  # gap beyond which the verdict is NOT_PRESERVED
_MAX_N = 158_574_835_522_566  # the largest n whose float64 upper bound is below 1
_iv = MPIntervalContext()  # outward-rounded arithmetic at the solver's precision
_iv.prec = PRECISION_BITS


class Preservation(Enum):
    NOT_PRESERVED = "not_preserved"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundsInterval:
    """Certified dimension bounds for digit ceiling n."""

    n: int
    lower: float
    upper: float

    def __post_init__(self):
        if self.n <= 8:
            raise ValueError(f"bounds require n > 8, got n={self.n}")
        if not 0.0 < self.lower < self.upper < 1.0:
            raise ValueError(
                f"bounds must satisfy 0 < lower < upper < 1, got "
                f"({self.lower}, {self.upper})"
            )


@dataclass(frozen=True)
class PreservationVerdict:
    """Comparison of the bounds interval with the image dimension.

    ``gap`` is the distance from the Moran root to the nearer interval
    endpoint (0.0 when the root falls inside), computed from 1 - s at the
    solver's precision; NOT_PRESERVED is emitted only when gap > tol.
    """

    n: int
    bounds: BoundsInterval
    image_dimension: MoranRoot
    preserved: Preservation
    gap: float
    tol: float


def jarnik_bounds(n: int) -> BoundsInterval:
    """Dimension bounds (1 - 1/(n lg 2), 1 - 1/(8 n lg n)) for n > 8."""
    if n <= 8:
        raise ValueError(f"bounds require n > 8, got n={n}")
    if n > _MAX_N:  # also keeps n well inside the float64 range
        raise ValueError(
            f"bounds require n <= {_MAX_N}: past it the float64 upper bound "
            f"1 - 1/(8 n lg n) rounds to 1"
        )
    lower = 1.0 - 1.0 / (n * math.log10(2.0))
    upper = 1.0 - 1.0 / (8.0 * n * math.log10(n))
    return BoundsInterval(n=n, lower=lower, upper=upper)


def preservation_verdict(n: int, tol: float = DEFAULT_TOLERANCE) -> PreservationVerdict:
    """Verdict for digit ceiling n: bounds interval vs Moran root of {1..n}.

    With x = 2^-s the Moran equation sum_{k<=n} x^k = 1 is
    x^(n+1) - 2x + 1 = 0, and x = (1 + eps)/2 turns it into the fixed point
    eps = g(eps) = 2^-(n+1) (1 + eps)^(n+1).  g increases and maps
    [0, 2^-n] into itself, contracting by about (n+1) 2^-n, so iterating it
    from 0 climbs to the root eps in [g(0), g(2^-n)]; each step is one
    integer power of 1 + eps and an exact shift.  That interval, mapped
    to s with outward rounding, is the reported bracket.  Then
    1 - s = log1p(eps)/ln 2 keeps its relative accuracy however large n is,
    and f(s) - 1 = 2 (eps - g(eps))/(1 - eps) gives the residual at the
    returned s without forming sum - 1.  ``iterations`` counts evaluations
    of g.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"verdict tolerance must lie in (0, 1), got {tol}")
    bounds = jarnik_bounds(n)
    with mp.workprec(PRECISION_BITS):

        def g(eps):
            return mp.ldexp((1 + eps) ** (n + 1), -(n + 1))

        eps, step, iterations = mpf(0), g(mpf(0)), 1
        while step > eps:  # an increasing sequence ends where rounding stalls it
            eps, step, iterations = step, g(step), iterations + 1
        t = mp.log1p(eps) / mp.ln2  # 1 - s
        s = 1 - t
        eps_s = mp.expm1((1 - s) * mp.ln2)
        residual = abs(2 * (eps_s - g(eps_s)) / (1 - eps_s))
        above, below = 1 / (8 * n * mp.log10(n)) - t, t - 1 / (n * mp.log10(2))
        gap = float(max(above, below, 0))  # s - upper, lower - s, or inside
        e = _iv.mpf(2) ** -(n + 1)
        eps_bounds = _iv.mpf([e.a, (e * (1 + 2 * e) ** (n + 1)).b])
        s_bounds = 1 - _iv.log1p(eps_bounds) / _iv.ln2
        bracket = (mpf(s_bounds.a), mpf(s_bounds.b))
    root = MoranRoot(s=s, residual=residual, iterations=iterations, bracket=bracket)
    outcome = Preservation.NOT_PRESERVED if gap > tol else Preservation.INCONCLUSIVE
    return PreservationVerdict(
        n=n,
        bounds=bounds,
        image_dimension=root,
        preserved=outcome,
        gap=gap,
        tol=tol,
    )
