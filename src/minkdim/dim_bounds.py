"""Dimension bounds for digit-ceiling sets, and the preservation verdict.

For the set of x whose continued-fraction digits are all at most n (n > 8),
the Hausdorff dimension obeys the clarified Jarnik-type estimate

    1 - 1/(n lg 2)  <=  dim  <=  1 - 1/(8 n lg n),      lg = log base 10.

The verdict pits this interval against the exactly computable dimension of
the Minkowski image of the same set (the Moran root for digits {1, ..., n}).
When the root lies outside the interval by more than a tolerance, the
Minkowski function provably moved the dimension.  The outcome is never
"preserved": an interval bound can refute equality, not confirm it, so the
only verdicts are NOT_PRESERVED and INCONCLUSIVE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .cf_core import DigitSet
from .moran_solver import MoranRoot, moran_root

DEFAULT_TOLERANCE = 1e-6  # gap beyond which the verdict is NOT_PRESERVED


class Preservation(Enum):
    NOT_PRESERVED = "not_preserved"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundsInterval:
    """Certified dimension bounds for digit ceiling n."""

    lower: float
    upper: float
    n: int

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
    endpoint (0.0 when the root falls inside); NOT_PRESERVED is emitted only
    when gap > tol.
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
    lower = 1.0 - 1.0 / (n * math.log10(2.0))
    upper = 1.0 - 1.0 / (8.0 * n * math.log10(n))
    return BoundsInterval(lower=lower, upper=upper, n=n)


def preservation_verdict(n: int, tol: float = DEFAULT_TOLERANCE) -> PreservationVerdict:
    """Verdict for digit ceiling n: bounds interval vs Moran root of {1..n}."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"verdict tolerance must lie in (0, 1), got {tol}")
    bounds = jarnik_bounds(n)
    root = moran_root(DigitSet(tuple(range(1, n + 1))))
    s = float(root.s)
    if s > bounds.upper:
        gap = s - bounds.upper
    elif s < bounds.lower:
        gap = bounds.lower - s
    else:
        gap = 0.0
    outcome = Preservation.NOT_PRESERVED if gap > tol else Preservation.INCONCLUSIVE
    return PreservationVerdict(
        n=n,
        bounds=bounds,
        image_dimension=root,
        preserved=outcome,
        gap=gap,
        tol=tol,
    )
