"""Covering-sum dimension estimates over depth-n cylinder families.

For a family of covers {I_w} at depth n, the root s of sum |I_w|^s = 1 is
the standard pressure-equation truncation of the Hausdorff dimension.  Two
sides are estimated:

  * domain: the exact (nonlinear) lengths of continued-fraction cylinders of
    the digit-restricted set, giving a per-depth sequence of roots whose
    stability is reported, not extrapolated;
  * image: the exact self-similar diameters normalized by the full image
    diameter.  There the sum factorizes as (sum_k 2^(-k s))^n, so the root
    is depth-independent and equals the Moran root -- a cross-check between
    two solvers fed by different modules.

Lengths stay exact rationals until the numeric boundary: each is rounded
once to float64, the powered sums run through numpy's pairwise summation in
a fixed enumeration order (bit-reproducible), and the root is polished with
the same bisection + Newton hybrid the Moran solver uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .cf_core import DigitSet, check_budget, enumerate_cylinders
from .errors import ToleranceError
from .moran_solver import BISECT_WIDTH, bisect_newton
from .selfsimilar import enumerate_image_cylinders, image_diameter

DEFAULT_TOLERANCE = 1e-10


class Side(Enum):
    DOMAIN = "domain"
    IMAGE = "image"


@dataclass(frozen=True)
class CoveringEstimate:
    """Root of the depth-n covering sum, with solver diagnostics."""

    side: Side
    depth: int
    cylinder_count: int
    s_hat: float
    sum_at_root: float
    bracket: tuple[float, float]
    wall_time_ms: float


def _solve_covering(lengths: np.ndarray, tol: float) -> tuple[float, float, tuple[float, float]]:
    if lengths.size < 2:
        raise ValueError("need at least two cover lengths")
    if np.any(lengths <= 0.0):
        raise ToleranceError("a cylinder length underflowed float64")
    logs = np.log(lengths)

    def h(s: float) -> float:
        return float(np.sum(lengths**s)) - 1.0

    def h_prime(s: float) -> float:
        return float(np.sum(lengths**s * logs))

    s, res, _, bracket = bisect_newton(
        h,
        h_prime,
        0.0,
        1.0,
        bisect_width=BISECT_WIDTH,
        residual_target=tol,
    )
    return s, 1.0 + h(s), (float(bracket[0]), float(bracket[1]))


def _estimate(side: Side, depth: int, lengths: Iterable[float], tol: float) -> CoveringEstimate:
    """Covering root over the lengths, pulled and timed here."""
    t0 = time.perf_counter()
    array = np.fromiter(lengths, dtype=float)
    s, sum_at_root, bracket = _solve_covering(array, tol)
    return CoveringEstimate(
        side=side,
        depth=depth,
        cylinder_count=array.size,
        s_hat=s,
        sum_at_root=sum_at_root,
        bracket=bracket,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def covering_root_domain(
    K: DigitSet,
    depth: int,
    tol: float = DEFAULT_TOLERANCE,
    budget: int | None = None,
) -> CoveringEstimate:
    """Root of sum(length^s) = 1 over the depth-n cylinders of the restricted set.

    The sum sits at S^depth for s = 0 and strictly below 1 at s = 1 (the
    restricted cylinders omit part of every parent interval), so the root is
    unique in (0, 1).
    """
    cylinders = enumerate_cylinders(K, depth, budget)
    return _estimate(Side.DOMAIN, depth, (float(iv.length) for _, iv in cylinders), tol)


def covering_root_image(
    K: DigitSet,
    depth: int,
    tol: float = DEFAULT_TOLERANCE,
    budget: int | None = None,
) -> CoveringEstimate:
    """Root over depth-n image cylinders, diameters normalized by the image diameter.

    Each normalized diameter is exactly a product of 2^-k factors (and hence
    exact in float64), so algebraically the root equals the Moran root at
    every depth.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    whole = image_diameter(K)
    cylinders = enumerate_image_cylinders(K, depth, budget)
    return _estimate(Side.IMAGE, depth, (float(c.diameter / whole) for c in cylinders), tol)


def estimate_series(
    K: DigitSet,
    depths: Iterable[int],
    side: Side,
    tol: float = DEFAULT_TOLERANCE,
    budget: int | None = None,
) -> list[CoveringEstimate]:
    """One covering estimate per depth, ascending, for stability diagnostics.

    The whole series is budget-checked against its deepest level up front so
    a long run cannot fail halfway through.
    """
    depth_list = sorted(set(int(d) for d in depths))
    if not depth_list:
        raise ValueError("need at least one depth")
    if depth_list[0] < 1:
        raise ValueError("depths must be positive")
    check_budget(K, depth_list[-1], budget)
    solver = covering_root_domain if side is Side.DOMAIN else covering_root_image
    return [solver(K, d, tol, budget) for d in depth_list]


def successive_differences(estimates: Sequence[CoveringEstimate]) -> list[float]:
    """s_hat differences between consecutive estimates (stability diagnostic)."""
    return [b.s_hat - a.s_hat for a, b in zip(estimates, estimates[1:])]
