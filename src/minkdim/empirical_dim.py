"""Covering-sum dimension estimates over depth-n cylinder families.

For covers {I_w} at depth n, the root s of sum |I_w|^s = 1 is the standard
pressure-equation truncation of the Hausdorff dimension.  On the domain side
the covers are the continued-fraction cylinders of the restricted set, of
length 1/(q_n (q_n + q_{n-1})), and the per-depth roots are reported, not
extrapolated.  On the image side they are the image cylinders, of normalized
diameter exactly 2^-(digit sum); the sum factorizes as (sum_k 2^(-k s))^n, so
the root equals the Moran root at every depth -- a cross-check of two solvers.

``_log_lengths`` builds the float64 log lengths of each depth from the last
with numpy, in lexicographic word order: the domain side carries (log q_n,
q_{n-1}/q_n), so nothing overflows, the image side the digit sums.  One
solver finds the root of logsumexp(s * log lengths) = 0, so no power
underflows, with pairwise sums in that fixed order (bit-reproducible runs).
Logs outside the float64 range raise ToleranceError.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cf_core import DEFAULT_BUDGET, DigitSet, check_budget
from .errors import ToleranceError
from .moran_solver import bisect_newton, check_tolerance

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


def _log_lengths(K: DigitSet, side: Side, depth: int) -> Iterator[np.ndarray]:
    """Log cover lengths at depths 1..depth, each in lexicographic word order."""
    digits = np.array(K.digits, dtype=float)
    if side is Side.IMAGE:
        sums = np.zeros(1)
        for _ in range(depth):
            sums = np.add.outer(sums, digits).ravel()
            yield sums * -math.log(2.0)
        return
    log_q, r = np.zeros(1), np.zeros(1)  # r = q_{n-1}/q_n; q_0 = 1, q_{-1} = 0
    for _ in range(depth):
        t = np.add.outer(r, digits).ravel()  # q_{n+1}/q_n = k + r
        log_q = np.repeat(log_q, len(K))
        log_q += np.log(t)
        r = np.reciprocal(t, out=t)
        logs = np.log1p(r)
        logs += 2.0 * log_q
        yield np.negative(logs, out=logs)


def _solve_covering(logs: np.ndarray, target: float) -> tuple[float, float, tuple[float, float]]:
    """Root of g(s) = log(sum(exp(s * logs))) = 0, polished to |g| <= target.

    g' is a weighted mean of the logs, so unlike the sum's slope it cannot underflow.
    """
    scratch = np.empty_like(logs)

    def shifted(s: float) -> float:  # exp(s * logs - top) into scratch; returns top
        np.multiply(logs, s, out=scratch)
        top = scratch.max()
        np.subtract(scratch, top, out=scratch)
        np.exp(scratch, out=scratch)
        return top

    def g(s: float) -> float:
        return float(shifted(s) + np.log(scratch.sum()))

    def g_prime(s: float) -> float:
        shifted(s)
        total = scratch.sum()
        np.multiply(scratch, logs, out=scratch)
        return float(scratch.sum() / total)

    s, res, _, bracket = bisect_newton(g, g_prime, 0.0, 1.0, residual_target=target)
    return s, math.exp(res), (float(bracket[0]), float(bracket[1]))


def covering_root_domain(
    K: DigitSet, depth: int, tol: float = DEFAULT_TOLERANCE, budget: int = DEFAULT_BUDGET
) -> CoveringEstimate:
    """Root of sum(length^s) = 1 over the depth-n cylinders of the restricted set.

    The sum sits at S^depth for s = 0 and strictly below 1 at s = 1 (the
    restricted cylinders omit part of every parent interval), so the root is
    unique in (0, 1).
    """
    return estimate_series(K, (depth,), Side.DOMAIN, tol, budget)[0]


def covering_root_image(
    K: DigitSet, depth: int, tol: float = DEFAULT_TOLERANCE, budget: int = DEFAULT_BUDGET
) -> CoveringEstimate:
    """Root over depth-n image cylinders, diameters normalized by the image diameter.

    Each normalized diameter is exactly 2^-(digit sum), so algebraically the
    root equals the Moran root at every depth.
    """
    return estimate_series(K, (depth,), Side.IMAGE, tol, budget)[0]


def estimate_series(
    K: DigitSet,
    depths: Iterable[int],
    side: Side,
    tol: float = DEFAULT_TOLERANCE,
    budget: int = DEFAULT_BUDGET,
) -> list[CoveringEstimate]:
    """One covering estimate per depth, ascending, for stability diagnostics.

    The layers are built once, up to the deepest depth; each estimate's
    ``wall_time_ms`` is the time since the previous one.  The whole series is
    budget-checked against its deepest level up front so a long run cannot
    fail halfway through; ``tol`` must lie in the Moran solver's range.
    ToleranceError: a log left float64.
    """
    check_tolerance(tol)
    depth_list = sorted(set(int(d) for d in depths))
    if not depth_list:
        raise ValueError("need at least one depth")
    if depth_list[0] < 1:
        raise ValueError("depths must be positive")
    check_budget(K, depth_list[-1], budget)
    target = math.log1p(tol)  # |g| <= log1p(tol) gives |sum - 1| <= tol
    estimates = []
    t0 = time.perf_counter()
    try:
        with np.errstate(all="raise", under="ignore"):  # exp may underflow to 0
            for depth, logs in enumerate(_log_lengths(K, side, depth_list[-1]), 1):
                if depth in depth_list:
                    root = _solve_covering(logs, target)
                    ms = (time.perf_counter() - t0) * 1e3
                    estimates.append(CoveringEstimate(side, depth, logs.size, *root, ms))
                    t0 = time.perf_counter()
    except (OverflowError, FloatingPointError) as exc:
        raise ToleranceError(f"covering sums leave the float64 range ({exc})") from None
    return estimates


def successive_differences(estimates: Sequence[CoveringEstimate]) -> list[float]:
    """s_hat differences between consecutive estimates (stability diagnostic)."""
    return [b.s_hat - a.s_hat for a, b in zip(estimates, estimates[1:])]
