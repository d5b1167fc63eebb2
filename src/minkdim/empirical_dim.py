"""Covering-sum dimension estimates over depth-n cylinder families.

For covers {I_w} at depth n, the root s of sum |I_w|^s = 1 is the standard
pressure-equation truncation of the Hausdorff dimension.  On the domain side
the covers are the continued-fraction cylinders of the restricted set, of
length 1/(q_n (q_n + q_{n-1})), and the per-depth roots are reported, not
extrapolated.  On the image side they are the image cylinders, of normalized
diameter exactly 2^-(digit sum); the sum factorizes as (sum_k 2^(-k s))^n, so
the depth-1 sum is solved once: its root, the Moran root, serves every depth.

``_log_lengths`` builds the float64 log domain lengths of each depth from the
last with numpy, in lexicographic word order, carrying (log q_n, q_{n-1}/q_n)
so nothing overflows.  One solver finds the root of logsumexp(s * log lengths)
= 0, so no power underflows.  Its sums run in that fixed order, with no BLAS
call and no threads: the sum for g is numpy's pairwise sum and the weighted
sum for g' one einsum, so runs are bit-reproducible whatever the BLAS thread
count.  Logs outside the float64 range raise ToleranceError.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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
    """Root of the depth-n covering sum, with solver diagnostics.

    ``bracket`` is the solver's live bracket at return, certified to hold the
    root, but its far end is often 1.0: it is no precision measure;
    ``sum_at_root`` is.  On the image side ``tol`` bounds the depth-1 sum, and
    ``sum_at_root`` is that sum to the n-th power.  ``wall_time_ms`` is the
    time since the previous estimate; on the domain side it includes the
    solves of the shallower depths that were not requested.
    """

    side: Side
    depth: int
    cylinder_count: int
    s_hat: float
    sum_at_root: float
    bracket: tuple[float, float]
    wall_time_ms: float


def _log_lengths(K: DigitSet, depth: int) -> Iterator[np.ndarray]:
    """Log domain cylinder lengths at depths 1..depth, each in lexicographic word order."""
    digits = np.array(K.digits, dtype=float)
    log_q, r = np.zeros(1), np.zeros(1)  # r = q_{n-1}/q_n; q_0 = 1, q_{-1} = 0
    for _ in range(depth):
        t = np.add.outer(r, digits).ravel()  # q_{n+1}/q_n = k + r
        log_q = np.repeat(log_q, len(K))
        log_q += np.log(t)
        r = np.reciprocal(t, out=t)
        logs = np.log1p(r)
        logs += 2.0 * log_q
        yield np.negative(logs, out=logs)


def _solve_covering(
    logs: np.ndarray, target: float, start: float | None = None
) -> tuple[float, float, tuple[float, float]]:
    """Root of g(s) = log(sum(exp(s * logs))) = 0, polished to |g| <= target.

    Takes the layer over: shifts it in place, once, by its maximum top, since
    max(s * logs) = s * top for every s >= 0.  Then g(s) = s * top +
    log(sum(exp(s * shifted))), and g'(s) = top + the weighted mean of the
    shifted logs, which unlike the sum's slope cannot underflow.  Each
    0 < s < 1 costs four array passes (multiply, exp, sum, one weighted sum),
    shared by g and g' at the same s (every Newton step).  The bracket's ends
    cost none: ``bisect_newton`` never evaluates g there, and their signs are
    known.  g(0) = log N > 0, and g(1) < 0: at s = 1 the domain cylinders
    are disjoint subintervals of [0, 1], and the image sum is sum 2^-k < 1.
    Newton starts at ``start`` (the root one depth up, on the domain side),
    else at the midpoint.
    """
    top = float(logs.max())
    logs -= top
    scratch = np.empty_like(logs)

    @lru_cache(maxsize=1)
    def sums(s: float) -> tuple[float, float]:
        np.multiply(logs, s, out=scratch)
        np.exp(scratch, out=scratch)  # weights exp(s * shifted), the largest 1
        total = float(scratch.sum())
        weighted = float(np.einsum("i,i->", scratch, logs))
        return s * top + math.log(total), weighted / total + top

    s, res, _, bracket = bisect_newton(
        lambda s: sums(s)[0],
        lambda s: sums(s)[1],
        0.0,
        1.0,
        residual_target=target,
        start=start,
    )
    return s, math.exp(res), (float(bracket[0]), float(bracket[1]))


def _domain_roots(K: DigitSet, depth: int, target: float) -> Iterator[tuple[int, int, tuple]]:
    """(depth, cylinder count, root) at every depth 1..depth; each depth's
    Newton starts at the root one depth up, depth 1's at the midpoint."""
    start = None
    for n, logs in enumerate(_log_lengths(K, depth), 1):
        root = _solve_covering(logs, target, start)
        start = root[0]
        yield n, logs.size, root


def estimate_series(
    K: DigitSet,
    depths: Iterable[int],
    side: Side,
    tol: float = DEFAULT_TOLERANCE,
    budget: int = DEFAULT_BUDGET,
) -> list[CoveringEstimate]:
    """One covering estimate per depth, ascending, for stability diagnostics.

    Each depth's sum sits at S^depth for s = 0 and strictly below 1 at s = 1
    (the restricted cylinders omit part of every parent interval; the image
    sum there is (sum_k 2^-k)^depth), so its root is unique in (0, 1).
    Domain layers are built once, up to the deepest depth, and every depth
    from 1 up is solved, requested or not: each depth's Newton starts at the
    root one depth up, so a root from depth 3 on costs three exp passes
    (its start, one Newton point and the answer).  The start depends only
    on K and the depth, so a depth's estimate is the same bits alone or in
    any series.  Where two depths'
    roots agree within ``tol`` the deeper root is the start itself, and
    their successive difference reads 0.0.  The image side solves its
    depth-1 sum once.  ``wall_time_ms`` is the time since the previous
    estimate, so it includes the solves of shallower depths that were not
    requested.  Both sides check the budget at the deepest depth first, so a
    long run cannot fail halfway.  ``tol`` must lie in the Moran solver's
    range.
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
            if side is Side.IMAGE:  # the depth-n sum is the depth-1 sum to the n-th power
                root = _solve_covering(np.array(K.digits, float) * -math.log(2.0), target)
                layers = ((n, len(K) ** n, (root[0], root[1] ** n, root[2])) for n in depth_list)
            else:
                roots = _domain_roots(K, depth_list[-1], target)
                layers = (row for row in roots if row[0] in depth_list)
            for depth, count, (s, total, bracket) in layers:
                ms = (time.perf_counter() - t0) * 1e3
                estimates.append(CoveringEstimate(side, depth, count, s, total, bracket, ms))
                t0 = time.perf_counter()
    except (OverflowError, FloatingPointError) as exc:
        raise ToleranceError(f"covering sums leave the float64 range ({exc})") from None
    return estimates


def successive_differences(estimates: Sequence[CoveringEstimate]) -> list[float]:
    """s_hat differences between consecutive estimates (stability diagnostic)."""
    return [b.s_hat - a.s_hat for a, b in zip(estimates, estimates[1:])]
