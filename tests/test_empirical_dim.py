"""Covering-sum estimates.

Oracle: a pure-bisection root finder run on independently derived exact
cylinder lengths.  For K = {1,2} the depth-1 lengths are 1/2 and 1/6 and the
depth-2 lengths are 1/6, 1/12, 1/15, 1/35 (convergent recurrence by hand).
"""

import json
import math
import sys
from fractions import Fraction
from itertools import product

import pytest

from minkdim import (
    BudgetExceededError,
    DigitSet,
    Side,
    covering_root_domain,
    covering_root_image,
    cylinder_interval,
    estimate_series,
    image_diameter,
    image_hulls,
    jarnik_bounds,
    moran_root,
    successive_differences,
)
from minkdim.cli import EXIT_OK, EXIT_TOLERANCE, main
from minkdim.empirical_dim import _log_lengths

K12 = DigitSet((1, 2))
NINE = DigitSet(tuple(range(1, 10)))
EPS = sys.float_info.epsilon


def exact_lengths(K, depth):
    """Exact lengths of the depth-n domain cylinders, lexicographic."""
    return [cylinder_interval(w).length for w in product(K.digits, repeat=depth)]


def oracle_bisect(lengths, iterations=80):
    """Pure bisection on sum(l^s) = 1; no Newton, no shared code."""
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if sum(l**mid for l in lengths) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDomain:
    def test_depth1_against_oracle(self):
        est = covering_root_domain(K12, 1)
        expected = oracle_bisect([0.5, 1.0 / 6.0])
        assert est.cylinder_count == 2
        assert abs(est.s_hat - expected) <= 1e-9
        assert abs(est.s_hat - 0.6010) <= 1e-3

    def test_depth2_against_hand_lengths(self):
        est = covering_root_domain(K12, 2)
        lengths = [1 / 6, 1 / 12, 1 / 15, 1 / 35]
        assert est.cylinder_count == 4
        assert abs(est.s_hat - oracle_bisect(lengths)) <= 1e-9

    def test_depth3_inside_reference_interval(self):
        est = covering_root_domain(NINE, 3)
        b = jarnik_bounds(9)
        assert b.lower < est.s_hat < b.upper

    def test_sum_at_root_within_tolerance(self):
        est = covering_root_domain(K12, 4, tol=1e-10)
        assert abs(est.sum_at_root - 1.0) <= 1e-10

    def test_bracket_straddles(self):
        est = covering_root_domain(K12, 3)
        lengths = [float(length) for length in exact_lengths(K12, 3)]
        lo, hi = est.bracket
        assert lo <= est.s_hat <= hi
        assert sum(l**lo for l in lengths) > 1.0 > sum(l**hi for l in lengths)

    def test_covering_sums_shrink_with_depth(self):
        for digits in [(1, 2), (1, 3, 5)]:
            K = DigitSet(digits)
            totals = []
            for depth in range(1, 5):
                totals.append(sum(exact_lengths(K, depth)))
            assert all(t < 1 for t in totals)
            assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_deterministic(self):
        a = covering_root_domain(NINE, 3)
        b = covering_root_domain(NINE, 3)
        assert a.s_hat == b.s_hat
        assert a.sum_at_root == b.sum_at_root


class TestImage:
    def test_depth1_equals_moran(self):
        est = covering_root_image(K12, 1)
        assert abs(est.s_hat - float(moran_root(K12).s)) <= 1e-9

    def test_depth_invariance(self):
        tol = 1e-10
        roots = [covering_root_image(K12, d, tol).s_hat for d in (1, 3, 6)]
        for a in roots:
            for b in roots:
                assert abs(a - b) <= 10 * tol

    def test_headline_set_depth3(self):
        est = covering_root_image(NINE, 3)
        assert abs(est.s_hat - 0.9985778625536) <= 1e-8

    def test_count_and_side(self):
        est = covering_root_image(K12, 5)
        assert est.cylinder_count == 32
        assert est.side is Side.IMAGE

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            covering_root_image(K12, 0)


class TestSeries:
    def test_domain_series_converges(self):
        # The roots decrease strictly; the step sizes alternate with depth
        # parity (even/odd cylinder counts weight long and short digits
        # differently), so |differences| shrink monotonically within each
        # parity class rather than globally.
        series = estimate_series(K12, range(1, 7), Side.DOMAIN)
        assert [e.depth for e in series] == [1, 2, 3, 4, 5, 6]
        diffs = successive_differences(series)
        assert all(d < 0 for d in diffs)
        magnitudes = [abs(d) for d in diffs]
        assert all(magnitudes[0] > m for m in magnitudes[1:])
        evens, odds = magnitudes[0::2], magnitudes[1::2]
        assert all(a > b for a, b in zip(evens, evens[1:]))
        assert all(a > b for a, b in zip(odds, odds[1:]))

    def test_image_series_constant(self):
        tol = 1e-10
        series = estimate_series(K12, range(1, 7), Side.IMAGE, tol)
        diffs = successive_differences(series)
        assert all(abs(d) <= 10 * tol for d in diffs)

    def test_headline_depths_inside_interval(self):
        b = jarnik_bounds(9)
        series = estimate_series(NINE, (3, 4), Side.DOMAIN)
        for est in series:
            assert b.lower < est.s_hat < b.upper

    def test_budget_checked_upfront(self):
        with pytest.raises(BudgetExceededError):
            estimate_series(NINE, range(1, 10), Side.DOMAIN)
        with pytest.raises(BudgetExceededError):
            estimate_series(K12, (2, 12), Side.DOMAIN, budget=100)
        with pytest.raises(ValueError):
            estimate_series(K12, (2,), Side.DOMAIN, budget=0)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            estimate_series(K12, (), Side.DOMAIN)
        with pytest.raises(ValueError):
            estimate_series(K12, (0, 2), Side.DOMAIN)
        with pytest.raises(ValueError):
            covering_root_domain(K12, 0)

    def test_tolerance_range(self):
        """The Moran solver's range [2^-50, 1e-3] holds for covering sums too."""
        with pytest.raises(ValueError):
            estimate_series(K12, (2,), Side.DOMAIN, tol=1e-2)
        with pytest.raises(ValueError):
            covering_root_domain(K12, 2, tol=2.0**-51)


def deepest_layer(K, side, depth):
    *_, logs = _log_lengths(K, side, depth)
    return logs


class TestEngine:
    """The float64 log-length layers against the exact Fraction enumerators."""

    @pytest.mark.parametrize(
        "digits, depth", [((1, 2), 10), (tuple(range(1, 10)), 3), ((7, 10**6), 6)]
    )
    def test_domain_logs_match_exact_lengths(self, digits, depth):
        K = DigitSet(digits)
        logs = deepest_layer(K, Side.DOMAIN, depth)
        exact = [
            math.log(length.numerator) - math.log(length.denominator)
            for length in exact_lengths(K, depth)
        ]
        assert logs.size == len(exact)
        for got, want in zip(logs, exact):
            assert abs(got - want) <= 4 * depth * EPS * abs(want)

    @pytest.mark.parametrize(
        "digits, depth", [((1, 2), 6), ((2, 5, 9), 3), ((100, 200), 4)]
    )
    def test_image_logs_are_exact_normalized_diameters(self, digits, depth):
        K = DigitSet(digits)
        logs = deepest_layer(K, Side.IMAGE, depth)
        whole = image_diameter(K)
        diameters = [diameter for *_, diameter in image_hulls(K, depth)]
        assert logs.size == len(diameters)
        for got, diameter in zip(logs, diameters):
            ratio = diameter / whole
            n = ratio.denominator.bit_length() - 1
            assert ratio == Fraction(1, 2**n)
            assert got == -math.log(2) * n

    @pytest.mark.parametrize("side", list(Side))
    def test_series_equals_single_roots_bit_for_bit(self, side):
        K = DigitSet((1, 3, 5))
        solver = covering_root_domain if side is Side.DOMAIN else covering_root_image
        for est in estimate_series(K, range(1, 6), side):
            single = solver(K, est.depth)
            assert (est.side, est.depth, est.cylinder_count) == (
                single.side, single.depth, single.cylinder_count
            )
            assert (est.s_hat, est.sum_at_root, est.bracket) == (
                single.s_hat, single.sum_at_root, single.bracket
            )

    def test_budget_scale(self):
        assert 0.5 < covering_root_domain(K12, 20).s_hat < 0.55
        assert abs(covering_root_image(NINE, 6).s_hat - float(moran_root(NINE).s)) <= 1e-8

    def test_large_digit_image_returns_moran_root(self, capsys):
        argv = ["empirical", "--digits", "100,200", "--side", "image", "--depths", "6"]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)["result"]["series"]
        assert abs(row["s_hat"] - float(moran_root(DigitSet((100, 200))).s)) <= 1e-10

    def test_huge_image_digits_keep_a_nonzero_slope(self):
        # sum(length^s) underflows at the Newton points, its log does not
        K = DigitSet((10**10, 2 * 10**10))
        moran = float(moran_root(K).s)
        for est in estimate_series(K, (1, 2), Side.IMAGE):
            assert abs(est.s_hat - moran) <= 1e-6 * moran

    @pytest.mark.parametrize(
        "digits, side",
        [
            (f"1,{10**400}", Side.DOMAIN),
            (f"1,{10**400}", Side.IMAGE),
            (f"1,{10**308}", Side.IMAGE),  # digit sums overflow at depth 2
        ],
    )
    def test_outside_float64_is_a_tolerance_failure(self, capsys, digits, side):
        argv = ["empirical", "--digits", digits, "--side", side.value, "--depths", "1..3"]
        assert main(argv) == EXIT_TOLERANCE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
