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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkdim import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DigitSet,
    Side,
    bisect_newton,
    cylinder_interval,
    empirical_dim,
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
        est = estimate_series(K12, [1], Side.DOMAIN)[0]
        expected = oracle_bisect([0.5, 1.0 / 6.0])
        assert est.cylinder_count == 2
        assert abs(est.s_hat - expected) <= 1e-9
        assert abs(est.s_hat - 0.6010) <= 1e-3

    def test_depth2_against_hand_lengths(self):
        est = estimate_series(K12, [2], Side.DOMAIN)[0]
        lengths = [1 / 6, 1 / 12, 1 / 15, 1 / 35]
        assert est.cylinder_count == 4
        assert abs(est.s_hat - oracle_bisect(lengths)) <= 1e-9

    def test_depth3_inside_reference_interval(self):
        est = estimate_series(NINE, [3], Side.DOMAIN)[0]
        b = jarnik_bounds(9)
        assert b.lower < est.s_hat < b.upper

    def test_sum_at_root_within_tolerance(self):
        est = estimate_series(K12, [4], Side.DOMAIN, tol=1e-10)[0]
        assert abs(est.sum_at_root - 1.0) <= 1e-10

    def test_bracket_straddles(self):
        est = estimate_series(K12, [3], Side.DOMAIN)[0]
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
        a = estimate_series(NINE, [3], Side.DOMAIN)[0]
        b = estimate_series(NINE, [3], Side.DOMAIN)[0]
        assert a.s_hat == b.s_hat
        assert a.sum_at_root == b.sum_at_root


class TestImage:
    def test_depth1_equals_moran(self):
        est = estimate_series(K12, [1], Side.IMAGE)[0]
        assert abs(est.s_hat - float(moran_root(K12).s)) <= 1e-9

    def test_depth_invariance(self):
        tol = 1e-10
        roots = [estimate_series(K12, [d], Side.IMAGE, tol)[0].s_hat for d in (1, 3, 6)]
        for a in roots:
            for b in roots:
                assert abs(a - b) <= 10 * tol

    def test_headline_set_depth3(self):
        est = estimate_series(NINE, [3], Side.IMAGE)[0]
        assert abs(est.s_hat - 0.9985778625536) <= 1e-8

    def test_count_and_side(self):
        est = estimate_series(K12, [5], Side.IMAGE)[0]
        assert est.cylinder_count == 32
        assert est.side is Side.IMAGE

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            estimate_series(K12, [0], Side.IMAGE)


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
        series = estimate_series(K12, range(1, 7), Side.IMAGE)
        assert successive_differences(series) == [0.0] * 5

    def test_headline_depths_inside_interval(self):
        b = jarnik_bounds(9)
        series = estimate_series(NINE, (3, 4), Side.DOMAIN)
        for est in series:
            assert b.lower < est.s_hat < b.upper

    @pytest.mark.parametrize(
        "K, depths, side", [(NINE, range(1, 6), Side.DOMAIN), (K12, range(1, 14), Side.IMAGE)]
    )
    def test_newton_from_the_first_step(self, monkeypatch, K, depths, side):
        # counts evaluations of g, not time: at most 8 per root
        counts = []

        def counting(h, h_prime, lo, hi, **kwargs):
            counts.append(0)

            def counted(s):
                counts[-1] += 1
                return h(s)

            return bisect_newton(counted, h_prime, lo, hi, **kwargs)

        monkeypatch.setattr(empirical_dim, "bisect_newton", counting)
        estimate_series(K, depths, side)
        roots = 1 if side is Side.IMAGE else len(depths)  # one depth-1 root serves the image
        assert len(counts) == roots and max(counts) <= 8

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
            estimate_series(K12, [0], Side.DOMAIN)

    def test_tolerance_range(self):
        """The Moran solver's range [2^-50, 1e-3] holds for covering sums too."""
        with pytest.raises(ValueError):
            estimate_series(K12, (2,), Side.DOMAIN, tol=1e-2)
        with pytest.raises(ValueError):
            estimate_series(K12, [2], Side.DOMAIN, tol=2.0**-51)


def deepest_layer(K, depth):
    *_, logs = _log_lengths(K, depth)
    return logs


@st.composite
def image_series_args(draw):
    """2-8 digits up to 1000, depths 1..n within the default budget, a tol."""
    K = DigitSet(draw(st.sets(st.integers(1, 1000), min_size=2, max_size=8)))
    top = 1
    while len(K) ** (top + 1) <= DEFAULT_BUDGET:
        top += 1
    tol = draw(st.sampled_from((1e-3, 1e-10, 2.0**-50)))
    return K, range(1, draw(st.integers(1, top)) + 1), tol


class TestImageFactorization:
    """The image side solves its depth-1 sum once; the depth-n sum is its power."""

    @settings(database=None, deadline=None, max_examples=60)
    @given(image_series_args())
    @example((DigitSet((29, 30, 87)), range(1, 7), 2.0**-50))
    def test_one_root_at_every_depth(self, args):
        K, depths, tol = args
        series = estimate_series(K, depths, Side.IMAGE, tol)
        assert [e.cylinder_count for e in series] == [len(K) ** n for n in depths]
        ((s_hat, _),) = {(e.s_hat, e.bracket) for e in series}
        assert abs(s_hat - float(moran_root(K).s)) <= tol
        for e in series:  # the depth-1 sum to the n-th power
            assert e.sum_at_root == pytest.approx(series[0].sum_at_root**e.depth, rel=EPS)


class TestEngine:
    """The float64 domain layers and the image factorization against the exact
    Fraction enumerators."""

    @pytest.mark.parametrize(
        "digits, depth", [((1, 2), 10), (tuple(range(1, 10)), 3), ((7, 10**6), 6)]
    )
    def test_domain_logs_match_exact_lengths(self, digits, depth):
        K = DigitSet(digits)
        logs = deepest_layer(K, depth)
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
        # each normalized diameter is 2^-(digit sum), so at depth n they sum
        # to (sum_k 2^-k)^n: the identity the image side's one solve rests on
        K = DigitSet(digits)
        whole = image_diameter(K)
        ratios = []
        for word, *_, diameter in image_hulls(K, depth):
            assert diameter / whole == Fraction(1, 2 ** sum(word))
            ratios.append(diameter / whole)
        assert len(ratios) == len(K) ** depth
        assert sum(ratios) == sum(Fraction(1, 2**k) for k in digits) ** depth

    @pytest.mark.parametrize("side", list(Side))
    def test_series_equals_single_roots_bit_for_bit(self, side):
        K = DigitSet((1, 3, 5))
        for est in estimate_series(K, range(1, 6), side):
            (single,) = estimate_series(K, [est.depth], side)
            assert (est.side, est.depth, est.cylinder_count) == (
                single.side, single.depth, single.cylinder_count
            )
            assert (est.s_hat, est.sum_at_root, est.bracket) == (
                single.s_hat, single.sum_at_root, single.bracket
            )

    def test_budget_scale(self):
        assert 0.5 < estimate_series(K12, [20], Side.DOMAIN)[0].s_hat < 0.55
        (image,) = estimate_series(NINE, [6], Side.IMAGE)
        assert abs(image.s_hat - float(moran_root(NINE).s)) <= 1e-8

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
        ],
    )
    def test_outside_float64_is_a_tolerance_failure(self, capsys, digits, side):
        argv = ["empirical", "--digits", digits, "--side", side.value, "--depths", "1..3"]
        assert main(argv) == EXIT_TOLERANCE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSolverPasses:
    """What ``_solve_covering`` pays per root, and what it returns."""

    LAYERS = {
        "nine-depth-3": lambda: deepest_layer(NINE, 3),
        "image-1e10": lambda: np.array((10**10, 2 * 10**10), float) * -math.log(2.0),
    }

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_no_pass_at_zero_and_one_pass_sums(self, monkeypatch, layer):
        logs = self.LAYERS[layer]()
        original = logs.tolist()
        exp_inputs, evaluations, closures = [], [], []
        real_exp = np.exp

        def exp(x, *args, **kwargs):
            exp_inputs.append(bool(np.any(x)))  # s * (logs - top) is all zeros only at s = 0
            return real_exp(x, *args, **kwargs)

        def recording(h, h_prime, lo, hi, **kwargs):
            closures.append((h, h_prime))

            def counted(s):
                evaluations.append(s)
                return h(s)

            return bisect_newton(counted, h_prime, lo, hi, **kwargs)

        monkeypatch.setattr(np, "exp", exp)
        monkeypatch.setattr(empirical_dim, "bisect_newton", recording)
        root, *_ = empirical_dim._solve_covering(logs, math.log1p(1e-10))
        # g is never evaluated at the bracket's ends; every point costs one exp pass, g' none
        assert evaluations and 0.0 not in evaluations and 1.0 not in evaluations
        assert len(exp_inputs) == len(evaluations) and all(exp_inputs)

        (h, h_prime), = closures
        assert h(0.0) == pytest.approx(math.log(len(original)), rel=1e-15)
        for s in (root / 4, root / 2, 2 * root, 1.0):
            top = max(s * x for x in original)
            weights = [math.exp(s * x - top) for x in original]
            total = math.fsum(weights)
            g = top + math.log(total)
            g_prime = math.fsum(w * x for w, x in zip(weights, original)) / total
            assert type(h(s)) is float and type(h_prime(s)) is float
            assert h(s) == pytest.approx(g, rel=1e-12)
            assert h_prime(s) == pytest.approx(g_prime, rel=1e-12)
        assert h(1.0) < 0  # the bracket's sign at s = 1, which the solve never checks

    @pytest.mark.parametrize("digits, depth", [((1, 5), 15), (tuple(range(1, 10)), 5)])
    def test_three_passes_per_depth_from_depth_three(self, monkeypatch, digits, depth):
        # each depth's Newton starts at the root one depth up
        passes, real_exp = [], np.exp
        real_solve = empirical_dim._solve_covering

        def exp(x, *args, **kwargs):
            passes[-1] += 1
            return real_exp(x, *args, **kwargs)

        def solve(*args, **kwargs):
            passes.append(0)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(np, "exp", exp)
        monkeypatch.setattr(empirical_dim, "_solve_covering", solve)
        series = estimate_series(DigitSet(digits), range(1, depth + 1), Side.DOMAIN)
        assert [est.depth for est in series] == list(range(1, depth + 1))
        assert len(passes) == depth and max(passes[2:]) <= 3

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("digits", [(1, 2), (1, 3, 5), (10**10, 2 * 10**10)])
    def test_estimate_fields_are_python_floats(self, side, digits):
        # report._JSON_SCALARS matches exact types: no np.float64 may leak
        for est in estimate_series(DigitSet(digits), (1, 2, 3), side):
            assert type(est.s_hat) is float and type(est.sum_at_root) is float
            assert [type(end) for end in est.bracket] == [float, float]
