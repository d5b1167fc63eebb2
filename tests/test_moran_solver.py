"""Moran-equation solver.

Closed-form oracles: x = 2^-s substitution turns the {1,2} equation into
x + x^2 = 1, so the root is log2 of the golden ratio; scaled digit sets
divide the root exactly.  The headline digit set {1..9} is pinned to
0.9985778625536 at 1e-10.
"""

import random

import pytest
from mpmath import mp, mpf

from minkdim import (
    DigitSet,
    ToleranceError,
    bisect_newton,
    moran_function,
    moran_root,
)

NINE = DigitSet(tuple(range(1, 10)))


class TestMoranFunction:
    def test_at_zero_counts_digits(self):
        rng = random.Random(1)
        for _ in range(20):
            size = rng.randint(2, 6)
            K = DigitSet(tuple(sorted(rng.sample(range(1, 20), size))))
            assert moran_function(K, 0) == size

    def test_at_one_examples(self):
        assert abs(moran_function(DigitSet((1, 2)), 1) - 0.75) < 1e-30
        assert abs(moran_function(NINE, 1) - mpf(511) / 512) < 1e-30

    def test_strictly_decreasing(self):
        K = DigitSet((2, 3, 5))
        values = [moran_function(K, s / 10) for s in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            moran_function(DigitSet((1, 2)), -0.5)


class TestMoranRoot:
    def test_headline_digit_set(self):
        root = moran_root(NINE)
        assert abs(float(root.s) - 0.9985778625536) <= 1e-10

    def test_golden_ratio_closed_form(self):
        root = moran_root(DigitSet((1, 2)))
        with mp.workprec(128):
            expected = mp.log((1 + mp.sqrt(5)) / 2, 2)
            assert abs(root.s - expected) < mpf(2) ** -90

    def test_scaled_closed_form(self):
        # {2,4} = 2*{1,2}: the root halves exactly
        r12 = moran_root(DigitSet((1, 2)))
        r24 = moran_root(DigitSet((2, 4)))
        with mp.workprec(128):
            assert abs(r24.s - r12.s / 2) < mpf(2) ** -90
        assert abs(float(r24.s) - 0.34712095681) <= 1e-10

    def test_residual_and_bracket(self):
        root = moran_root(NINE, tol=1e-12)
        assert root.residual <= 1e-12
        lo, hi = root.bracket
        assert lo < root.s < hi
        assert moran_function(NINE, lo) > 1 > moran_function(NINE, hi)

    def test_root_straddled_at_tolerance(self):
        tol = 1e-12
        for digits in [(1, 2), (3, 7), (2, 4, 9)]:
            K = DigitSet(digits)
            s = moran_root(K, tol).s
            assert moran_function(K, s - tol) > 1 > moran_function(K, s + tol)

    def test_root_in_open_unit_interval(self):
        rng = random.Random(2)
        for _ in range(20):
            size = rng.randint(2, 5)
            K = DigitSet(tuple(sorted(rng.sample(range(1, 25), size))))
            s = moran_root(K).s
            assert 0 < s < 1

    def test_monotone_in_digit_set(self):
        r2 = moran_root(DigitSet((1, 2))).s
        r3 = moran_root(DigitSet((1, 2, 3))).s
        r4 = moran_root(DigitSet((1, 2, 3, 4))).s
        assert r2 < r3 < r4

    def test_deterministic(self):
        a = moran_root(NINE)
        b = moran_root(NINE)
        assert a.s == b.s and a.residual == b.residual
        assert a.iterations == b.iterations
        assert a.bracket == b.bracket

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            moran_root(DigitSet((1, 2)), tol=2.0**-51)

    def test_tolerance_ceiling(self):
        with pytest.raises(ValueError):
            moran_root(DigitSet((1, 2)), tol=1e-2)

    def test_single_digit_set_unrepresentable(self):
        with pytest.raises(ValueError):
            DigitSet((3,))


class TestBisectNewton:
    def test_linear_float(self):
        s, res, iters, bracket = bisect_newton(
            lambda s: 2.0 - 3.0 * s,
            lambda s: -3.0,
            0.0,
            1.0,
            residual_target=1e-12,
        )
        assert abs(s - 2.0 / 3.0) < 1e-12
        assert res <= 1e-12
        assert bracket[0] < s < bracket[1] or s in bracket
        assert iters >= 3

    def test_requires_bracketing(self):
        with pytest.raises(ValueError):
            bisect_newton(
                lambda s: s + 1.0,
                lambda s: 1.0,
                0.0,
                1.0,
                residual_target=1e-6,
            )

    def test_unreachable_target_raises(self):
        with pytest.raises(ToleranceError):
            bisect_newton(
                lambda s: 2.0 - 3.0 * s,
                lambda s: -3.0,
                0.0,
                1.0,
                residual_target=-1.0,  # |res| can never go negative
            )
