"""Dimension bounds and the preservation verdict.

The printed reference endpoints for n = 9 are 0.6308969 and 0.985445112
(both reproduced within 1e-7 by the base-10 formulas); the image dimension
0.9985778625536 clears the upper bound by about 0.0131.
"""

import math

import pytest
from mpmath import mp, mpf

from minkdim import (
    BoundsInterval,
    DigitSet,
    Preservation,
    jarnik_bounds,
    moran_root,
    preservation_verdict,
)


class TestBounds:
    def test_reference_endpoints_n9(self):
        b = jarnik_bounds(9)
        assert abs(b.lower - 0.6308969) <= 1e-7
        assert abs(b.upper - 0.985445112) <= 1e-7

    def test_formula_n10(self):
        b = jarnik_bounds(10)
        assert abs(b.lower - (1 - 1 / (10 * math.log10(2)))) <= 1e-15
        assert abs(b.lower - 0.6678071905) <= 1e-9
        assert abs(b.upper - (1 - 1 / (80 * math.log10(10)))) <= 1e-15

    def test_small_n_rejected(self):
        for n in (8, 5, 0, -3):
            with pytest.raises(ValueError):
                jarnik_bounds(n)

    def test_n_past_float_range_rejected(self):
        # the last n whose float64 upper bound 1 - 1/(8 n lg n) is below 1
        assert jarnik_bounds(158574835522566).upper < 1.0
        for n in (158574835522567, 10**400):
            with pytest.raises(ValueError, match="n <= 158574835522566"):
                jarnik_bounds(n)

    def test_ordering_and_monotonicity(self):
        prev = None
        for n in range(9, 201):
            b = jarnik_bounds(n)
            assert 0.0 < b.lower < b.upper < 1.0
            if prev is not None:
                assert b.lower > prev.lower
                assert b.upper > prev.upper
            prev = b

    def test_interval_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoundsInterval(lower=0.7, upper=0.6, n=9)
        with pytest.raises(ValueError):
            BoundsInterval(lower=0.6, upper=0.9, n=8)


class TestVerdict:
    def test_n9_not_preserved(self):
        v = preservation_verdict(9)
        assert v.preserved is Preservation.NOT_PRESERVED
        assert v.gap >= 0.013
        assert abs(v.gap - 0.0131327464) <= 1e-6

    def test_gap_is_distance_to_nearer_endpoint(self):
        v = preservation_verdict(9)
        s = float(v.image_dimension.s)
        assert s > v.bounds.upper
        assert abs(v.gap - (s - v.bounds.upper)) <= 1e-15

    def test_wide_tolerance_is_inconclusive(self):
        v = preservation_verdict(9, tol=0.5)
        assert v.preserved is Preservation.INCONCLUSIVE
        assert v.gap > 0  # the gap itself does not change, only the call

    def test_n12_not_preserved(self):
        v = preservation_verdict(12)
        assert v.preserved is Preservation.NOT_PRESERVED
        assert float(v.image_dimension.s) > v.bounds.upper

    def test_soundness(self):
        for n in (9, 10, 15, 20):
            v = preservation_verdict(n)
            if v.preserved is Preservation.NOT_PRESERVED:
                assert v.gap > v.tol
                s = float(v.image_dimension.s)
                assert s > v.bounds.upper + v.tol or s < v.bounds.lower - v.tol

    def test_tolerance_validation(self):
        for tol in (0.0, -1e-3, 1.0, 2.5):
            with pytest.raises(ValueError):
                preservation_verdict(9, tol=tol)

    def test_small_n_propagates(self):
        with pytest.raises(ValueError):
            preservation_verdict(8)


def moran_sum(n: int, s) -> mpf:
    """sum_{k<=n} 2^(-k s) at the caller's precision."""
    return mp.fsum(mpf(2) ** (-k * mpf(s)) for k in range(1, n + 1))


class TestClosedForm:
    """preservation_verdict's Moran root of {1..n}, taken from its fixed point."""

    def test_equals_general_solver(self):
        # moran_root polishes only to |f(s) - 1| <= 2^-100 (n = 10 stops at
        # 3.8e-31) and |f'| > 1 near s = 1, so the two agree within 2^-100;
        # from n = 129 on, f(1) - 1 = -2^-n rounds to zero at 128 bits
        for n in [*range(9, 129), 129, 130, 200, 255]:
            want = moran_root(DigitSet(range(1, n + 1))).s
            got = preservation_verdict(n).image_dimension.s
            with mp.workprec(256):
                assert abs(got - want) <= mpf(2) ** -100, n

    def test_certified_at_256_bits(self):
        with mp.workprec(256):
            for n in range(9, 256):
                root = preservation_verdict(n).image_dimension
                lo, hi = root.bracket
                assert moran_sum(n, lo) > 1 > moran_sum(n, hi), n
                assert lo <= root.s <= hi, n
                assert abs(moran_sum(n, root.s) - 1) <= mpf(2) ** -120, n
                assert root.residual <= mpf(2) ** -120, n

    def test_large_n_gap_in_extended_precision(self):
        # s rounds to 1 long before n = 10^13, so the gap comes from 1 - s
        v = preservation_verdict(10**13, tol=1e-17)
        assert v.preserved is Preservation.NOT_PRESERVED
        want = 1 / (8e13 * 13)
        assert abs(v.gap - want) <= 1e-15 * want
