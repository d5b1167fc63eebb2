"""Dimension bounds and the preservation verdict.

The printed reference endpoints for n = 9 are 0.6308969 and 0.985445112
(both reproduced within 1e-7 by the base-10 formulas); the image dimension
0.9985778625536 clears the upper bound by about 0.0131.
"""

import math

import pytest

from minkdim import (
    BoundsInterval,
    Preservation,
    jarnik_bounds,
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
        with pytest.raises(ValueError, match=r"2\^53"):
            jarnik_bounds(10**400)

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
