"""Minkowski function evaluation.

The oracle is the defining series summed directly with Fractions, plus the
alternating-series bracket (consecutive partial sums straddle any infinite
continuation), both independent of the dyadic fast path under test.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from minkdim import (
    ContinuedFraction,
    DyadicRational,
    alternate_form,
    cf_from_rational,
    minkowski_enclosure,
    minkowski_finite,
    minkowski_periodic,
)


def oracle_series(word) -> Fraction:
    """sum (-1)^(m-1) 2^(1-(a1+...+am)), term by term in Fractions."""
    total = Fraction(0)
    acc = 0
    for i, a in enumerate(word):
        acc += a
        term = Fraction(2, 2**acc)
        total += -term if i % 2 else term
    return total


class TestDyadicRational:
    def test_normalization(self):
        assert DyadicRational(4, 4) == DyadicRational(1, 2)
        assert DyadicRational(6, 3) == DyadicRational(3, 2)
        zero = DyadicRational(0, 9)
        assert (zero.mantissa, zero.exponent) == (0, 0)
        assert DyadicRational(-4, 3) == DyadicRational(-1, 1)
        assert DyadicRational(12, 0).mantissa == 12  # integer stays put

    def test_exponent_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DyadicRational(1, -1)

    def test_arithmetic_and_order(self):
        half = DyadicRational(1, 1)
        quarter = DyadicRational(1, 2)
        assert DyadicRational(-1, 2) < quarter < half
        assert half.as_fraction() == Fraction(1, 2)
        assert float(quarter) == 0.25
        assert str(DyadicRational(3, 2)) == "3/4"

    def test_is_a_fraction(self):
        value = minkowski_finite(ContinuedFraction((1, 2)))
        assert isinstance(value, Fraction)
        assert (value.mantissa, value.exponent) == (3, 2)
        assert type(value.as_fraction()) is Fraction

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda x: pickle.loads(pickle.dumps(x)),
            lambda x: eval(repr(x)),
        ],
        ids=["copy", "deepcopy", "pickle", "repr"],
    )
    @pytest.mark.parametrize("mantissa, exponent", [(3, 2), (-5, 7), (0, 0), (12, 0)])
    def test_clones_keep_value_and_type(self, clone, mantissa, exponent):
        """Fraction's own versions would rebuild 3/4 as DyadicRational(3, 4)."""
        x = DyadicRational(mantissa, exponent)
        y = clone(x)
        assert y == x and type(y) is DyadicRational
        assert (y.mantissa, y.exponent) == (x.mantissa, x.exponent)

    @pytest.mark.parametrize(
        "dyadic, other",
        [
            (DyadicRational(1, 1), Fraction(1, 2)),
            (DyadicRational(1, 1), Fraction(1, 3)),
            (DyadicRational(1, 1), Fraction(2, 3)),
            (DyadicRational(-3, 2), Fraction(-3, 4)),
            (DyadicRational(4, 0), 4),
            (DyadicRational(1, 1), 0),
            (DyadicRational(3, 1), 1),
            (DyadicRational(0, 5), 0),
        ],
    )
    def test_mixes_with_fraction_and_int(self, dyadic, other):
        """Comparisons and hashes agree with the equal Fraction, in both orders."""
        value = dyadic.as_fraction()
        assert (dyadic == other) is (value == other) is (other == dyadic)
        assert (dyadic != other) is (value != other) is (other != dyadic)
        assert (hash(dyadic) == hash(other)) is (value == other)
        assert (dyadic < other) is (value < other) is (other > dyadic)
        assert (dyadic <= other) is (value <= other) is (other >= dyadic)
        assert (dyadic > other) is (value > other) is (other < dyadic)
        assert (dyadic >= other) is (value >= other) is (other <= dyadic)


class TestFinite:
    def test_examples(self):
        assert minkowski_finite(ContinuedFraction((2,))).as_fraction() == Fraction(1, 2)
        assert minkowski_finite(ContinuedFraction((1,))).as_fraction() == Fraction(1)
        assert minkowski_finite(ContinuedFraction((1, 2))).as_fraction() == Fraction(3, 4)

    def test_matches_series_oracle(self):
        rng = random.Random(42)
        for _ in range(300):
            word = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 8)))
            got = minkowski_finite(ContinuedFraction(word)).as_fraction()
            assert got == oracle_series(word)

    def test_range(self):
        rng = random.Random(43)
        for _ in range(200):
            word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 7)))
            v = minkowski_finite(ContinuedFraction(word)).as_fraction()
            assert 0 < v <= 1

    def test_periodic_rejected(self):
        with pytest.raises(ValueError):
            minkowski_finite(ContinuedFraction((), (2,)))

    def test_well_definedness_exhaustive(self):
        # both expansions of every rational with q <= 100 give the same value
        for q in range(2, 101):
            for p in range(1, q):
                cf = cf_from_rational(p, q)
                assert minkowski_finite(cf) == minkowski_finite(alternate_form(cf))

    def test_folding_example(self):
        assert minkowski_finite(ContinuedFraction((1, 1))) == minkowski_finite(
            ContinuedFraction((2,))
        )

    def test_monotone_on_sorted_rationals(self):
        values = sorted({Fraction(p, q) for q in range(1, 61) for p in range(1, q + 1)})
        images = [
            minkowski_finite(cf_from_rational(v.numerator, v.denominator))
            for v in values
        ]
        assert all(a < b for a, b in zip(images, images[1:]))


class TestEnclosure:
    def test_prefix_one_contains_golden_value(self):
        enc = minkowski_enclosure((1,))
        assert enc.contains(Fraction(2, 3))

    def test_prefix_two_within_half(self):
        enc = minkowski_enclosure((2,))
        assert enc.lo > 0
        assert enc.hi <= Fraction(1, 2)

    def test_prefix_one_two_contains_sup(self):
        assert minkowski_enclosure((1, 2)).contains(Fraction(6, 7))

    def test_width_bound(self):
        rng = random.Random(3)
        for _ in range(200):
            word = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 6)))
            enc = minkowski_enclosure(word)
            assert enc.length <= Fraction(2, 2 ** sum(word))

    def test_soundness_for_finite_extensions(self):
        rng = random.Random(8)
        for _ in range(300):
            word = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 5)))
            ext = word + tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
            enc = minkowski_enclosure(word)
            assert enc.contains(minkowski_finite(ContinuedFraction(ext)).as_fraction())

    def test_soundness_for_periodic_continuations(self):
        rng = random.Random(9)
        for _ in range(100):
            word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            period = (rng.randint(1, 5), rng.randint(6, 9))
            value = minkowski_periodic(ContinuedFraction(word, period))
            assert minkowski_enclosure(word).contains(value)

    def test_shrinking_nested(self):
        word = ()
        prev = None
        for digit in (2, 1, 3, 1, 1, 4):
            word = word + (digit,)
            enc = minkowski_enclosure(word)
            if prev is not None:
                assert prev.contains_interval(enc)
            prev = enc

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            minkowski_enclosure(())


class TestPeriodic:
    def test_examples(self):
        assert minkowski_periodic(ContinuedFraction((), (1, 2))) == Fraction(6, 7)
        assert minkowski_periodic(ContinuedFraction((), (2, 1))) == Fraction(2, 7)
        assert minkowski_periodic(ContinuedFraction((), (1,))) == Fraction(2, 3)

    def test_odd_period_doubling(self):
        assert minkowski_periodic(ContinuedFraction((), (3,))) == Fraction(2, 9)

    def test_preperiod(self):
        # head 1/2, then the (1,2)-tail scaled by -1/4: 1/2 - (1/4)(6/7) = 2/7,
        # consistent with the same digit string written purely periodically
        assert minkowski_periodic(ContinuedFraction((2,), (1, 2))) == Fraction(2, 7)

    def test_finite_rejected(self):
        with pytest.raises(ValueError):
            minkowski_periodic(ContinuedFraction((2, 3)))

    def test_partial_sums_bracket_value(self):
        def primitive(word):
            n = len(word)
            for d in range(1, n + 1):
                if n % d == 0 and word == word[:d] * (n // d):
                    return word[:d]

        rng = random.Random(21)
        for _ in range(100):
            pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            period = primitive(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            cf = ContinuedFraction(pre, period)
            value = minkowski_periodic(cf)
            for n in range(max(1, len(pre)), 20):
                s_n = oracle_series(cf.digits(n))
                s_n1 = oracle_series(cf.digits(n + 1))
                lo, hi = min(s_n, s_n1), max(s_n, s_n1)
                assert lo < value < hi

    def test_truncations_converge_within_enclosures(self):
        cf = ContinuedFraction((2, 3), (1, 4))
        value = minkowski_periodic(cf)
        for n in range(2, 21):
            assert minkowski_enclosure(cf.digits(n)).contains(value)

    def test_monotone_across_periodic_and_rational(self):
        # [0; (1,2)...] = sqrt(3)-1 ~ 0.732 maps to 6/7; 9/10 maps to 511/512
        img_periodic = minkowski_periodic(ContinuedFraction((), (1, 2)))
        img_rational = minkowski_finite(cf_from_rational(9, 10)).as_fraction()
        assert img_periodic == Fraction(6, 7)
        assert img_rational == Fraction(511, 512)
        assert img_periodic < img_rational
