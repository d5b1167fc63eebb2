"""Minkowski function evaluation.

The oracles are the defining series summed directly with Fractions, its
geometric-series sum for periodic words, and the alternating-series bracket
(consecutive partial sums straddle any infinite continuation), all
independent of the integer mantissa kernel under test.
"""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minkdim import (
    ContinuedFraction,
    DyadicRational,
    alternate_form,
    cf_from_rational,
    minkowski_finite,
    minkowski_periodic,
)
from minkdim.minkowski_eval import _mantissa, _tail_hull


def oracle_series(word) -> Fraction:
    """sum (-1)^(m-1) 2^(1-(a1+...+am)), term by term in Fractions."""
    total = Fraction(0)
    acc = 0
    for i, a in enumerate(word):
        acc += a
        term = Fraction(2, 2**acc)
        total += -term if i % 2 else term
    return total


def oracle_periodic(pre, period) -> Fraction:
    """H + (-1)^m 2^-A * C / (1 - 2^-B), an odd period doubled first."""
    block = period if len(period) % 2 == 0 else period * 2
    tail = oracle_series(block) / (1 - Fraction(1, 2 ** sum(block)))
    return oracle_series(pre) + (-1) ** len(pre) * tail / 2 ** sum(pre)


def enclosure(word) -> tuple[Fraction, Fraction]:
    """The tail hull with tails in [0, 1]: ?(x) for every x starting with word."""
    hull = _tail_hull(tuple(word), Fraction(0), Fraction(1))
    return hull.lo, hull.hi


def unrolled(cf: ContinuedFraction, n: int) -> tuple[int, ...]:
    """The first n digits of an eventually periodic expansion."""
    return (cf.preperiod + cf.period * n)[:n]


def euclid_digits(p: int, q: int) -> tuple[int, ...]:
    """The partial quotients of p/q, by the textbook Euclidean algorithm."""
    digits = []
    while p:
        digits.append(q // p)
        p, q = q % p, p
    return tuple(digits)


@st.composite
def unit_rationals(draw):
    """(p, q) with 0 < p <= q <= 10^40: q of 1 to 40 digits, p uniform, p = q one time in ten."""
    rng = draw(st.randoms(use_true_random=False))
    q = rng.randint(1, 10 ** draw(st.integers(1, 40)))
    p = q if draw(st.integers(0, 9)) == 0 else rng.randint(1, q)
    return p, q


prop = settings(database=None, deadline=None, max_examples=200)


class TestDyadicRational:
    def test_normalization(self):
        assert DyadicRational(4, 2**4) == DyadicRational(1, 2**2)
        assert DyadicRational(6, 2**3) == DyadicRational(3, 2**2)
        zero = DyadicRational(0, 2**9)
        assert (zero.mantissa, zero.exponent) == (0, 0)
        assert DyadicRational(-4, 2**3) == DyadicRational(-1, 2**1)
        assert DyadicRational(12, 2**0).mantissa == 12  # integer stays put
        # Fraction's own arguments: numerator and denominator
        three_quarters = DyadicRational(3, 4)
        assert three_quarters == Fraction(3, 4)
        assert (three_quarters.mantissa, three_quarters.exponent) == (3, 2)

    def test_rejects_non_dyadic(self):
        for args in [(1, 3), (2, 6), ("1/10",)]:
            with pytest.raises(ValueError):
                DyadicRational(*args)

    def test_arithmetic_and_order(self):
        half = DyadicRational(1, 2**1)
        quarter = DyadicRational(1, 2**2)
        assert DyadicRational(-1, 2**2) < quarter < half
        assert half.as_fraction() == Fraction(1, 2)
        assert float(quarter) == 0.25
        assert str(DyadicRational(3, 2**2)) == "3/4"

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
        """Fraction's own copy, pickle and repr rebuild cls(numerator, denominator)."""
        x = DyadicRational(mantissa, 2**exponent)
        y = clone(x)
        assert y == x and type(y) is DyadicRational
        assert (y.mantissa, y.exponent) == (x.mantissa, x.exponent)

    @pytest.mark.parametrize(
        "dyadic, other",
        [
            (DyadicRational(1, 2**1), Fraction(1, 2)),
            (DyadicRational(1, 2**1), Fraction(1, 3)),
            (DyadicRational(1, 2**1), Fraction(2, 3)),
            (DyadicRational(-3, 2**2), Fraction(-3, 4)),
            (DyadicRational(4, 2**0), 4),
            (DyadicRational(1, 2**1), 0),
            (DyadicRational(3, 2**1), 1),
            (DyadicRational(0, 2**5), 0),
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

    @prop
    @given(st.lists(st.integers(1, 10**4), min_size=1, max_size=60).map(tuple))
    def test_series_and_reduced_form(self, word):
        """Horner's last step leaves M = 2 mod 4, so M / 2^A reduces by one 2."""
        value = minkowski_finite(ContinuedFraction(word))
        assert type(value) is DyadicRational
        assert value.as_fraction() == oracle_series(word)
        assert value.mantissa % 2 == 1
        assert value.exponent == sum(word) - 1

    @prop
    @given(unit_rationals())
    @example((1, 1))
    @example((10**40, 10**40))
    @example((2, 4))  # not coprime
    @example(  # F_192 / F_193: the longest word with q < 10^40, 190 ones and a 2
        (5972304273877744135569338397692020533504, 9663391306290450775010025392525829059713)
    )
    def test_built_in_lowest_terms(self, pq):
        """cf_from_rational and minkowski_finite skip their constructors' checks
        and gcd; what they build must equal what those constructors build."""
        p, q = pq
        word = euclid_digits(p, q)
        assume(sum(word) <= 10**6)
        cf = cf_from_rational(p, q)
        checked = ContinuedFraction(word)
        assert (cf.preperiod, cf.period) == (checked.preperiod, checked.period) == (word, ())
        assert all(type(d) is int for d in cf.preperiod)
        assert cf == checked and hash(cf) == hash(checked)
        value = minkowski_finite(cf)
        ref = DyadicRational(_mantissa(word), 1 << sum(word))
        assert type(value) is DyadicRational
        assert (value.numerator, value.denominator) == (ref.numerator, ref.denominator)
        assert hash(value) == hash(ref) and value == ref
        assert gcd(value.numerator, value.denominator) == 1

    def test_range(self):
        rng = random.Random(43)
        for _ in range(200):
            word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 7)))
            v = minkowski_finite(ContinuedFraction(word)).as_fraction()
            assert 0 < v <= 1

    def test_periodic_rejected(self):
        with pytest.raises(ValueError):
            minkowski_finite(ContinuedFraction((), (2,)))

    def test_large_digit_sum_is_exact(self):
        # the library has no digit-sum ceiling; only the CLI refuses large inputs
        assert minkowski_finite(ContinuedFraction((20000,))) == DyadicRational(1, 2**19999)
        assert minkowski_periodic(ContinuedFraction((), (20000,))) == Fraction(2, 2**20000 + 1)

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
        lo, hi = enclosure((1,))
        assert lo <= Fraction(2, 3) <= hi

    def test_prefix_two_within_half(self):
        lo, hi = enclosure((2,))
        assert lo > 0
        assert hi <= Fraction(1, 2)

    def test_prefix_one_two_contains_sup(self):
        lo, hi = enclosure((1, 2))
        assert lo <= Fraction(6, 7) <= hi

    def test_width_bound(self):
        rng = random.Random(3)
        for _ in range(200):
            word = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 6)))
            lo, hi = enclosure(word)
            assert hi - lo <= Fraction(2, 2 ** sum(word))

    def test_soundness_for_finite_extensions(self):
        rng = random.Random(8)
        for _ in range(300):
            word = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 5)))
            ext = word + tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
            lo, hi = enclosure(word)
            assert lo <= minkowski_finite(ContinuedFraction(ext)).as_fraction() <= hi

    def test_soundness_for_periodic_continuations(self):
        rng = random.Random(9)
        for _ in range(100):
            word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            period = (rng.randint(1, 5), rng.randint(6, 9))
            value = minkowski_periodic(ContinuedFraction(word, period))
            lo, hi = enclosure(word)
            assert lo <= value <= hi

    def test_shrinking_nested(self):
        word = ()
        prev = None
        for digit in (2, 1, 3, 1, 1, 4):
            word = word + (digit,)
            lo, hi = enclosure(word)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = lo, hi


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

    @prop
    @given(
        st.lists(st.integers(1, 10**3), max_size=8).map(tuple),
        st.lists(st.integers(1, 10**3), min_size=1, max_size=7).map(tuple),
    )
    @example((), (7,))  # empty preperiod, odd period
    @example((), (1, 2))  # empty preperiod, even period
    @example((3,), (5,))  # odd preperiod, odd period
    @example((3,), (1, 4))  # odd preperiod, even period
    @example((1, 2), (2, 1, 6))  # even preperiod, odd period
    @example((4, 4), (9, 3))  # even preperiod, even period
    def test_matches_geometric_series(self, pre, period):
        cf = ContinuedFraction(pre, period)
        value = minkowski_periodic(cf)
        assert type(value) is Fraction
        assert value == oracle_periodic(cf.preperiod, cf.period)

    @prop
    @given(
        st.lists(st.integers(1, 200), max_size=8).map(tuple),
        st.lists(st.integers(1, 200), min_size=1, max_size=7).map(tuple),
    )
    @example((), (1, 2))  # empty preperiod, the shape of every image extreme
    @example((), (2, 4))  # d = 63 shares 3 with M_P = 30
    @example((1, 3), (3, 6))  # d = 511 shares 7 with M_P = 126
    @example((2,), (2,))  # N = 8 has more twos than 2^A = 4: an odd denominator
    def test_reduced_form_skips_the_full_gcd(self, pre, period):
        """Reduced by gcd(M_P, d) and a shift: the same fraction as Fraction(N, d 2^A)."""
        cf = ContinuedFraction(pre, period)
        pre, period = cf.preperiod, cf.period
        d = (1 << sum(period)) + (1 if len(period) % 2 else -1)
        n = _mantissa(pre) * d + (-1) ** len(pre) * _mantissa(period)
        ref = Fraction(n, d << sum(pre))
        value = minkowski_periodic(cf)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (ref.numerator, ref.denominator)
        assert hash(value) == hash(ref)
        assert gcd(value.numerator, value.denominator) == 1

    def test_partial_sums_bracket_value(self):
        rng = random.Random(21)
        for _ in range(100):
            pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            period = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            cf = ContinuedFraction(pre, period)
            value = minkowski_periodic(cf)
            for n in range(max(1, len(pre)), 20):
                s_n = oracle_series(unrolled(cf, n))
                s_n1 = oracle_series(unrolled(cf, n + 1))
                lo, hi = min(s_n, s_n1), max(s_n, s_n1)
                assert lo < value < hi

    def test_truncations_converge_within_enclosures(self):
        cf = ContinuedFraction((2, 3), (1, 4))
        value = minkowski_periodic(cf)
        for n in range(2, 21):
            lo, hi = enclosure(unrolled(cf, n))
            assert lo <= value <= hi

    def test_monotone_across_periodic_and_rational(self):
        # [0; (1,2)...] = sqrt(3)-1 ~ 0.732 maps to 6/7; 9/10 maps to 511/512
        img_periodic = minkowski_periodic(ContinuedFraction((), (1, 2)))
        img_rational = minkowski_finite(cf_from_rational(9, 10)).as_fraction()
        assert img_periodic == Fraction(6, 7)
        assert img_rational == Fraction(511, 512)
        assert img_periodic < img_rational
