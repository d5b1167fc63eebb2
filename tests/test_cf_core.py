"""Exact continued-fraction arithmetic.

Oracles used here are written independently of the library code paths:
digit expansion by repeated reciprocal-floor on Fractions, and values of
finite words by the convergent recurrence run by hand in the tests.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from minkdim import (
    ContinuedFraction,
    DigitSet,
    DyadicRational,
    RationalInterval,
    alternate_form,
    canonicalize,
    cf_from_rational,
    cylinder_interval,
)
from minkdim.cf_core import _lowest_terms


def oracle_expand(p: int, q: int) -> tuple[int, ...]:
    """Expansion by repeated reciprocal-floor, all exact."""
    x = Fraction(p, q)
    digits = []
    while x:
        inv = 1 / x
        a = inv.numerator // inv.denominator
        digits.append(a)
        x = inv - a
    return tuple(digits)


def oracle_convergent(word) -> tuple[int, int, int, int]:
    """(p_{n-1}, q_{n-1}, p_n, q_n) by the textbook recurrence."""
    pm1, qm1, p, q = 1, 0, 0, 1
    for a in word:
        pm1, qm1, p, q = p, q, a * p + pm1, a * q + qm1
    return pm1, qm1, p, q


def oracle_value(cf: ContinuedFraction) -> Fraction:
    """p_n/q_n, the value of a finite word, by the textbook recurrence."""
    _, _, p, q = oracle_convergent(cf.preperiod)
    return Fraction(p, q)


class TestLowestTerms:
    def test_matches_fraction_on_coprime_pairs(self):
        rng = random.Random(2028)
        for _ in range(500):
            n = rng.randint(-(10**40), 10**40)
            d = rng.randint(1, 10 ** rng.randint(1, 40))
            g = gcd(n, d)
            n, d = n // g, d // g
            got, ref = _lowest_terms(Fraction, n, d), Fraction(n, d)
            assert type(got) is Fraction and got == ref and hash(got) == hash(ref)
            assert (got.numerator, got.denominator) == (n, d)

    def test_subclass_keeps_its_type(self):
        rng = random.Random(2029)
        for _ in range(200):
            e = rng.randint(0, 300)
            n = rng.randrange(-(1 << 200), 1 << 200) | (1 if e else 0)
            got, ref = _lowest_terms(DyadicRational, n, 1 << e), DyadicRational(n, 1 << e)
            assert type(got) is DyadicRational and got == ref and hash(got) == hash(ref)
            assert (got.mantissa, got.exponent) == (ref.mantissa, ref.exponent)


class TestTypes:
    def test_digit_validation(self):
        with pytest.raises(ValueError):
            ContinuedFraction((0,))
        with pytest.raises(ValueError):
            ContinuedFraction((2, -1))
        with pytest.raises(ValueError):
            ContinuedFraction(())

    @pytest.mark.parametrize(
        "build, digits, bad",
        [
            (ContinuedFraction, (2, 0, -1), 0),
            (ContinuedFraction, (-4, 3, 0), -4),
            (lambda d: ContinuedFraction((1,), d), (3, 1, 0), 0),
            (DigitSet, (5, -3, 0), -3),
            (DigitSet, (2, 7, 0, -9), 0),
        ],
        ids=["cf", "cf-leading", "cf-period", "digit-set", "digit-set-zero-first"],
    )
    def test_digit_message_names_first_bad_digit(self, build, digits, bad):
        with pytest.raises(ValueError, match=rf"^partial quotients must be >= 1, got {bad}$"):
            build(digits)

    def test_digits_coerced_with_int(self):
        assert ContinuedFraction((True, 2.9, "3")).preperiod == (1, 2, 3)
        assert DigitSet([Fraction(4), 1.5]).digits == (1, 4)
        assert all(type(d) is int for d in DigitSet((True, 2.0)).digits)
        with pytest.raises(ValueError):
            ContinuedFraction(("x",))
        with pytest.raises(ValueError):  # int(0.5) is 0
            DigitSet((2, 0.5))

    def test_period_must_be_primitive(self):
        # a power of a shorter word is stored as that word
        assert ContinuedFraction((), (1, 1)).period == (1,)
        assert ContinuedFraction((2,), (1, 2, 1, 2)) == ContinuedFraction((2,), (1, 2))
        assert ContinuedFraction((), (1, 2)).period == (1, 2)  # primitive is kept

    def test_empty_preperiod_needs_period(self):
        cf = ContinuedFraction((), (3,))
        assert not cf.is_finite
        assert (cf.preperiod, cf.period) == ((), (3,))

    def test_str_forms(self):
        assert str(ContinuedFraction((2, 3))) == "[0; 2, 3]"
        assert str(ContinuedFraction((2,), (1, 4))) == "[0; 2, (1, 4)...]"

    def test_digit_set_validation(self):
        with pytest.raises(ValueError):
            DigitSet((3,))  # S >= 2 required
        with pytest.raises(ValueError):
            DigitSet((1, 1))  # duplicates
        with pytest.raises(ValueError):
            DigitSet([4, 9, 4])
        assert DigitSet((2, 1)) == DigitSet((1, 2))  # stored sorted
        K = DigitSet((9, 1, 4))
        assert K.digits == (1, 4, 9)
        assert len(K) == 3
        assert 4 in K and 5 not in K

    def test_rational_interval(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(1, 2), Fraction(1, 2))
        iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
        assert (iv.lo, iv.hi, iv.length) == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))


class TestFromRational:
    def test_examples(self):
        assert cf_from_rational(1, 2).preperiod == (2,)
        assert cf_from_rational(1, 1).preperiod == (1,)
        assert cf_from_rational(3, 7).preperiod == (2, 3)

    def test_rejects_outside_unit_interval(self):
        for p, q in [(0, 1), (3, 2), (-1, 2), (1, 0), (1, -2), (2, 1)]:
            with pytest.raises(ValueError):
                cf_from_rational(p, q)

    def test_matches_oracle_small(self):
        for q in range(1, 80):
            for p in range(1, q + 1):
                assert cf_from_rational(p, q).preperiod == oracle_expand(p, q)

    def test_canonical_form(self):
        for q in range(1, 60):
            for p in range(1, q + 1):
                cf = cf_from_rational(p, q)
                assert cf.is_canonical

    def test_unreduced_input(self):
        assert cf_from_rational(2, 4).preperiod == (2,)


class TestValueAndRoundTrip:
    def test_examples(self):
        # a finite word's value is the p_n/q_n end of its cylinder
        for word, (p, q) in [((2,), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (3, 7))]:
            iv = cylinder_interval(word)
            assert oracle_value(ContinuedFraction(word)) == Fraction(p, q) in (iv.lo, iv.hi)

    def test_round_trip_exhaustive_small(self):
        for q in range(1, 121):
            for p in range(1, q + 1):
                assert oracle_value(cf_from_rational(p, q)) == Fraction(p, q)

    def test_round_trip_random_large(self):
        rng = random.Random(20110409)
        for _ in range(500):
            q = rng.randint(2, 10**4)
            p = rng.randint(1, q)
            assert oracle_value(cf_from_rational(p, q)) == Fraction(p, q)


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(ContinuedFraction((1, 1))).preperiod == (2,)
        assert canonicalize(ContinuedFraction((2,))).preperiod == (2,)
        assert canonicalize(ContinuedFraction((2, 1))).preperiod == (3,)
        assert alternate_form(ContinuedFraction((2, 1))).preperiod == (3,)
        periodic = ContinuedFraction((2, 1), (1,))
        assert periodic.is_canonical
        with pytest.raises(ValueError):
            canonicalize(periodic)
        with pytest.raises(ValueError):
            alternate_form(periodic)

    def test_value_preserved(self):
        rng = random.Random(7)
        for _ in range(200):
            word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 6)))
            cf = ContinuedFraction(word)
            assert oracle_value(canonicalize(cf)) == oracle_value(cf)
            assert canonicalize(cf).is_canonical

    def test_alternate_form_round_trip(self):
        for q in range(2, 80):
            for p in range(1, q):
                cf = cf_from_rational(p, q)
                alt = alternate_form(cf)
                assert alt.preperiod != cf.preperiod
                assert oracle_value(alt) == oracle_value(cf)
                assert canonicalize(alt) == cf

    def test_one_has_single_expansion(self):
        with pytest.raises(ValueError):
            alternate_form(ContinuedFraction((1,)))


class TestConvergents:
    """p_n/q_n, the n-th convergent, is an end of the depth-n cylinder."""

    def test_examples(self):
        for word, pairs in [
            ((2, 3), [(1, 2), (3, 7)]),
            ((1,), [(1, 1)]),
            ((1, 1, 1, 1), [(1, 1), (1, 2), (2, 3), (3, 5)]),  # the golden ratio's
        ]:
            for n, (p, q) in enumerate(pairs, 1):
                iv = cylinder_interval(word[:n])
                assert Fraction(p, q) in (iv.lo, iv.hi)

    def test_denominators_increase_and_reduced(self):
        # length 1/(q_n (q_n + q_{n-1})): numerator 1 as p_n q_{n-1} - p_{n-1} q_n = +-1
        word = (3,) + (1, 5, 2) * 4
        lengths = [cylinder_interval(word[:n]).length for n in range(1, 13)]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert all(length.numerator == 1 for length in lengths)

    def test_last_convergent_is_value(self):
        rng = random.Random(11)
        for _ in range(100):
            q = rng.randint(2, 500)
            p = rng.randint(1, q)
            iv = cylinder_interval(cf_from_rational(p, q).preperiod)
            assert Fraction(p, q) in (iv.lo, iv.hi)


class TestCylinders:
    def test_examples(self):
        iv = cylinder_interval((2,))
        assert (iv.lo, iv.hi) == (Fraction(1, 3), Fraction(1, 2))
        assert iv.length == Fraction(1, 6)
        iv = cylinder_interval((1,))
        assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(1, 1))
        assert iv.length == Fraction(1, 2)
        iv = cylinder_interval((1, 1))
        assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(2, 3))
        assert iv.length == Fraction(1, 6)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            cylinder_interval(())

    def test_length_law_sampled(self):
        rng = random.Random(99)
        for _ in range(150):
            depth = rng.randint(1, 8)
            word = tuple(rng.randint(1, 9) for _ in range(depth))
            _, qm1, _, q = oracle_convergent(word)
            assert cylinder_interval(word).length == Fraction(1, q * (q + qm1))

    def test_members_start_with_prefix(self):
        rng = random.Random(5)
        for _ in range(100):
            word = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            ext = word + tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            iv = cylinder_interval(word)
            assert iv.lo <= oracle_value(ContinuedFraction(ext)) <= iv.hi

    def test_nesting(self):
        rng = random.Random(13)
        for _ in range(100):
            word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
            parent = cylinder_interval(word)
            child = cylinder_interval(word + (rng.randint(1, 9),))
            assert parent.lo <= child.lo and child.hi <= parent.hi


def depth_cylinders(K: DigitSet, depth: int) -> list:
    """(word, cylinder) for every depth-n word over K, lexicographic."""
    return [(w, cylinder_interval(w)) for w in product(K.digits, repeat=depth)]


class TestEnumeration:
    def test_counts(self):
        assert len(depth_cylinders(DigitSet((1, 2)), 1)) == 2
        assert len(depth_cylinders(DigitSet(tuple(range(1, 10))), 2)) == 81

    def test_lexicographic_order_and_agreement(self):
        # the endpoints are the values of the word and of the word with its
        # last digit raised by one: p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1})
        items = depth_cylinders(DigitSet((1, 3, 4)), 2)
        words = [w for w, _ in items]
        assert words == sorted(words)
        for word, interval in items:
            raised = word[:-1] + (word[-1] + 1,)
            ends = {oracle_value(ContinuedFraction(word)), oracle_value(ContinuedFraction(raised))}
            assert {interval.lo, interval.hi} == ends

    def test_sibling_interiors_disjoint(self):
        intervals = [iv for _, iv in depth_cylinders(DigitSet((1, 2, 3)), 3)]
        for i, a in enumerate(intervals):
            for b in intervals[i + 1 :]:
                assert a.hi <= b.lo or b.hi <= a.lo

    def test_nested_in_parent(self):
        K = DigitSet((1, 2, 5))
        parents = dict(depth_cylinders(K, 2))
        for word, child in depth_cylinders(K, 3):
            parent = parents[word[:2]]
            assert parent.lo <= child.lo and child.hi <= parent.hi

    def test_depth2_total_length(self):
        # four exact lengths: 1/6 + 1/12 + 1/15 + 1/35 = 29/84
        total = sum(iv.length for _, iv in depth_cylinders(DigitSet((1, 2)), 2))
        assert total == Fraction(29, 84)
        assert total < 1
