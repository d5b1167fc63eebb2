"""Image-set geometry: extremes, tail sets, cylinders, ratio law.

Independent oracle for the extremes: every periodic completion of a depth-d
word is a point of the image set (lower bounds), while the unrestricted
series enclosure over each depth-d word upper-bounds everything the cylinder
can reach; squeezing between the two brackets the claimed sup/inf without
using any closed form from the module under test.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from minkdim import (
    BudgetExceededError,
    ContinuedFraction,
    DigitSet,
    RationalInterval,
    image_cylinder,
    image_diameter,
    image_hulls,
    image_inf,
    image_sup,
    minkowski_enclosure,
    minkowski_periodic,
    tail_set_diameter,
    tail_set_inf,
    tail_set_sup,
)


def closed_form_sup(k1: int, k2: int) -> Fraction:
    return Fraction(2 * (2**k2 - 1), 2 ** (k1 + k2) - 1)


def closed_form_inf(k1: int, k2: int) -> Fraction:
    return Fraction(2 * (2**k1 - 1), 2 ** (k1 + k2) - 1)


def random_digit_set(rng: random.Random, max_digit: int = 12, max_size: int = 5) -> DigitSet:
    size = rng.randint(2, max_size)
    return DigitSet(tuple(sorted(rng.sample(range(1, max_digit + 1), size))))


class TestImageExtremes:
    def test_examples(self):
        K = DigitSet((1, 2))
        assert image_sup(K) == Fraction(6, 7)
        assert image_inf(K) == Fraction(2, 7)
        assert image_diameter(K) == Fraction(4, 7)
        K = DigitSet((2, 3))
        assert image_sup(K) == Fraction(14, 31)
        assert image_inf(K) == Fraction(6, 31)
        assert image_diameter(K) == Fraction(8, 31)
        assert image_sup(DigitSet((1, 3))) == Fraction(14, 15)

    def test_closed_forms_for_pairs(self):
        # only the least and largest digits enter, so pairs and larger sets
        # share the closed forms
        rng = random.Random(31)
        for _ in range(50):
            k1 = rng.randint(1, 11)
            k2 = rng.randint(k1 + 1, 12)
            for K in (DigitSet((k1, k2)), random_digit_set(rng, max_digit=39, max_size=6)):
                least, largest = K.digits[0], K.digits[-1]
                assert image_sup(K) == closed_form_sup(least, largest)
                assert image_inf(K) == closed_form_inf(least, largest)
                assert image_diameter(K) == image_sup(K) - image_inf(K)

    def test_extremes_are_periodic_point_values(self):
        K = DigitSet((2, 5, 9))
        assert image_sup(K) == minkowski_periodic(ContinuedFraction((), (2, 9)))
        assert image_inf(K) == minkowski_periodic(ContinuedFraction((), (9, 2)))

    @pytest.mark.parametrize("digits", [(1, 2), (2, 5), (1, 3, 7)])
    def test_bracketing_oracle(self, digits):
        K = DigitSet(digits)
        k1, ks = K.digits[0], K.digits[-1]
        depth = 8
        attained_max = Fraction(0)
        attained_min = Fraction(1)
        outer_max = Fraction(0)
        outer_min = Fraction(1)
        for word in product(K.digits, repeat=depth):
            up = minkowski_periodic(ContinuedFraction(word, (k1, ks)))
            down = minkowski_periodic(ContinuedFraction(word, (ks, k1)))
            attained_max = max(attained_max, up, down)
            attained_min = min(attained_min, up, down)
            enc = minkowski_enclosure(word)
            outer_max = max(outer_max, enc.hi)
            outer_min = min(outer_min, enc.lo)
        assert attained_max <= image_sup(K) <= outer_max
        assert outer_min <= image_inf(K) <= attained_min
        slack = Fraction(1, 2 ** (depth - 2))
        assert outer_max - attained_max <= slack
        assert attained_min - outer_min <= slack


class TestTailSets:
    def test_rank_independent_diameter(self):
        K = DigitSet((1, 2))
        diam = tail_set_diameter(K, 0)
        for rank in range(11):
            assert tail_set_diameter(K, rank) == diam
        assert diam == Fraction(2, 7)

    def test_closed_forms(self):
        rng = random.Random(77)
        for _ in range(40):
            k1 = rng.randint(1, 9)
            k2 = rng.randint(k1 + 1, 10)
            K = DigitSet((k1, k2))
            den = 2 ** (k1 + k2) - 1
            wider = DigitSet((k1, *rng.sample(range(k1 + 1, k2), min(3, k2 - k1 - 1)), k2))
            assert tail_set_diameter(wider, 1) == Fraction(2**k2 - 2**k1, den)
            assert tail_set_sup(K, 0) == Fraction(2**k2 - 1, den)
            assert tail_set_inf(K, 0) == Fraction(2**k1 - 1, den)
            assert tail_set_sup(K, 1) == Fraction(1 - 2**k1, den)
            assert tail_set_inf(K, 1) == Fraction(1 - 2**k2, den)
            assert tail_set_diameter(K, 0) == Fraction(2**k2 - 2**k1, den)

    def test_half_image_relation(self):
        for digits in [(1, 2), (2, 3), (1, 4, 6), (3, 5, 8, 11)]:
            K = DigitSet(digits)
            assert tail_set_diameter(K, 0) == image_diameter(K) / 2
            assert tail_set_sup(K, 4) == image_sup(K) / 2
            assert tail_set_inf(K, 7) == -image_sup(K) / 2

    def test_rank_independence_beyond_pairs(self):
        # for larger sets the same rank independence is also checked against
        # the oracle-bracketed image extremes (see test_bracketing_oracle)
        for digits in [(1, 3, 7), (2, 4, 5, 9)]:
            K = DigitSet(digits)
            diameters = {tail_set_diameter(K, rank) for rank in range(11)}
            assert diameters == {image_diameter(K) / 2}

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            tail_set_diameter(DigitSet((1, 2)), -1)


class TestImageCylinders:
    def test_first_level_examples(self):
        K = DigitSet((1, 2))
        c1 = image_cylinder(K, (1,))
        c2 = image_cylinder(K, (2,))
        assert c1.length == Fraction(2, 7)
        assert c2.length == Fraction(1, 7)
        assert (c1.lo, c1.hi) == (Fraction(4, 7), Fraction(6, 7))
        assert (c2.lo, c2.hi) == (Fraction(2, 7), Fraction(3, 7))

    def test_two_digit_example(self):
        K = DigitSet((1, 2))
        assert image_cylinder(K, (2, 1)).length == Fraction(1, 14)

    def test_empty_word_is_whole_image(self):
        K = DigitSet((2, 3))
        whole = image_cylinder(K, ())
        assert whole == RationalInterval(image_inf(K), image_sup(K))
        assert whole.length == image_diameter(K)

    def test_digit_outside_set_rejected(self):
        with pytest.raises(ValueError):
            image_cylinder(DigitSet((1, 2)), (1, 3))

    def test_ratio_law_sampled(self):
        rng = random.Random(501)
        for _ in range(200):
            K = random_digit_set(rng)
            word = tuple(rng.choice(K.digits) for _ in range(rng.randint(0, 9)))
            child_digit = rng.choice(K.digits)
            parent = image_cylinder(K, word)
            child = image_cylinder(K, word + (child_digit,))
            assert child.length / parent.length == Fraction(1, 2**child_digit)

    def test_scaling_against_whole_image(self):
        rng = random.Random(502)
        for _ in range(100):
            K = random_digit_set(rng)
            word = tuple(rng.choice(K.digits) for _ in range(rng.randint(1, 8)))
            assert image_cylinder(K, word).length == image_diameter(K) / 2 ** sum(word)

    def test_periodic_points_land_in_their_cylinder(self):
        K = DigitSet((1, 3))
        rng = random.Random(503)
        for _ in range(50):
            word = tuple(rng.choice(K.digits) for _ in range(4))
            value = minkowski_periodic(ContinuedFraction(word, (1, 3)))
            assert image_cylinder(K, word).contains(value)


def closed_form_hulls(K: DigitSet, depth: int) -> list[tuple]:
    """``image_hulls``' tuples built word by word by ``image_cylinder``, whose
    hulls come from Fraction arithmetic on the tail-hull closed form."""
    hulls = []
    for word in product(K.digits, repeat=depth):
        hull = image_cylinder(K, word)
        hulls.append((word, hull.lo, hull.hi, hull.length))
    return hulls


class TestEnumeration:
    def test_counts(self):
        assert len(image_hulls(DigitSet((1, 2)), 2)) == 4
        assert len(image_hulls(DigitSet(tuple(range(1, 10))), 1)) == 9
        assert len(image_hulls(DigitSet((1, 2)), 0)) == 1

    def test_depth3_diameters(self):
        K = DigitSet((1, 2))
        diameters = sorted((d for *_, d in image_hulls(K, 3)), reverse=True)
        lam = Fraction(4, 7)
        expected = sorted((lam / 2 ** sum(w) for w in product((1, 2), repeat=3)), reverse=True)
        assert diameters == expected
        assert diameters[0] == lam / 8 and diameters[-1] == lam / 64

    def test_nesting_and_disjoint_siblings(self):
        K = DigitSet((1, 2, 4))
        parents = {w: RationalInterval(lo, hi) for w, lo, hi, _ in image_hulls(K, 1)}
        children = [(w, RationalInterval(lo, hi)) for w, lo, hi, _ in image_hulls(K, 2)]
        for word, child in children:
            assert parents[word[:1]].contains_interval(child)
        for i, (_, a) in enumerate(children):
            for _, b in children[i + 1 :]:
                assert a.interior_disjoint(b)

    def test_cover_extremes_attained(self):
        K = DigitSet((2, 3))
        for depth in (1, 2, 3):
            hulls = image_hulls(K, depth)
            assert min(lo for _, lo, _, _ in hulls) == image_inf(K)
            assert max(hi for _, _, hi, _ in hulls) == image_sup(K)

    def test_covering_sum_identity(self):
        for digits in [(1, 2), (1, 2, 4)]:
            K = DigitSet(digits)
            contraction = sum(Fraction(1, 2**k) for k in K.digits)
            lam = image_diameter(K)
            for depth in range(1, 5):
                total = sum(d / lam for *_, d in image_hulls(K, depth))
                assert total == contraction**depth

    @pytest.mark.parametrize(
        "digits", [(1, 2), (1, 6), (3, 7), (2, 4, 6, 8), (1, 3), (1, 4, 5), (1, 2, 7, 9)]
    )
    def test_integer_build_matches_tail_hulls(self, digits):
        K = DigitSet(digits)
        for depth in range(7):
            hulls = image_hulls(K, depth)
            assert type(hulls) is list
            assert hulls == closed_form_hulls(K, depth)

    def test_budget_and_validation(self):
        with pytest.raises(BudgetExceededError):
            image_hulls(DigitSet((1, 2)), 10, budget=100)
        with pytest.raises(ValueError):
            image_hulls(DigitSet((1, 2)), -1)
        with pytest.raises(ValueError):
            image_hulls(DigitSet((1, 2)), 1, budget=0)


class TestImageHulls:
    def test_matches_cylinders_and_closed_form(self):
        rng = random.Random(1709)
        for _ in range(12):
            K = random_digit_set(rng, max_digit=9, max_size=4)
            for depth in range(6):
                hulls = image_hulls(K, depth)
                assert len(hulls) == len(K) ** depth
                assert hulls == closed_form_hulls(K, depth)

    @pytest.mark.parametrize("depth", [1, 3, 5])
    @pytest.mark.parametrize("digits", [(1, 40), (17, 40), (39, 40), (2, 11, 40), (6, 9, 24, 40)])
    def test_large_digits_at_odd_depths(self, digits, depth):
        """Odd depths take the (-b, -a) endpoint column; every endpoint is reduced."""
        K = DigitSet(digits)
        hulls = image_hulls(K, depth)
        assert hulls == closed_form_hulls(K, depth)
        for _, lo, hi, _ in hulls:
            assert type(lo) is type(hi) is Fraction
            assert gcd(lo.numerator, lo.denominator) == 1
            assert gcd(hi.numerator, hi.denominator) == 1

    def test_depth_zero_is_whole_image(self):
        K = DigitSet((2, 5, 9))
        assert image_hulls(K, 0) == [((), image_inf(K), image_sup(K), image_diameter(K))]

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            image_hulls(DigitSet((1, 2)), -1)
