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

import pytest

from minkdim import (
    BudgetExceededError,
    ContinuedFraction,
    DigitSet,
    enumerate_image_cylinders,
    image_cylinder,
    image_diameter,
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
        rng = random.Random(31)
        for _ in range(50):
            k1 = rng.randint(1, 11)
            k2 = rng.randint(k1 + 1, 12)
            K = DigitSet((k1, k2))
            assert image_sup(K) == closed_form_sup(k1, k2)
            assert image_inf(K) == closed_form_inf(k1, k2)
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
        # the closed-form displays are for S = 2; for larger sets the same
        # rank independence is checked numerically against the
        # oracle-bracketed image extremes (see test_bracketing_oracle)
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
        assert c1.diameter == Fraction(2, 7)
        assert c2.diameter == Fraction(1, 7)
        assert (c1.enclosure.lo, c1.enclosure.hi) == (Fraction(4, 7), Fraction(6, 7))
        assert (c2.enclosure.lo, c2.enclosure.hi) == (Fraction(2, 7), Fraction(3, 7))

    def test_two_digit_example(self):
        K = DigitSet((1, 2))
        assert image_cylinder(K, (2, 1)).diameter == Fraction(1, 14)

    def test_empty_word_is_whole_image(self):
        K = DigitSet((2, 3))
        whole = image_cylinder(K, ())
        assert whole.enclosure.lo == image_inf(K)
        assert whole.enclosure.hi == image_sup(K)
        assert whole.diameter == image_diameter(K)

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
            assert child.diameter / parent.diameter == Fraction(1, 2**child_digit)

    def test_scaling_against_whole_image(self):
        rng = random.Random(502)
        for _ in range(100):
            K = random_digit_set(rng)
            word = tuple(rng.choice(K.digits) for _ in range(rng.randint(1, 8)))
            cyl = image_cylinder(K, word)
            assert cyl.diameter == image_diameter(K) / 2 ** sum(word)

    def test_periodic_points_land_in_their_cylinder(self):
        K = DigitSet((1, 3))
        rng = random.Random(503)
        for _ in range(50):
            word = tuple(rng.choice(K.digits) for _ in range(4))
            value = minkowski_periodic(ContinuedFraction(word, (1, 3)))
            assert image_cylinder(K, word).enclosure.contains(value)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_image_cylinders(DigitSet((1, 2)), 2))) == 4
        assert len(list(enumerate_image_cylinders(DigitSet(tuple(range(1, 10))), 1))) == 9
        assert len(list(enumerate_image_cylinders(DigitSet((1, 2)), 0))) == 1

    def test_depth3_diameters(self):
        K = DigitSet((1, 2))
        diameters = sorted(
            (c.diameter for c in enumerate_image_cylinders(K, 3)), reverse=True
        )
        lam = Fraction(4, 7)
        expected = sorted(
            (
                lam / 2 ** (sum(word))
                for word in product((1, 2), repeat=3)
            ),
            reverse=True,
        )
        assert diameters == expected
        assert diameters[0] == lam / 8 and diameters[-1] == lam / 64

    def test_nesting_and_disjoint_siblings(self):
        K = DigitSet((1, 2, 4))
        parents = {c.word: c for c in enumerate_image_cylinders(K, 1)}
        children = list(enumerate_image_cylinders(K, 2))
        for child in children:
            assert parents[child.word[:1]].enclosure.contains_interval(child.enclosure)
        for i, a in enumerate(children):
            for b in children[i + 1 :]:
                assert a.enclosure.interior_disjoint(b.enclosure)

    def test_cover_extremes_attained(self):
        K = DigitSet((2, 3))
        for depth in (1, 2, 3):
            cylinders = list(enumerate_image_cylinders(K, depth))
            assert min(c.enclosure.lo for c in cylinders) == image_inf(K)
            assert max(c.enclosure.hi for c in cylinders) == image_sup(K)

    def test_covering_sum_identity(self):
        for digits in [(1, 2), (1, 2, 4)]:
            K = DigitSet(digits)
            contraction = sum(Fraction(1, 2**k) for k in K.digits)
            lam = image_diameter(K)
            for depth in range(1, 5):
                total = sum(
                    c.diameter / lam for c in enumerate_image_cylinders(K, depth)
                )
                assert total == contraction**depth

    def test_budget_and_validation(self):
        with pytest.raises(BudgetExceededError):
            enumerate_image_cylinders(DigitSet((1, 2)), 10, budget=100)
        with pytest.raises(ValueError):
            enumerate_image_cylinders(DigitSet((1, 2)), -1)
        with pytest.raises(ValueError):
            enumerate_image_cylinders(DigitSet((1, 2)), 1, budget=0)
