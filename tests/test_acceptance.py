"""Acceptance gate: the package's exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with its wall time.  Tolerances are pinned here and nowhere
else; every randomized criterion uses a fixed seed.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp

from minkdim import (
    DigitSet,
    Preservation,
    Side,
    alternate_form,
    cf_from_rational,
    estimate_series,
    image_cylinder,
    image_diameter,
    image_inf,
    image_sup,
    jarnik_bounds,
    minkowski_finite,
    moran_root,
    preservation_verdict,
    tail_set_diameter,
)

NINE = DigitSet(tuple(range(1, 10)))


@contextmanager
def criterion(name: str, max_seconds: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - t0:.2f} s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] {name}: PASS ({elapsed:.2f} s)")
    if max_seconds is not None:
        assert elapsed < max_seconds, f"{name} took {elapsed:.2f} s"


def test_c01_moran_root_reproduction():
    with criterion("C01 Moran root of {1..9} = 0.9985778625536 +/- 1e-10", 1.0):
        root = moran_root(NINE)
        assert abs(float(root.s) - 0.9985778625536) <= 1e-10


def test_c02_bounds_reproduction():
    with criterion("C02 bounds(9) = (0.6308969, 0.985445112) +/- 1e-7", 1.0):
        bounds = jarnik_bounds(9)
        assert abs(bounds.lower - 0.6308969) <= 1e-7
        assert abs(bounds.upper - 0.985445112) <= 1e-7


def test_c03_headline_verdict():
    with criterion("C03 verdict(9) NOT_PRESERVED with gap >= 0.013", 1.0):
        verdict = preservation_verdict(9)
        assert verdict.preserved is Preservation.NOT_PRESERVED
        assert verdict.gap >= 0.013


def test_c04_exact_geometry():
    with criterion("C04 exact image geometry for {1,2}", 1.0):
        K = DigitSet((1, 2))
        assert image_sup(K) == Fraction(6, 7)
        assert image_inf(K) == Fraction(2, 7)
        assert image_diameter(K) == Fraction(4, 7)
        assert image_cylinder(K, (1,)).length == Fraction(2, 7)
        assert image_cylinder(K, (2,)).length == Fraction(1, 7)


def test_c05_tail_set_rank_independence():
    with criterion("C05 tail-set diameter identical for ranks 0..10"):
        K = DigitSet((1, 2))
        values = {tail_set_diameter(K, rank) for rank in range(11)}
        assert values == {Fraction(2, 7)}


def test_c06_ratio_law_property():
    with criterion("C06 ratio law exact on 500 random words"):
        rng = random.Random(2011)
        for _ in range(500):
            size = rng.randint(2, 5)
            K = DigitSet(tuple(sorted(rng.sample(range(1, 13), size))))
            word = tuple(rng.choice(K.digits) for _ in range(rng.randint(0, 9)))
            k = rng.choice(K.digits)
            parent = image_cylinder(K, word)
            child = image_cylinder(K, word + (k,))
            assert child.length / parent.length == Fraction(1, 2**k)


def test_c07_well_definedness_and_monotonicity():
    with criterion("C07 both expansions agree on 1000 rationals; monotone"):
        rng = random.Random(1911)
        values = set()
        for _ in range(1000):
            q = rng.randint(2, 10**4)
            p = rng.randint(1, q)
            values.add(Fraction(p, q))
            cf = cf_from_rational(p, q)
            if cf.preperiod == (1,):  # x = 1 has a unique expansion
                assert p == q
                continue
            assert minkowski_finite(cf) == minkowski_finite(alternate_form(cf))
        images = [
            minkowski_finite(cf_from_rational(v.numerator, v.denominator))
            for v in sorted(values)
        ]
        assert all(a < b for a, b in zip(images, images[1:]))


def test_c08_factorization_identity():
    with criterion("C08 image covering roots equal Moran roots", 30.0):
        target = float(moran_root(NINE).s)
        for depth in range(1, 5):
            assert abs(estimate_series(NINE, [depth], Side.IMAGE)[0].s_hat - target) <= 1e-8
        K = DigitSet((1, 2))
        target = float(moran_root(K).s)
        for depth in range(1, 11):
            assert abs(estimate_series(K, [depth], Side.IMAGE)[0].s_hat - target) <= 1e-8


def test_c09_domain_containment_and_stability():
    with criterion("C09 domain roots of {1..9} inside bounds, stable", 60.0):
        bounds = jarnik_bounds(9)
        roots = [estimate_series(NINE, [depth], Side.DOMAIN)[0].s_hat for depth in (3, 4, 5)]
        for s in roots:
            assert bounds.lower < s < bounds.upper
        for a, b in zip(roots, roots[1:]):
            assert abs(b - a) < 0.05


def test_c10_scaling_identity():
    with criterion("C10 moran_root(c*K) = moran_root(K)/c within 2e-12"):
        rng = random.Random(1873)
        for _ in range(20):
            size = rng.randint(2, 5)
            K = DigitSet(tuple(sorted(rng.sample(range(1, 11), size))))
            base = moran_root(K)
            for c in (2, 3):
                scaled = moran_root(DigitSet(tuple(c * k for k in K.digits)))
                with mp.workprec(128):
                    assert abs(scaled.s - base.s / c) <= 2e-12
