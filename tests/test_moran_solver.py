"""Moran-equation solver.

Closed-form oracles: x = 2^-s substitution turns the {1,2} equation into
x + x^2 = 1, so the root is log2 of the golden ratio; scaled digit sets
divide the root exactly.  The headline digit set {1..9} is pinned to
0.9985778625536 at 1e-10.  The fixed-point kernel is checked against
``oracle_sums``: one mpmath power per digit at 256 bits, added by fsum.
"""

import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from minkdim import (
    DigitSet,
    ToleranceError,
    bisect_newton,
    moran_root,
    moran_solver,
)
from minkdim.moran_solver import PRECISION_BITS, _float_root, _moran_sums

NINE = DigitSet(tuple(range(1, 10)))


def moran_sum(K: DigitSet, s) -> mpf:
    """f(s) = sum 2^(-k s) over K at the solver's working precision."""
    return _moran_sums(K, s, PRECISION_BITS)[0]


class TestMoranFunction:
    def test_at_zero_counts_digits(self):
        rng = random.Random(1)
        for _ in range(20):
            size = rng.randint(2, 6)
            K = DigitSet(tuple(sorted(rng.sample(range(1, 20), size))))
            assert moran_sum(K, 0) == size

    def test_at_one_examples(self):
        assert abs(moran_sum(DigitSet((1, 2)), 1) - 0.75) < 1e-30
        assert abs(moran_sum(NINE, 1) - mpf(511) / 512) < 1e-30

    def test_strictly_decreasing(self):
        K = DigitSet((2, 3, 5))
        values = [moran_sum(K, s / 10) for s in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))


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
        assert moran_sum(NINE, lo) > 1 > moran_sum(NINE, hi)

    def test_root_straddled_at_tolerance(self):
        tol = 1e-12
        for digits in [(1, 2), (3, 7), (2, 4, 9)]:
            K = DigitSet(digits)
            s = moran_root(K, tol).s
            assert moran_sum(K, s - tol) > 1 > moran_sum(K, s + tol)

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

    def test_newton_from_the_first_step(self):
        # the float64 root, Newton steps from it, the 256-bit step
        assert moran_root(NINE).iterations <= 5
        assert moran_root(DigitSet((1, 10**15))).iterations <= 10

    @pytest.mark.parametrize("digits", [tuple(range(1, 10)), (10**10, 2 * 10**10)])
    def test_no_walk_at_zero(self, digits):
        # f(0) = S and f(hi) <= 1 hold by construction: neither end of the bracket is walked
        K = DigitSet(digits)
        points = []

        def recording(K, s, prec):
            points.append(s)
            return _moran_sums(K, s, prec)

        with patch.object(moran_solver, "_moran_sums", recording):
            root = moran_root(K)
        assert points and 0 not in points
        assert len(points) == root.iterations  # each reported evaluation walks once
        assert root == moran_root(K)

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
        assert iters == 2  # the midpoint, then Newton's exact step

    def test_exact_zero_at_midpoint(self):
        result = bisect_newton(
            lambda s: 0.5 - s, lambda s: -1.0, 0.0, 1.0, residual_target=1e-12
        )
        assert result == (0.5, 0.0, 1, (0.0, 1.0))

    def test_zero_at_hi_brackets(self):
        # the closed bracket admits h(hi) == 0; the loop starts at the midpoint
        s, res, _, (lo, hi) = bisect_newton(
            lambda s: 1.0 - s, lambda s: -1.0, 0.0, 1.0, residual_target=1e-12
        )
        assert 0.0 <= res <= 1e-12 and lo <= s <= hi == 1.0

    def test_requires_bracketing(self):
        # h > 0 throughout: the steps run to hi and stop there, unmet
        with pytest.raises(ToleranceError, match="still above"):
            bisect_newton(
                lambda s: s + 1.0,
                lambda s: 1.0,
                0.0,
                1.0,
                residual_target=1e-6,
            )

    def test_residual_is_signed(self):
        # Newton's tangent on a concave h overshoots the root, so h(root) < 0
        def h(s):
            return 0.5 - s * s

        s, res, _, _ = bisect_newton(h, lambda s: -2.0 * s, 0.0, 1.0, residual_target=1e-9)
        assert res == h(s) < 0

    @pytest.mark.parametrize("num", [float, mpf])
    def test_zero_slope_takes_the_midpoint(self, num):
        # h falls through an inflection at the first point, 1/2, where h' = 0
        half = num(1) / 2
        s, res, _, (lo, hi) = bisect_newton(
            lambda s: -((s - half) ** 3) - num("0.01"),
            lambda s: -3 * (s - half) ** 2,
            num(0),
            num(1),
            residual_target=1e-12,
        )
        assert abs(res) <= 1e-12 and lo <= s <= hi
        assert abs(s - (half - num("0.01") ** (num(1) / 3))) <= 1e-10

    def test_unreachable_target_raises(self):
        with pytest.raises(ToleranceError):
            bisect_newton(
                lambda s: 2.0 - 3.0 * s,
                lambda s: -3.0,
                0.0,
                1.0,
                residual_target=-1.0,  # |res| can never go negative
            )


def moran_minus_one(K: DigitSet, s) -> mpf:
    """f(s) - 1 at the caller's precision; fsum adds the terms exactly."""
    return mp.fsum([*(mpf(2) ** (-k * mpf(s)) for k in K.digits), -1])


def oracle_sums(K: DigitSet, s) -> tuple[mpf, mpf]:
    """sum 2^(-k s) and sum k 2^(-k s) at 256 bits, one power per digit."""
    with mp.workprec(256):
        terms = [mpf(2) ** (-k * mpf(s)) for k in K.digits]
        return mp.fsum(terms), mp.fsum(k * t for k, t in zip(K.digits, terms))


@st.composite
def ranges_plus(draw) -> DigitSet:
    """{1..n} for n <= 300, plus up to three digits up to 10^4."""
    n = draw(st.integers(1, 300))
    extra = draw(st.sets(st.integers(n + 1, 10**4), min_size=1 if n == 1 else 0, max_size=3))
    return DigitSet((*range(1, n + 1), *sorted(extra)))


@st.composite
def wide_digit_sets(draw) -> DigitSet:
    """2-60 digits, the least up to 10^30, each gap up to 10^29."""
    digits = [draw(st.integers(1, 10 ** draw(st.integers(0, 30))))]
    for _ in range(draw(st.integers(1, 59))):
        digits.append(digits[-1] + draw(st.integers(1, 10 ** draw(st.integers(0, 29)))))
    return DigitSet(digits)


prop = settings(database=None, deadline=None, max_examples=25)


class TestMoranSumsKernel:
    """The fixed-point kernel against one mpmath power per digit."""

    @settings(database=None, deadline=None, max_examples=200)
    @given(wide_digit_sets(), st.floats(0, 1), st.booleans())
    def test_matches_the_oracle(self, K, s, per_least_digit):
        if per_least_digit:  # s near 1/k1, where the roots of huge digits lie
            with mp.workprec(PRECISION_BITS):
                s = mpf(s) / K.digits[0]
        got, want = _moran_sums(K, s, PRECISION_BITS), oracle_sums(K, s)
        with mp.workprec(256):
            for g, w in zip(got, want):
                assert abs(g - w) <= w * mpf(2) ** -120
                # it only truncates: only the head's own rounding, an ulp at
                # most, can put it above
                assert g <= w * (1 + mpf(2) ** (1 - PRECISION_BITS))

    def test_exact_at_zero(self):
        # x = 1: every square and term is exact, however wide the span
        K = DigitSet((3, 7, 10**30))
        assert _moran_sums(K, 0, PRECISION_BITS) == (3, 3 + 7 + 10**30)


class TestExtremeDigitSets:
    def test_least_digit_past_the_bisection_width(self):
        # the root lies near 1/k1, below any fixed absolute bracket width
        for digits in [(10**25, 10**25 + 1), (10**30, 10**30 + 1, 10**31)]:
            K = DigitSet(digits)
            root = moran_root(K)
            with mp.workprec(256):
                assert abs(moran_minus_one(K, root.s)) <= 1e-12
                assert moran_minus_one(K, root.bracket[0]) >= 0 >= moran_minus_one(
                    K, root.bracket[1]
                )

    def test_widest_float64_gap_answers(self):
        # {1, 2^53 - 1}: the float64 start puts the 128-bit solve by the
        # root, which the step ceiling did not let it reach from the midpoint
        N = 2**53 - 1
        root = moran_root(DigitSet((1, N)))
        with mp.workprec(256):
            oracle = mp.findroot(
                lambda s: 2**-s + 2 ** (-N * s) - 1, mp.lambertw(N) / (N * mp.ln2)
            )
            assert abs(root.s / oracle - 1) <= 1e-20

    def test_huge_gap_keeps_its_root(self):
        root = moran_root(DigitSet((1, 10**400)))
        assert mp.nstr(root.s, 19) == "1.976004286301269342e-39"

    @pytest.mark.parametrize(
        "k1, N", [(1, 10**15), (2, 10**16), (1, 10**16), (1, 10**20), (2, 10**30)]
    )
    def test_right_or_tolerance_error(self, k1, N):
        # {k1, N}: 2^(-k1 s) = 1 - k1 s ln 2 + O(s^2) turns the equation into
        # t e^t = N/k1 for t = N s ln 2, so s = W(N/k1)/(N ln 2) to relative
        # O(s).  The step ceiling must not let a root that is still far off
        # through: these either answer right or raise.
        try:
            root = moran_root(DigitSet((k1, N)))
        except ToleranceError:
            return
        with mp.workprec(256):
            oracle = mp.lambertw(mpf(N) / k1) / (N * mp.ln2)
            assert abs(root.s / oracle - 1) <= 1e-9


class TestMoranRootProperties:
    """Digit sets whose f(1) - 1 rounds to zero at 128 bits still answer."""

    @prop
    @given(ranges_plus())
    def test_certified_at_256_bits(self, K):
        root = moran_root(K)
        lo, hi = root.bracket
        assert lo <= root.s <= hi
        # K = {1..n} plus digits past n, so 1 - f(1) >= 2^-(n+3): from n = 254
        # on, 256 bits would round f(1) - 1 to zero
        with mp.workprec(256 + len(K.digits)):
            assert moran_minus_one(K, lo) > 0 > moran_minus_one(K, hi)
            assert abs(moran_minus_one(K, root.s)) <= 1e-12

    @prop
    @example(DigitSet(range(1, 73)), 184)  # each one 128-bit ulp low before the final step
    @example(DigitSet(range(1, 65)), 202)
    @example(DigitSet(range(1, 90)), 127)
    @given(ranges_plus(), st.integers(1, 10**4))
    def test_adding_a_digit_never_lowers_the_root(self, K, digit):
        if digit in K.digits:
            return
        wider = DigitSet((*K.digits, digit))
        assert moran_root(wider).s >= moran_root(K).s


START_SETS = [
    tuple(range(1, 10)),
    (1, 2),
    (5, 6),
    (1, 10**15),
    (3, 10**12),
    tuple(range(1, 130)),
    tuple(range(1, 20001)),
    (*range(1, 73), 184),  # the pinned counterexamples above
    (*range(1, 65), 202),
    (*range(1, 90), 127),
]
start_sets = pytest.mark.parametrize(
    "digits", START_SETS, ids=lambda d: f"{d[0]}..{d[-1]}/{len(d)}"
)


def midpoint_root(K: DigitSet):
    """moran_root(K) with the 128-bit solve started at the midpoint."""
    with patch.object(moran_solver, "_float_root", return_value=None):
        return moran_root(K)


class TestFloatStart:
    """The float64 start changes how many steps a root takes, not its bits,
    wherever the absolute stop pins the bits down."""

    @start_sets
    def test_same_root_as_from_the_midpoint(self, digits):
        K = DigitSet(digits)
        fast, slow = moran_root(K), midpoint_root(K)
        assert (fast.s, fast.residual) == (slow.s, slow.residual)
        assert fast.iterations <= slow.iterations

    @prop
    @given(st.one_of(ranges_plus(), wide_digit_sets()))
    def test_same_root_on_drawn_sets(self, K):
        try:
            slow = midpoint_root(K)
        except ToleranceError:
            return  # the float64 start may answer where the midpoint cannot
        fast = moran_root(K)
        # The stop |f - 1| <= 2^-100 is absolute: it leaves s within
        # 2^-100 / |s f'| of the root, relative, and |s f'| >= k1 s ln 2.  From
        # k1 s >= 2^-30 on, the 256-bit step rounds every path to the same
        # bits; below, either path may end one ulp off (ROADMAP item 1b).
        if K.digits[0] * slow.s >= 2**-30:
            assert (fast.s, fast.residual) == (slow.s, slow.residual)

    def test_tiny_root_rounded_to_nearest(self):
        # k1 s = 3.0e-13: the midpoint start ends one 128-bit ulp low here,
        # the float64 start on the root rounded to nearest
        K = DigitSet(
            (1, *range(150307020856005, 150307020856018), *range(225460531284017, 225460531284022))
        )
        root = moran_root(K)
        with mp.workprec(400):
            oracle = mp.findroot(lambda s: moran_minus_one(K, s), root.s)
        with mp.workprec(PRECISION_BITS):
            assert root.s == +oracle

    @start_sets
    def test_float_root_near_the_128_bit_root(self, digits):
        K = DigitSet(digits)
        starts = []

        def spy(K, hi):
            starts.append(_float_root(K, hi))
            return starts[-1]

        with patch.object(moran_solver, "_float_root", spy):
            root = moran_root(K)
        assert abs(starts[0] / root.s - 1) <= 1e-12

    @pytest.mark.parametrize("digits", [(1, 2**53), (1, 10**16), (2**60, 2**60 + 1)])
    def test_none_past_float64_integers(self, digits):
        assert _float_root(DigitSet(digits), mpf(1)) is None

    def test_none_where_float64_breaks_the_bracket(self):
        # both digits below 2^53, but at hi = 1/k1 float64 psi reads +0.5: two
        # terms of about 3e15 cancel, the bracket check fails, and the 128-bit
        # solve starts at the midpoint
        K = DigitSet((4271920223403974, 4271920223403975))
        starts = []

        def spy(K, hi):
            starts.append(_float_root(K, hi))
            return starts[-1]

        with patch.object(moran_solver, "_float_root", spy):
            root = moran_root(K)
        assert starts == [None]
        assert root.iterations == 9
        with mp.workprec(256):
            ulp = mpf(2) ** (mp.mag(root.s) - PRECISION_BITS)
            assert moran_minus_one(K, root.s - ulp) > 0 > moran_minus_one(K, root.s + ulp)

    @pytest.mark.parametrize("digits", [tuple(range(1, 10)), (1, 2), (3, 7, 20)])
    def test_none_where_the_float64_solve_fails(self, digits):
        # a ToleranceError from the float64 solve is a None start: the 128-bit
        # solve starts at the midpoint and takes the midpoint's path
        real = moran_solver.bisect_newton
        starts = []

        def solve(h, h_prime, lo, *rest, **kwargs):
            if type(lo) is float:  # the float64 solve; the 128-bit one passes an mpf
                raise ToleranceError("float64 residual target not met")
            return real(h, h_prime, lo, *rest, **kwargs)

        def spy(K, hi):
            starts.append(_float_root(K, hi))
            return starts[-1]

        K = DigitSet(digits)
        with patch.object(moran_solver, "bisect_newton", solve):
            with patch.object(moran_solver, "_float_root", spy):
                root = moran_root(K)
        slow = midpoint_root(K)
        assert starts == [None]
        assert (root.s, root.residual, root.iterations) == (slow.s, slow.residual, slow.iterations)
