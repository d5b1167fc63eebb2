"""Exact continued-fraction arithmetic.

Numbers x in (0, 1] are written x = 1/(a1 + 1/(a2 + ...)) with
positive-integer partial quotients, here called digits.  A finite digit word
names both a rational number and a cylinder: the interval of all x whose
expansion starts with that word.  Restricting every digit to a finite set
K = {k1 < ... < kS} carves a Cantor-type subset out of (0, 1]; its depth-n
cylinders are the natural covers consumed by the dimension estimators in
this package.

Everything here is exact: digits are ints, values are `fractions.Fraction`,
and no floating point appears.  All values are immutable and safe to share
across threads; cylinder enumeration may be partitioned by leading digit as
long as consumers reduce with an order-independent operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import BudgetExceededError

# Default cylinder budget; keeps desk-scale enumerations under a minute.
DEFAULT_BUDGET = 2_000_000


def _checked_digits(digits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in digits)
    for d in out:
        if d < 1:
            raise ValueError(f"partial quotients must be >= 1, got {d}")
    return out


def primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest word whose repetition spells ``word``."""
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class ContinuedFraction:
    """A finite or eventually periodic continued fraction [0; a1, a2, ...].

    ``preperiod`` holds the leading digits; a nonempty ``period`` repeats
    forever after them.  The period must be primitive (not a power of a
    shorter word) so every eventually periodic number has one stored form.
    Finite words may be non-canonical (trailing digit 1); ``canonicalize``
    maps them to the canonical representative.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "preperiod", _checked_digits(self.preperiod))
        object.__setattr__(self, "period", _checked_digits(self.period))
        if not self.preperiod and not self.period:
            raise ValueError("a continued fraction needs at least one digit")
        if primitive_root(self.period) != self.period:
            raise ValueError(f"period {self.period} repeats a shorter word")

    @property
    def is_finite(self) -> bool:
        return not self.period

    @property
    def is_canonical(self) -> bool:
        """True when finite words end with a digit >= 2 ([0; 1] excepted)."""
        if not self.is_finite:
            return True
        return self.preperiod == (1,) or self.preperiod[-1] >= 2

    def digits(self, n: int) -> tuple[int, ...]:
        """The first n digits, unrolling the period as far as needed."""
        if n < 0:
            raise ValueError("digit count must be nonnegative")
        if self.is_finite:
            if n > len(self.preperiod):
                raise ValueError(
                    f"requested {n} digits from a length-{len(self.preperiod)} expansion"
                )
            return self.preperiod[:n]
        out = list(self.preperiod)
        while len(out) < n:
            out.extend(self.period)
        return tuple(out[:n])

    def __str__(self) -> str:
        body = ", ".join(map(str, self.preperiod))
        if self.period:
            tail = "(" + ", ".join(map(str, self.period)) + ")..."
            body = f"{body}, {tail}" if body else tail
        return f"[0; {body}]"


@dataclass(frozen=True)
class DigitSet:
    """A sorted tuple {k1 < k2 < ... < kS} of allowed digits, S >= 2."""

    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", _checked_digits(self.digits))
        if len(self.digits) < 2:
            raise ValueError("a digit set needs at least two digits")
        if any(a >= b for a, b in zip(self.digits, self.digits[1:])):
            raise ValueError("digits must be distinct and strictly increasing")

    @classmethod
    def from_digits(cls, digits) -> "DigitSet":
        """Build from any iterable; sorts, but duplicates are rejected."""
        return cls(tuple(sorted(digits)))

    @property
    def size(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __contains__(self, d) -> bool:
        return d in self.digits

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.digits)) + "}"


@dataclass(frozen=True)
class RationalInterval:
    """A nondegenerate closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def interior_disjoint(self, other: "RationalInterval") -> bool:
        return self.hi <= other.lo or other.hi <= self.lo


def cf_from_rational(p: int, q: int) -> ContinuedFraction:
    """Expand p/q in (0, 1] by the Euclidean algorithm.

    The result is canonical: its last digit is >= 2 unless the expansion is
    exactly [0; 1].  Inputs outside (0, 1] are rejected.
    """
    if q <= 0:
        raise ValueError("denominator must be positive")
    if p <= 0 or p > q:
        raise ValueError(f"{p}/{q} lies outside (0, 1]")
    digits = []
    a, b = q, p
    while b:
        quot, rem = divmod(a, b)
        digits.append(quot)
        a, b = b, rem
    return ContinuedFraction(tuple(digits))


def cf_value(cf: ContinuedFraction) -> Fraction:
    """Exact value of a finite continued fraction."""
    if not cf.is_finite:
        raise ValueError("value of a periodic continued fraction is irrational")
    _, _, p, q = _convergent_state(cf.preperiod)
    return Fraction(p, q)


def canonicalize(cf: ContinuedFraction) -> ContinuedFraction:
    """Canonical representative of a finite word: fold a trailing 1.

    [0; ..., a, 1] and [0; ..., a+1] name the same rational; the stored form
    ends with a digit >= 2 ([0; 1] is the sole exception).
    """
    if not cf.is_finite:
        raise ValueError("only finite continued fractions are canonicalized")
    d = cf.preperiod
    if len(d) > 1 and d[-1] == 1:
        d = d[:-2] + (d[-2] + 1,)
    return ContinuedFraction(d)


def alternate_form(cf: ContinuedFraction) -> ContinuedFraction:
    """The other digit word with the same value ([0; ..., a] <-> [0; ..., a-1, 1]).

    Every rational in (0, 1) has exactly two expansions; 1 = [0; 1] has one,
    and asking for its alternate raises ValueError.
    """
    if not cf.is_finite:
        raise ValueError("only finite continued fractions have an alternate form")
    d = cf.preperiod
    if len(d) > 1 and d[-1] == 1:
        return canonicalize(cf)
    if d == (1,):
        raise ValueError("[0; 1] is the only expansion of 1")
    return ContinuedFraction(d[:-1] + (d[-1] - 1, 1))


def convergents(cf: ContinuedFraction, n: int) -> list[tuple[int, int]]:
    """The first n convergents (p_i, q_i).

    Standard recurrence p_i = a_i p_{i-1} + p_{i-2} (q likewise) seeded with
    p_{-1}=1, q_{-1}=0, p_0=0, q_0=1; consecutive convergents are coprime, so
    every pair is already in lowest terms.
    """
    if n < 1:
        raise ValueError("need at least one convergent")
    pm1, qm1, p, q = 1, 0, 0, 1
    out = []
    for a in cf.digits(n):
        pm1, qm1, p, q = p, q, a * p + pm1, a * q + qm1
        out.append((p, q))
    return out


def _convergent_state(word: Sequence[int]) -> tuple[int, int, int, int]:
    pm1, qm1, p, q = 1, 0, 0, 1
    for a in word:
        pm1, qm1, p, q = p, q, a * p + pm1, a * q + qm1
    return pm1, qm1, p, q


def cylinder_interval(prefix: Sequence[int]) -> RationalInterval:
    """The interval of all x in (0, 1] whose expansion starts with ``prefix``.

    Endpoints are p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}); the length is
    exactly 1/(q_n (q_n + q_{n-1})).
    """
    word = _checked_digits(prefix)
    if not word:
        raise ValueError("prefix must be nonempty")
    pm1, qm1, p, q = _convergent_state(word)
    a = Fraction(p, q)
    b = Fraction(p + pm1, q + qm1)
    return RationalInterval(min(a, b), max(a, b))


def check_budget(K: DigitSet, depth: int, budget: int) -> None:
    """Raise BudgetExceededError if S^depth exceeds a positive budget."""
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    # S >= 2, so depth >= bit_length(budget) already gives S^depth > budget;
    # the power itself is slow and unprintable at such depths
    if depth >= budget.bit_length() or K.size**depth > budget:
        raise BudgetExceededError(f"{K.size}^{depth}", budget)


def enumerate_cylinders(
    K: DigitSet, depth: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], RationalInterval]]:
    """All S^depth depth-n cylinders over K, in lexicographic word order.

    Sibling cylinders have disjoint interiors and each is nested in its
    parent; raises BudgetExceededError at call time if S^depth exceeds the
    budget.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    check_budget(K, depth, budget)
    words = product(K.digits, repeat=depth)
    return ((word, cylinder_interval(word)) for word in words)
