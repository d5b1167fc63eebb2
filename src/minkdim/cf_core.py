"""Exact continued-fraction arithmetic.

Numbers x in (0, 1] are written x = 1/(a1 + 1/(a2 + ...)) with
positive-integer partial quotients, here called digits.  A finite digit word
names both a rational number and a cylinder: the interval of all x whose
expansion starts with that word.  Restricting every digit to a finite set
K = {k1 < ... < kS} carves a Cantor-type subset out of (0, 1], covered at
each depth n by its S^n depth-n cylinders.

Everything here is exact: digits are ints, values are `fractions.Fraction`,
and no floating point appears.  All values are immutable and safe to share
across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BudgetExceededError

# Default cylinder budget; keeps desk-scale enumerations under a minute.
DEFAULT_BUDGET = 2_000_000


def _checked_digits(digits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(map(int, digits))
    if min(out, default=1) < 1:
        bad = next(d for d in out if d < 1)
        raise ValueError(f"partial quotients must be >= 1, got {bad}")
    return out


def _checked_prefix(prefix: Sequence[int]) -> tuple[int, ...]:
    if not (word := _checked_digits(prefix)):
        raise ValueError("prefix must be nonempty")
    return word


def _lowest_terms(cls, n: int, d: int):
    """The Fraction (or subclass ``cls``) n/d from coprime ints n and d > 0.

    Skips ``Fraction.__new__``, its type checks and its gcd: it sets the two
    slots directly, as CPython 3.12's ``Fraction._from_coprime_ints`` does.
    The caller owes the reduced form; ``cls`` adds no slots of its own.
    """
    self = object.__new__(cls)
    self._numerator = n
    self._denominator = d
    return self


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
    forever after them; a period that repeats a shorter word is stored as
    that word, so every eventually periodic number has one stored form.
    Finite words may be non-canonical (trailing digit 1); ``canonicalize``
    maps them to the canonical representative.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "preperiod", _checked_digits(self.preperiod))
        object.__setattr__(self, "period", primitive_root(_checked_digits(self.period)))
        if not self.preperiod and not self.period:
            raise ValueError("a continued fraction needs at least one digit")

    @classmethod
    def _unchecked(cls, preperiod: tuple[int, ...]) -> "ContinuedFraction":
        """The finite expansion [0; preperiod], skipping ``__post_init__``.

        The caller owes what that check would leave unchanged: a nonempty
        tuple of ints >= 1.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", ())
        return self

    @property
    def is_finite(self) -> bool:
        return not self.period

    @property
    def is_canonical(self) -> bool:
        """False only for a finite word of two or more digits ending in 1."""
        d = self.preperiod
        return not self.is_finite or d == (1,) or d[-1] >= 2

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
    """Allowed digits {k1 < ... < kS}, S >= 2, none repeated.

    Takes the digits in any order, stored sorted.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(sorted(_checked_digits(self.digits))))
        if len(self.digits) < 2:
            raise ValueError("a digit set needs at least two digits")
        if len(set(self.digits)) < len(self.digits):
            raise ValueError("digits must be distinct")

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
    exactly [0; 1].  Inputs outside (0, 1] are rejected.  Euclid's quotients
    of ints are ints >= 1 and the period is empty, so the expansion is built
    without ``ContinuedFraction``'s re-check of its digits.
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
    return ContinuedFraction._unchecked(tuple(digits))


def cf_value(cf: ContinuedFraction) -> Fraction:
    """Exact value of a finite continued fraction."""
    if not cf.is_finite:
        raise ValueError("value of a periodic continued fraction is irrational")
    _, _, p, q = deque(_convergent_states(cf.preperiod), maxlen=1).pop()
    return Fraction(p, q)


def canonicalize(cf: ContinuedFraction) -> ContinuedFraction:
    """Canonical representative of a finite word: fold a trailing 1.

    [0; ..., a, 1] and [0; ..., a+1] name the same rational.  A word that is
    already canonical (``ContinuedFraction.is_canonical``) is returned as is.
    """
    if not cf.is_finite:
        raise ValueError("only finite continued fractions are canonicalized")
    if cf.is_canonical:
        return cf
    d = cf.preperiod
    return ContinuedFraction(d[:-2] + (d[-2] + 1,))


def alternate_form(cf: ContinuedFraction) -> ContinuedFraction:
    """The other digit word with the same value ([0; ..., a] <-> [0; ..., a-1, 1]).

    Every rational in (0, 1) has exactly two expansions: the alternate of a
    non-canonical word is its ``canonicalize`` form.  1 = [0; 1] has one, and
    asking for its alternate raises ValueError.
    """
    if not cf.is_finite:
        raise ValueError("only finite continued fractions have an alternate form")
    if not cf.is_canonical:
        return canonicalize(cf)
    d = cf.preperiod
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
    return [(p, q) for _, _, p, q in _convergent_states(cf.digits(n))]


def _convergent_states(word: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """(p_{i-1}, q_{i-1}, p_i, q_i) after each digit of ``word``."""
    pm1, qm1, p, q = 1, 0, 0, 1
    for a in word:
        pm1, qm1, p, q = p, q, a * p + pm1, a * q + qm1
        yield pm1, qm1, p, q


def cylinder_interval(prefix: Sequence[int]) -> RationalInterval:
    """The interval of all x in (0, 1] whose expansion starts with ``prefix``.

    Endpoints are p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}); the length is
    exactly 1/(q_n (q_n + q_{n-1})).
    """
    pm1, qm1, p, q = deque(_convergent_states(_checked_prefix(prefix)), maxlen=1).pop()
    a = Fraction(p, q)
    b = Fraction(p + pm1, q + qm1)
    return RationalInterval(min(a, b), max(a, b))


def check_budget(K: DigitSet, depth: int, budget: int) -> None:
    """ValueError: negative depth or budget below 1.  BudgetExceededError: S^depth > budget."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    # S >= 2, so depth >= bit_length(budget) already gives S^depth > budget;
    # the power itself is slow and unprintable at such depths
    if depth >= budget.bit_length() or len(K) ** depth > budget:
        raise BudgetExceededError(f"{len(K)}^{depth}", budget)
