"""Output checks for the in-process workloads.

Each check returns None when the output is right and a short reason when it
is not.  The checks use independent arithmetic where the mathematics allows
it (a 256-bit Moran function, closed-form image hulls written out here) and
the package itself only to evaluate the Minkowski function at other points
for the functional equations.  References for the domain-side covering roots
were recorded at the commit that added this benchmark, into
``bench/data/covering_refs.json`` (``python bench/oracles.py --record-refs``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import product
from pathlib import Path

from mpmath import mp, mpf

REFS_PATH = Path(__file__).resolve().parent / "data" / "covering_refs.json"
DOMAIN_TOLERANCE = 1e-9  # |s_hat - recorded s_hat| on the domain side
CHECK_BITS = 256


# -- covering ---------------------------------------------------------------
def load_refs() -> dict[str, float]:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def ref_key(digits, depth: int) -> str:
    return f"{','.join(map(str, digits))}@{depth}"


def check_covering(digits, side: str, estimates, tol: float, refs, moran_s=None) -> str | None:
    """Image side: each s_hat equals the Moran root within tol.  Domain side:
    each s_hat is within DOMAIN_TOLERANCE of the recorded reference."""
    for e in estimates:
        if e.cylinder_count != len(digits) ** e.depth:
            return f"depth {e.depth}: {e.cylinder_count} cylinders, want {len(digits) ** e.depth}"
        if side == "image":
            if not abs(e.s_hat - moran_s) <= tol:
                return f"depth {e.depth}: s_hat {e.s_hat!r} is not the Moran root {moran_s!r}"
        else:
            want = refs.get(ref_key(digits, e.depth))
            if want is None:
                return f"no reference for {ref_key(digits, e.depth)}"
            if not abs(e.s_hat - want) <= DOMAIN_TOLERANCE:
                return f"depth {e.depth}: s_hat {e.s_hat!r} != reference {want!r}"
    return None


# -- solve --------------------------------------------------------------------
def moran_minus_one(digits, s) -> mpf:
    with mp.workprec(CHECK_BITS):
        s = mpf(s)
        return mp.fsum(mpf(2) ** (-k * s) for k in digits) - 1


def check_moran(digits, tol: float, root) -> str | None:
    """|f(s) - 1| <= tol at 256 bits, and f - 1 changes sign across the bracket."""
    res = moran_minus_one(digits, root.s)
    if not abs(res) <= tol:
        return f"|f(s) - 1| = {mp.nstr(abs(res), 5)} > tol {tol}"
    lo, hi = root.bracket
    if not (moran_minus_one(digits, lo) > 0 > moran_minus_one(digits, hi)):
        return f"f - 1 does not change sign across [{lo}, {hi}]"
    return None


def check_verdict(n: int, verdict) -> str | None:
    lower = 1.0 - 1.0 / (n * math.log10(2.0))
    upper = 1.0 - 1.0 / (8.0 * n * math.log10(n))
    if (verdict.bounds.lower, verdict.bounds.upper) != (lower, upper):
        return f"bounds {verdict.bounds} != closed form ({lower!r}, {upper!r})"
    err = check_moran(range(1, n + 1), 1e-12, verdict.image_dimension)
    if err:
        return err
    s = float(verdict.image_dimension.s)
    gap = s - upper if s > upper else lower - s if s < lower else 0.0
    if abs(verdict.gap - gap) > 1e-12:
        return f"gap {verdict.gap!r} != {gap!r}"
    want = "not_preserved" if gap > verdict.tol else "inconclusive"
    if verdict.preserved.value != want:
        return f"verdict {verdict.preserved.value} for gap {gap!r}"
    return None


# -- exact --------------------------------------------------------------------
def check_finite_batch(items, minkowski) -> str | None:
    """?(x/(1+x)) = ?(x)/2 and ?(1-x) = 1-?(x), exactly, for x = p/q.

    ``minkowski(p, q)`` evaluates the package at the transformed points;
    ``items`` holds (p, q, value) with value a Fraction.
    """
    for p, q, value in items:
        if not 0 < value <= 1 or value.denominator & (value.denominator - 1):
            return f"?({p}/{q}) = {value} is not a dyadic rational in (0, 1]"
        if minkowski(p, p + q) != value / 2:
            return f"?(x/(1+x)) != ?(x)/2 at x = {p}/{q}"
        if p < q and minkowski(q - p, q) != 1 - value:
            return f"?(1-x) != 1-?(x) at x = {p}/{q}"
    return None


def shifted_heads(pre: tuple, period: tuple) -> tuple[tuple, tuple]:
    """Digit heads of x/(1+x) and 1-x for x = [0; pre, (period)]."""
    digits = pre + period + period  # the head then always has two digits
    half = (digits[0] + 1,) + digits[1:]
    if digits[0] >= 2:
        mirror = (1, digits[0] - 1) + digits[1:]
    else:
        mirror = (digits[1] + 1,) + digits[2:]
    return half, mirror


def check_periodic_batch(items, minkowski) -> str | None:
    """The same two identities on eventually periodic x, through
    ``minkowski(preperiod, period)``; ``items`` holds (pre, period, value)."""
    for pre, period, value in items:
        if not 0 < value < 1:
            return f"?([0; {pre}, ({period})]) = {value} is outside (0, 1)"
        half, mirror = shifted_heads(pre, period)
        if minkowski(half, period) != value / 2:
            return f"?(x/(1+x)) != ?(x)/2 at [0; {pre}, ({period})]"
        if minkowski(mirror, period) != 1 - value:
            return f"?(1-x) != 1-?(x) at [0; {pre}, ({period})]"
    return None


def _word_value(word) -> Fraction:
    running, value = 0, Fraction(0)
    for i, a in enumerate(word):
        running += a
        value += (-1) ** i * Fraction(2, 2**running)
    return value


def _periodic2(a: int, b: int) -> Fraction:
    """?([0; (a, b)]) summed as a geometric series."""
    return Fraction(2 * (2**b - 1), 2 ** (a + b) - 1)


def image_hull(digits, word) -> tuple[Fraction, Fraction]:
    sup0, inf0 = _periodic2(digits[0], digits[-1]), _periodic2(digits[-1], digits[0])
    head, scale = _word_value(word), Fraction(1, 2 ** sum(word))
    if len(word) % 2 == 0:
        return head + scale * inf0, head + scale * sup0
    return head - scale * sup0, head - scale * inf0


def _decimal(fr: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 15
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(fr.numerator) / Decimal(fr.denominator))


def parse_construct(fmt: str, text: str):
    """(word, inf, sup, diameter) rows from any construct output format."""
    rows = []
    if fmt == "json":
        for row in json.loads(text)["result"]["cylinders"]:
            rows.append((tuple(row["word"]), *(Fraction(row[k]["exact"]) for k in ("inf", "sup", "diameter"))))
            for k in ("inf", "sup", "diameter"):
                if row[k]["decimal"] != _decimal(Fraction(row[k]["exact"])):
                    raise ValueError(f"decimal {row[k]['decimal']} != {row[k]['exact']}")
    elif fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        next(reader)
        for word, lo, hi, lo_dec, hi_dec, diam, diam_dec in reader:
            vals = Fraction(lo), Fraction(hi), Fraction(diam)
            if (lo_dec, hi_dec, diam_dec) != tuple(map(_decimal, vals)):
                raise ValueError(f"decimals of row {word} do not match its exact values")
            rows.append((tuple(int(d) for d in word.split("-")), *vals))
    else:
        for line in text.splitlines()[1:]:
            head, _, rest = line.partition("]: ")
            parts = dict(item.split(" ", 1) for item in rest.split(", "))
            word = tuple(int(d) for d in head.removeprefix("word [").split("-"))
            rows.append((word, Fraction(parts["inf"]), Fraction(parts["sup"]), Fraction(parts["diameter"])))
    return rows


def check_construct(digits, depth: int, fmt: str, text: str) -> str | None:
    """Every diameter is 2^-sum(word) times the image diameter, every cylinder
    lies in its parent's hull, and siblings have disjoint interiors."""
    try:
        rows = parse_construct(fmt, text)
    except (ValueError, KeyError, StopIteration) as exc:
        return f"unreadable construct output: {exc}"
    words = [w for w, *_ in rows]
    if words != list(product(digits, repeat=depth)):
        return "cylinder words are not the lexicographic depth-n words"
    lo0, hi0 = image_hull(digits, ())
    whole = hi0 - lo0
    siblings: dict[tuple, list[tuple[Fraction, Fraction]]] = {}
    for word, lo, hi, diam in rows:
        if diam != hi - lo or diam != whole / 2 ** sum(word):
            return f"diameter of {word} is {diam}, want {whole / 2 ** sum(word)}"
        siblings.setdefault(word[:-1], []).append((lo, hi))
    for parent, hulls in siblings.items():
        plo, phi = image_hull(digits, parent)
        hulls.sort()
        if not (plo <= hulls[0][0] and hulls[-1][1] <= phi):
            return f"children of {parent} are not nested in it"
        for (_, hi), (lo, _) in zip(hulls, hulls[1:]):
            if lo < hi:
                return f"children of {parent} overlap"
    return None


def record_refs() -> None:
    """Domain covering roots for every digit set a workload can draw."""
    import minkdim
    from workloads import domain_pool

    refs = {}
    for digits, depth in domain_pool():
        for e in minkdim.estimate_series(minkdim.DigitSet(digits), range(1, depth + 1), minkdim.Side.DOMAIN):
            refs[ref_key(digits, e.depth)] = e.s_hat
    REFS_PATH.parent.mkdir(exist_ok=True)
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-refs"]:
        sys.exit("usage: PYTHONPATH=src python bench/oracles.py --record-refs")
    record_refs()
