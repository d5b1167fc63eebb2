"""Command-line front end.

Subcommands:
  moran      Moran root (image dimension) for a digit set
  bounds     dimension bounds for a digit ceiling n
  verdict    bounds vs. image dimension: the preservation verdict
  eval       Minkowski function value at a rational or a periodic CF
  empirical  per-depth covering-sum estimates (domain or image side)
  construct  table of image cylinders at a given depth

The subcommands are the entries of one table, COMMANDS.  An entry's ``run``
computes the command's values once and returns the report ``config``, the
JSON ``result`` and the flat row records that the text and CSV outputs list,
built beside the result from the same values (``verdict``'s row holds its
bounds, root and outcome side by side; ``moran``'s carries the digits); exact
rationals stay Fractions until rendering.  ``construct`` checks its budget
(exit 3), then its digit sum (exit 2), and only then builds its rows from
``selfsimilar.image_hulls``.  Only the format named by --format is rendered:
JSON through ``report.report_json``, text and CSV through the entry's
templates (a head line, one line per row record and, for text, an optional
foot), which ``report.format_rows`` parses once.  A template names keys
only: the head and foot are filled from the config and the result together,
and the row lines from the row records alone, a column at a time.

Every subcommand accepts --format {text,json,csv} and --out PATH; moran,
verdict and empirical take --tol, and empirical and construct take
--budget N.  Their defaults are the library's, and the library checks them:
the solver tolerance range and the budget are each decided in one place.  An
option a subcommand does not read is a usage error.  Exit codes: 0 success,
2 usage error (including a range list over MAX_RANGE_LIST values and a digit
sum over MAX_DIGIT_SUM, both refused before any exact value is built, a
bounds or verdict n whose float64 upper bound rounds to 1, an exact value past
a lowered int-to-str limit, and an --out path that cannot be written), 3
budget exceeded, 4 tolerance failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable

from . import __version__, dim_bounds, empirical_dim, moran_solver
from .cf_core import (
    DEFAULT_BUDGET,
    ContinuedFraction,
    DigitSet,
    cf_from_rational,
    check_budget,
)
from .dim_bounds import jarnik_bounds, preservation_verdict
from .empirical_dim import Side, estimate_series, successive_differences
from .errors import BudgetExceededError, ToleranceError
from .minkowski_eval import minkowski_finite, minkowski_periodic
from .moran_solver import MoranRoot, moran_root
from .report import format_rows, mpf_str, report_json
from .selfsimilar import image_hulls

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_TOLERANCE = 4
MAX_RANGE_LIST = 10**6  # values a range list may spell, checked before any is built
MAX_DIGIT_SUM = 14_284  # printed values are <= 2^(digit sum); 2^14284 has 4,300 digits
_EXIT_CODES = {BudgetExceededError: EXIT_BUDGET, ToleranceError: EXIT_TOLERANCE}


def _parse_range_list(text: str, noun: str) -> list[int]:
    """Ranges and/or lists of integers: '3', '1..9', '1,3,5', '1,4..6'."""
    ranges: list[range] = []
    for token in text.split(","):
        token = token.strip()
        try:
            a_str, dots, b_str = token.partition("..")
            a = int(a_str)
            b = int(b_str) if dots else a
            if a > b:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad {noun} token {token!r} in {text!r}") from None
        ranges.append(range(a, b + 1))
    if sum(r.stop - r.start for r in ranges) > MAX_RANGE_LIST:
        raise ValueError(f"{noun} list {text!r} has more than {MAX_RANGE_LIST} values")
    return [v for r in ranges for v in r]


def parse_digit_spec(text: str) -> DigitSet:
    """Digit sets as range lists; a repeated digit is rejected."""
    return DigitSet(_parse_range_list(text, "digit"))


def parse_depth_spec(text: str) -> list[int]:
    """Depths as range lists, sorted and without repeats."""
    return sorted(set(_parse_range_list(text, "depth")))


def parse_rational(text: str) -> tuple[int, int]:
    """Rationals as 'p/q' or a bare integer."""
    try:
        if "/" in text:
            p_str, q_str = text.split("/", 1)
            return int(p_str), int(q_str)
        return int(text), 1
    except ValueError:
        raise ValueError(f"bad rational {text!r}; expected p/q") from None


def parse_cf(text: str) -> ContinuedFraction:
    """Continued fractions in three forms.

    '0;2,3'        finite word
    '0;2,(1,2)'    preperiod then parenthesized repeating block
    '0;1,2,1,2,...'  trailing ellipsis: the listed digits repeat forever
    """
    s = text.strip().strip("[]").replace(" ", "")
    if not s.startswith("0;"):
        raise ValueError(f"continued fraction must start with '0;', got {text!r}")
    body = s[2:]
    if body.endswith("..."):  # the listed digits are the period: '(digits)'
        body = "(" + body[:-3].rstrip(",") + ")"
    try:
        if "(" in body:
            head, _, rest = body.partition("(")
            if not rest.endswith(")"):
                raise ValueError
            period = tuple(int(t) for t in rest[:-1].split(","))
            head = head.rstrip(",")
            preperiod = tuple(int(t) for t in head.split(",")) if head else ()
            return ContinuedFraction(preperiod, period)
        return ContinuedFraction(tuple(int(t) for t in body.split(",")))
    except ValueError:
        raise ValueError(f"cannot parse continued fraction {text!r}") from None


def _root_record(root: MoranRoot) -> dict[str, Any]:
    return {
        "s": mpf_str(root.s),
        "s_float": float(root.s),
        "residual": mpf_str(root.residual, 6),
        "iterations": root.iterations,
        "bracket": [mpf_str(root.bracket[0]), mpf_str(root.bracket[1])],
    }


Records = tuple[dict[str, Any], dict[str, Any], list[dict[str, Any]]]


def _moran(args) -> Records:
    K = parse_digit_spec(args.digits)
    root = _root_record(moran_root(K, args.tol))
    digits = list(K.digits)
    config = {"digits": digits, "tol": args.tol}
    return config, {"digit_set": str(K), "moran_root": root}, [{**root, "digits": digits}]


def _bounds(args) -> Records:
    bounds = asdict(jarnik_bounds(args.n))
    return {"n": args.n}, {"bounds": bounds}, [bounds]


def _verdict(args) -> Records:
    v = preservation_verdict(args.n, args.tol)
    verdict = {**asdict(v), "image_dimension": _root_record(v.image_dimension)}
    row = {
        **verdict["bounds"],  # n, lower, upper
        "s": verdict["image_dimension"]["s"],
        "name": v.preserved.name,
        "value": v.preserved.value,
        "gap": v.gap,
        "tol": v.tol,
    }
    return {"n": args.n, "tol": args.tol}, {"verdict": verdict}, [row]


def _eval(args) -> Records:
    if args.rational is not None:
        p, q = parse_rational(args.rational)
        cf = cf_from_rational(p, q)
        config: dict[str, Any] = {"rational": f"{p}/{q}"}
    else:
        cf = parse_cf(args.cf)
        config = {"cf": args.cf}
    if (total := sum(cf.preperiod) + 2 * sum(cf.period)) > MAX_DIGIT_SUM:  # a period counts twice
        raise ValueError(f"exact value too large: digit sum {total} exceeds {MAX_DIGIT_SUM}")
    value = minkowski_finite(cf) if cf.is_finite else minkowski_periodic(cf)
    result = {"continued_fraction": str(cf), "value": value}
    return config, result, [result]


def _empirical(args) -> Records:
    K = parse_digit_spec(args.digits)
    depths = parse_depth_spec(args.depths)
    side = Side(args.side)
    series = estimate_series(K, depths, side, args.tol, args.budget)
    config = {
        "digits": list(K.digits),
        "depths": depths,
        "side": side.value,
        "tol": args.tol,
        "budget": args.budget,
    }
    rows = [asdict(e) for e in series]
    return config, {"series": rows, "differences": successive_differences(series)}, rows


def _construct(args) -> Records:
    K = parse_digit_spec(args.digits)
    check_budget(K, args.depth, args.budget)  # depth, budget (exit 3), then digit sum (exit 2)
    if (total := K.digits[-1] * (args.depth + 2)) > MAX_DIGIT_SUM:  # + the hull's period
        raise ValueError(f"exact values too large: digit sum {total} exceeds {MAX_DIGIT_SUM}")
    rows = [
        {"word": word, "inf": inf, "sup": sup, "diameter": diameter}
        for word, inf, sup, diameter in image_hulls(K, args.depth, args.budget)
    ]
    config = {"digits": list(K.digits), "depth": args.depth, "budget": args.budget}
    return config, {"cylinders": rows}, rows


@dataclass(frozen=True)
class Command:
    """One subcommand: ``run`` computes its records once.

    ``text`` and ``csv`` each hold a head template and a template for every
    row record; ``text`` may add a foot, printed under two or more rows.
    """

    run: Callable[[argparse.Namespace], Records]
    text: tuple[str, ...]
    csv: tuple[str, str]


COMMANDS: dict[str, Command] = {
    "moran": Command(
        _moran,
        text=(
            "digit set: {digit_set}",
            "Moran root s: {s}\n"
            "residual |f(s)-1|: {residual} ({iterations} evaluations)\n"
            "bracket: [{bracket:, }]",
        ),
        csv=("digits,s,residual,iterations", "{digits: },{s},{residual},{iterations}"),
    ),
    "bounds": Command(
        _bounds,
        text=("n: {n}", "dimension bounds: {lower} <= dim <= {upper}"),
        csv=("n,lower,upper", "{n},{lower},{upper}"),
    ),
    "verdict": Command(
        _verdict,
        text=(
            "n: {n}",
            "dimension bounds: [{lower}, {upper}]\n"
            "image dimension (Moran root): {s}\n"
            "verdict: {name}\n"
            "certified gap: {gap} (tolerance {tol})",
        ),
        csv=("n,lower,upper,moran_root,verdict,gap", "{n},{lower},{upper},{s},{value},{gap}"),
    ),
    "eval": Command(
        _eval,
        text=("input: {continued_fraction}", "value: {value} = {value:decimal}"),
        csv=(
            "continued_fraction,value_exact,value_decimal",
            '"{continued_fraction}",{value},{value:decimal}',
        ),
    ),
    "empirical": Command(
        _empirical,
        text=(
            "digit set: {digits:set}, side: {side}",
            "depth {depth}: s_hat = {s_hat} "
            "({cylinder_count} cylinders, {wall_time_ms:.1f} ms)",
            "successive differences: {differences:, }",
        ),
        csv=(
            "depth,cylinder_count,s_hat,sum_at_root,wall_time_ms",
            "{depth},{cylinder_count},{s_hat},{sum_at_root},{wall_time_ms:.3f}",
        ),
    ),
    "construct": Command(
        _construct,
        text=(
            "digit set: {digits:set}, depth: {depth}",
            "word [{word:-}]: inf {inf}, sup {sup}, diameter {diameter}",
        ),
        csv=(
            "word,inf_exact,sup_exact,inf_decimal,sup_decimal,"
            "diameter_exact,diameter_decimal",
            "{word:-},{inf},{sup},{inf:decimal},{sup:decimal},"
            "{diameter},{diameter:decimal}",
        ),
    ),
}


def _render(name: str, fmt: str, config: dict, result: dict, rows: list[dict]) -> str:
    """The payload of one command in one format, with LF line endings."""
    if fmt == "json":
        return report_json(name, config, result) + "\n"
    cmd = COMMANDS[name]
    head, line, *foot = cmd.text if fmt == "text" else cmd.csv
    scope = {**config, **result}
    lines = [*format_rows(head, [scope]), *format_rows(line, rows)]
    if foot and len(rows) > 1:
        lines += format_rows(foot[0], [scope])
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="minkdim",
        description="Hausdorff dimensions of digit-restricted continued-fraction "
        "sets and of their Minkowski images.",
    )
    parser.add_argument(
        "--version", action="version", version=f"minkdim {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, about: str, tol: float | None = None, budget: bool = False):
        """A subparser with --format and --out, plus --tol and --budget if read."""
        p = sub.add_parser(name, help=about)
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default: text)",
        )
        p.add_argument("--out", help="write output to this path")
        if tol is not None:
            text = f"tolerance (default: {tol})"
            p.add_argument("--tol", type=float, default=tol, help=text)
        if budget:
            text = f"enumeration budget (default: {DEFAULT_BUDGET})"
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=text)
        return p

    p = command("moran", "Moran root for a digit set", moran_solver.DEFAULT_TOLERANCE)
    p.add_argument("--digits", required=True, help="digit set, e.g. 1..9 or 1,3,5")

    p = command("bounds", "dimension bounds for n > 8")
    p.add_argument("--n", type=int, required=True, help="digit ceiling (> 8)")

    p = command("verdict", "preservation verdict", dim_bounds.DEFAULT_TOLERANCE)
    p.add_argument("--n", type=int, required=True, help="digit ceiling (> 8)")

    p = command("eval", "evaluate the Minkowski function")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rational", help="rational argument p/q in (0, 1]")
    group.add_argument("--cf", help="continued fraction, e.g. '0;2,3' or '0;1,(1,2)'")

    tol = empirical_dim.DEFAULT_TOLERANCE
    p = command("empirical", "covering-sum estimates", tol, budget=True)
    p.add_argument("--digits", required=True, help="digit set")
    p.add_argument("--depths", required=True, help="depths, e.g. 1..6 or 3")
    p.add_argument(
        "--side",
        choices=(Side.DOMAIN.value, Side.IMAGE.value),
        default=Side.DOMAIN.value,
        help="which cylinder family (default: domain)",
    )

    p = command("construct", "image cylinder table", budget=True)
    p.add_argument("--digits", required=True, help="digit set")
    p.add_argument("--depth", type=int, required=True, help="cylinder depth (>= 0)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        payload = _render(args.command, args.format, *COMMANDS[args.command].run(args))
    except (BudgetExceededError, ToleranceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)  # ValueError: usage error
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:  # a directory, a missing parent, no permission
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
