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
JSON ``result`` and the row records that the text and CSV outputs list;
exact rationals stay Fractions until rendering.  Only the format named by
--format is rendered: JSON through DimensionReport, text and CSV through the
entry's templates (a head line, one line per row record and, for text, an
optional foot), which ``report.format_record`` fills from the config, the
result and the row.

Every subcommand accepts --format {text,json,csv} and --out PATH; moran,
verdict and empirical take --tol, whose default is the library's, and
empirical and construct take --budget N, where the environment variable
MINKDIM_BUDGET overrides the default enumeration budget when --budget is
absent.  An option a subcommand does not read is a usage error.  Exit codes:
0 success, 2 usage error, 3 budget exceeded, 4 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable

from . import __version__, dim_bounds, empirical_dim, moran_solver
from .cf_core import (
    DEFAULT_BUDGET,
    ContinuedFraction,
    DigitSet,
    cf_from_rational,
    primitive_root,
)
from .dim_bounds import BoundsInterval, jarnik_bounds, preservation_verdict
from .empirical_dim import Side, estimate_series, successive_differences
from .errors import BudgetExceededError, ToleranceError
from .minkowski_eval import minkowski_finite, minkowski_periodic
from .moran_solver import MIN_TOLERANCE, MoranRoot, moran_root
from .report import DimensionReport, format_record, mpf_str
from .selfsimilar import enumerate_image_cylinders

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_TOLERANCE = 4

MAX_SOLVER_TOLERANCE = 1e-3


def _parse_range_list(text: str, noun: str) -> list[int]:
    """Ranges and/or lists of integers: '3', '1..9', '1,3,5', '1,4..6'."""
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        try:
            if ".." in token:
                a_str, b_str = token.split("..", 1)
                a, b = int(a_str), int(b_str)
                if a > b:
                    raise ValueError
                values.extend(range(a, b + 1))
            else:
                values.append(int(token))
        except ValueError:
            raise ValueError(f"bad {noun} token {token!r} in {text!r}") from None
    return values


def parse_digit_spec(text: str) -> DigitSet:
    """Digit sets as range lists; a repeated digit is rejected."""
    return DigitSet.from_digits(_parse_range_list(text, "digit"))


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
    try:
        if body.endswith("..."):
            word = tuple(int(t) for t in body[:-3].rstrip(",").split(","))
            return ContinuedFraction((), primitive_root(word))
        if "(" in body:
            head, _, rest = body.partition("(")
            if not rest.endswith(")"):
                raise ValueError
            period = tuple(int(t) for t in rest[:-1].split(","))
            head = head.rstrip(",")
            preperiod = tuple(int(t) for t in head.split(",")) if head else ()
            return ContinuedFraction(preperiod, primitive_root(period))
        return ContinuedFraction(tuple(int(t) for t in body.split(",")))
    except ValueError:
        raise ValueError(f"cannot parse continued fraction {text!r}") from None


def resolve_budget(value: int | None) -> int:
    """--budget flag, else MINKDIM_BUDGET, else the library default."""
    if value is None:
        env = os.environ.get("MINKDIM_BUDGET")
        if env is None:
            return DEFAULT_BUDGET
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"MINKDIM_BUDGET is not an integer: {env!r}") from None
    if value < 1:
        raise ValueError("budget must be a positive integer")
    return value


def _solver_tol(tol: float) -> float:
    if not MIN_TOLERANCE <= tol <= MAX_SOLVER_TOLERANCE:
        raise ValueError(
            f"tolerance must lie in [2^-50, {MAX_SOLVER_TOLERANCE}], got {tol}"
        )
    return tol


def _root_record(root: MoranRoot) -> dict[str, Any]:
    return {
        "s": mpf_str(root.s),
        "s_float": float(root.s),
        "residual": mpf_str(root.residual, 6),
        "iterations": root.iterations,
        "bracket": [mpf_str(root.bracket[0]), mpf_str(root.bracket[1])],
    }


def _bounds_record(bounds: BoundsInterval) -> dict[str, Any]:
    return {"n": bounds.n, "lower": bounds.lower, "upper": bounds.upper}


Records = tuple[dict[str, Any], dict[str, Any], list[dict[str, Any]]]


def _moran(args) -> Records:
    K = parse_digit_spec(args.digits)
    tol = _solver_tol(args.tol)
    root = _root_record(moran_root(K, tol))
    config = {"digits": list(K.digits), "tol": tol}
    return config, {"digit_set": str(K), "moran_root": root}, [root]


def _bounds(args) -> Records:
    bounds = _bounds_record(jarnik_bounds(args.n))
    return {"n": args.n}, {"bounds": bounds}, [bounds]


def _verdict(args) -> Records:
    v = preservation_verdict(args.n, args.tol)
    verdict = {
        **vars(v),
        "bounds": _bounds_record(v.bounds),
        "image_dimension": _root_record(v.image_dimension),
    }
    return {"n": args.n, "tol": args.tol}, {"verdict": verdict}, [verdict]


def _eval(args) -> Records:
    if args.rational is not None:
        p, q = parse_rational(args.rational)
        cf = cf_from_rational(p, q)
        config: dict[str, Any] = {"rational": f"{p}/{q}"}
    else:
        cf = parse_cf(args.cf)
        config = {"cf": args.cf}
    if cf.is_finite:
        value = minkowski_finite(cf).as_fraction()
    else:
        value = minkowski_periodic(cf)
    result = {"continued_fraction": str(cf), "value": value}
    return config, result, [result]


def _empirical(args) -> Records:
    K = parse_digit_spec(args.digits)
    depths = parse_depth_spec(args.depths)
    side = Side(args.side)
    tol = _solver_tol(args.tol)
    budget = resolve_budget(args.budget)
    series = estimate_series(K, depths, side, tol, budget)
    config = {
        "digits": list(K.digits),
        "depths": depths,
        "side": side.value,
        "tol": tol,
        "budget": budget,
    }
    rows = [asdict(e) for e in series]
    return config, {"series": rows, "differences": successive_differences(series)}, rows


def _construct(args) -> Records:
    K = parse_digit_spec(args.digits)
    budget = resolve_budget(args.budget)
    rows = [
        {
            "word": cyl.word,
            "inf": cyl.enclosure.lo,
            "sup": cyl.enclosure.hi,
            "diameter": cyl.diameter,
        }
        for cyl in enumerate_image_cylinders(K, args.depth, budget)
    ]
    config = {"digits": list(K.digits), "depth": args.depth, "budget": budget}
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
            "dimension bounds: [{bounds[lower]}, {bounds[upper]}]\n"
            "image dimension (Moran root): {image_dimension[s]}\n"
            "verdict: {preserved.name}\n"
            "certified gap: {gap} (tolerance {tol})",
        ),
        csv=(
            "n,lower,upper,moran_root,verdict,gap",
            "{n},{bounds[lower]},{bounds[upper]},{image_dimension[s]},"
            "{preserved.value},{gap}",
        ),
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
        return DimensionReport(name, config, result).to_json() + "\n"
    cmd = COMMANDS[name]
    head, line, *foot = cmd.text if fmt == "text" else cmd.csv
    scope = {**config, **result}
    lines = [format_record(head, scope)]
    lines += [format_record(line, {**scope, **row}) for row in rows]
    if foot and len(rows) > 1:
        lines.append(format_record(foot[0], scope))
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
            text = f"enumeration budget (default: MINKDIM_BUDGET or {DEFAULT_BUDGET})"
            p.add_argument("--budget", type=int, help=text)
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
        records = COMMANDS[args.command].run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = _render(args.command, args.format, *records)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
