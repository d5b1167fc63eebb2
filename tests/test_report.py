"""Report rendering: decimal contract, JSON envelope, and the two renderers
against the standard library's: ``report_json`` against ``json.dumps`` and
``format_record`` against a ``string.Formatter`` with the same rules."""

import json
import re
import string
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkdim import DyadicRational, __version__
from minkdim.cli import COMMANDS, build_parser
from minkdim.report import (
    DECIMAL_SIGNIFICANT_DIGITS,
    SCHEMA_VERSION,
    _json_value,
    _parsed,
    decimal_str,
    exact_number,
    format_record,
    fraction_str,
    mpf_str,
    report_json,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import golden  # noqa: E402

RECORD_ARGVS = [
    *golden.README_COMMANDS.values(),
    ["construct", "--digits", "1,6", "--depth", "5"],
    ["construct", "--digits", "2,3,5,8", "--depth", "3"],  # odd depth, shared digit sums
]
ARGV_IDS = [*golden.README_COMMANDS, "construct-1,6@5", "construct-2,3,5,8@3"]


class TestDecimalRendering:
    def test_fifteen_significant_digits(self):
        assert decimal_str(Fraction(6, 7)) == "0.857142857142857"
        assert decimal_str(Fraction(1, 3)) == "0.333333333333333"
        assert decimal_str(Fraction(3, 4)) == "0.75"
        assert decimal_str(Fraction(1)) == "1"

    def test_round_half_even_at_boundary(self):
        # exact decimal ties one digit past the 15 kept: odd rounds up,
        # even stays
        assert decimal_str(Fraction(1234567890123455, 10**16)) == "0.123456789012346"
        assert decimal_str(Fraction(1234567890123445, 10**16)) == "0.123456789012344"

    @settings(database=None, deadline=None, max_examples=300)
    @example(Fraction(-(2**14284) + 1, 2**14284 - 3))
    @example(Fraction(2**14284, 3**9011))
    @given(
        st.one_of(
            st.fractions(),
            st.builds(  # numerators and denominators up to 2^14284, either sign
                Fraction,
                st.integers(min_value=-(2**14284), max_value=2**14284),
                st.integers(min_value=1, max_value=2**14284),
            ),
        )
    )
    def test_matches_decimal_division(self, fr):
        with localcontext(Context(DECIMAL_SIGNIFICANT_DIGITS, ROUND_HALF_EVEN)):
            expected = Decimal(fr.numerator) / Decimal(fr.denominator)
        assert decimal_str(fr) == str(expected)

    def test_fraction_and_pair(self):
        assert fraction_str(Fraction(2, 7)) == "2/7"
        pair = exact_number(Fraction(2, 7))
        assert pair == {"exact": "2/7", "decimal": "0.285714285714286"}

    def test_mpf_rendering(self):
        from mpmath import mpf

        assert mpf_str(mpf(0.5)) == "0.5"


class TestDimensionReport:
    def test_envelope_fields(self):
        payload = json.loads(report_json("moran", {"digits": [1, 2]}, {"x": 1.5}))
        assert set(payload) == {
            "schema_version",
            "command",
            "config",
            "result",
            "diagnostics",
        }
        assert payload["diagnostics"]["tool_version"]


def command_records(argv: list[str]):
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command].run(args)


def dumps_report(command: str, config: dict, result: dict) -> str:
    """The JSON report as ``json.dumps(indent=2)`` writes it."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
        "diagnostics": {"tool_version": __version__},
    }
    return json.dumps(report, indent=2, default=_json_value)


class Colour(Enum):
    RED = "red"
    BLUE = 2


class Rank(IntEnum):
    LOW = -3


class Tag(str, Enum):
    NAME = "na\"me"


JSON_SCALARS = st.one_of(
    st.text(),  # non-ASCII, quotes, backslashes and control characters
    st.text(alphabet=st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.floats(),  # with nan and +-inf
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.fractions(),
    st.sampled_from([*Colour, *Rank, *Tag]),
)
WIDE_INTS = st.one_of(  # past 2^64 on both sides
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=10**40),
    st.integers(min_value=-(10**40), max_value=-(2**64)),
)


def ints_then(last):
    """An int list, possibly empty, ending in one item drawn from ``last``."""
    return st.tuples(st.lists(WIDE_INTS, max_size=4), last).map(lambda t: [*t[0], t[1]])


# The values the JSON writer spells in one step, and the look-alikes it must
# leave to the generic path: bool and IntEnum items, Fraction subclasses.
JSON_ARMS = st.fixed_dictionaries(
    {
        "ints": st.lists(WIDE_INTS, min_size=1, max_size=6),
        "int_tuple": st.lists(WIDE_INTS, min_size=1, max_size=6).map(tuple),
        "past_2_64": ints_then(st.integers(min_value=2**64, max_value=10**40)),
        "bools": st.lists(st.booleans(), min_size=1, max_size=6),
        "ranks": st.lists(st.sampled_from(Rank), min_size=1, max_size=6),
        "mixed": ints_then(st.sampled_from([True, *Rank])),
        "fraction": st.fractions(),
        "dyadic": st.builds(
            DyadicRational, WIDE_INTS, st.integers(min_value=0, max_value=80).map(lambda e: 2**e)
        ),
    }
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        JSON_ARMS,
    ),
    max_leaves=24,
)


class TestJsonWriter:
    @pytest.mark.parametrize("argv", RECORD_ARGVS, ids=ARGV_IDS)
    def test_matches_json_dumps_on_command_records(self, argv):
        config, result, _ = command_records(argv)
        assert report_json(argv[0], config, result) == dumps_report(argv[0], config, result)

    @settings(database=None, deadline=None, max_examples=300)
    @given(JSON_TREES, JSON_TREES, JSON_ARMS)
    def test_matches_json_dumps(self, config, tree, arms):
        result = {"tree": tree, "arms": arms}  # every example holds every arm
        assert report_json("x", config, result) == dumps_report("x", config, result)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="complex"):
            report_json("x", {}, {"z": 1j})


class _StringFormatter(string.Formatter):
    """The record rules as a ``string.Formatter``: the test oracle."""

    def format_field(self, value, spec):
        if isinstance(value, Fraction):
            return decimal_str(value) if spec == "decimal" else fraction_str(value)
        if isinstance(value, (list, tuple)):
            if spec == "set":
                return "{" + ", ".join(map(str, value)) + "}"
            return spec.join(map(str, value))
        return format(value, spec)


class TestFormatRecord:
    @pytest.mark.parametrize("argv", RECORD_ARGVS, ids=ARGV_IDS)
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_matches_string_formatter(self, argv, fmt):
        config, result, rows = command_records(argv)
        scope = {**config, **result}
        head, line, *foot = getattr(COMMANDS[argv[0]], fmt)
        cases = [(head, scope), *((line, {**scope, **row}) for row in rows)]
        cases += [(template, scope) for template in foot]
        oracle = _StringFormatter()
        for template, record in cases:
            assert format_record(template, record) == oracle.vformat(template, (), record)

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_templates_parse(self, name):
        for template in (*COMMANDS[name].text, *COMMANDS[name].csv):
            skeleton, fields = _parsed(template)
            assert skeleton.count("{}") == len(fields)
            assert all(key in template for key, _, _ in fields)

    @pytest.mark.parametrize(
        "template",
        ["{x!r}", "{x!s:>3}", "a {x!a}", "{x:{y}}", "{x:>{w}}", "{}", "{0}", "{0[1]}"]
        + ["x {a", "x }a", "{x.}"],  # malformed: raised by string.Formatter itself
    )
    def test_unsupported_fields_rejected(self, template):
        with pytest.raises(ValueError, match=re.escape(repr(template))):
            format_record(template, {"x": 1, "y": "", "w": 3})

    def test_literal_braces(self):
        assert format_record("{{{x}}} }}{{", {"x": Fraction(1, 2)}) == "{1/2} }{"

    def test_lookups_and_specs(self):
        record = {"x": {"k": [Fraction(1, 3), 2]}, "c": Colour.RED, "w": (1, 2)}
        template = "{x[k][0]} {x[k][0]:decimal} {c.value} {c.name} {w:-} {w:set} {x[k][1]:>3}"
        assert format_record(template, record) == "1/3 0.333333333333333 red RED 1-2 {1, 2}   2"
