"""Report rendering: decimal contract, JSON envelope, and the two renderers
against the standard library's: ``report_json`` against ``json.dumps`` and
``format_rows`` against a ``string.Formatter`` with the same rules."""

import json
import string
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkdim import DyadicRational, Preservation, Side, __version__
from minkdim.cli import COMMANDS, build_parser
from minkdim.report import (
    DECIMAL_SIGNIFICANT_DIGITS,
    SCHEMA_VERSION,
    _parsed,
    decimal_str,
    format_rows,
    fraction_str,
    mpf_str,
    report_json,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import golden  # noqa: E402

EXTRA_ARGVS = {  # every record shape the CLI builds beyond the README's
    "construct-1,6@5": ["construct", "--digits", "1,6", "--depth", "5"],
    "construct-2,3,5,8@3": ["construct", "--digits", "2,3,5,8", "--depth", "3"],  # odd depth
    "construct-1,6@0": ["construct", "--digits", "1,6", "--depth", "0"],  # the empty word
    "empirical-image": ["empirical", "--digits", "1,2", "--side", "image", "--depths", "1..3"],
    "empirical-one-depth": ["empirical", "--digits", "1,2", "--depths", "4"],  # differences []
    "eval-cf-odd": ["eval", "--cf", "0;1,2,(3,4,5)"],
    "eval-rational-1": ["eval", "--rational", "1"],
    "verdict-20000": ["verdict", "--n", "20000"],
}
RECORD_ARGVS = [*golden.README_COMMANDS.values(), *EXTRA_ARGVS.values()]
ARGV_IDS = [*golden.README_COMMANDS, *EXTRA_ARGVS]


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
        payload = json.loads(report_json("eval", {"rational": "2/7"}, {"value": Fraction(2, 7)}))
        assert payload["result"]["value"] == {"exact": "2/7", "decimal": "0.285714285714286"}

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


def json_default(value):
    """The contract's JSON form of what ``json.dumps`` cannot spell: a
    Fraction (and any subclass) as its exact and decimal pair, an Enum as its
    value."""
    if isinstance(value, Fraction):
        return {"exact": fraction_str(value), "decimal": decimal_str(value)}
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dumps_report(command: str, config: dict, result: dict) -> str:
    """The JSON report as ``json.dumps(indent=2)`` writes it."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
        "diagnostics": {"tool_version": __version__},
    }
    return json.dumps(report, indent=2, default=json_default)


class Colour(Enum):  # int values; Preservation and Side hold str values
    RED = 1
    BLUE = 2


class Rank(IntEnum):
    LOW = -3


class Tag(str, Enum):
    NAME = "na\"me"


WIDE_INTS = st.one_of(  # past 2^64 on both sides
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=10**40),
    st.integers(min_value=-(10**40), max_value=-(2**64)),
)


def ints_then(last):
    """An int list, possibly empty, ending in one item drawn from ``last``."""
    return st.tuples(st.lists(WIDE_INTS, max_size=4), last).map(lambda t: [*t[0], t[1]])


DYADICS = st.builds(
    DyadicRational, WIDE_INTS, st.integers(min_value=0, max_value=80).map(lambda e: 2**e)
)


def rows_of(columns: dict):
    """Dicts with ``columns``' keys in its order, each value drawn from its
    strategy: a lone dict, or the rows of a table when drawn many times."""
    return st.fixed_dictionaries(columns).map(lambda row: {key: row[key] for key in columns})


# The values the JSON writer spells in one step, and the look-alikes it must
# tell apart: int words past 2^64, IntEnum items (written as their value),
# Fraction subclasses alone and in a column (written as the pair).
JSON_ARMS = rows_of(
    {
        "ints": st.lists(WIDE_INTS, min_size=1, max_size=6),
        "int_tuple": st.lists(WIDE_INTS, min_size=1, max_size=6).map(tuple),
        "past_2_64": ints_then(st.integers(min_value=2**64, max_value=10**40)),
        "ranks": st.lists(st.sampled_from(Rank), min_size=1, max_size=6),
        "fraction": st.fractions(),
        "dyadic": DYADICS,
        "dyadics": st.lists(DYADICS, min_size=2, max_size=4),
    }
)
SHARED = Fraction(-5, 3)  # one object in many cells of a table
SCALAR_KINDS = (  # one strategy per scalar kind that reports hold
    st.one_of(
        st.text(),  # non-ASCII, quotes, backslashes and control characters
        st.text(alphabet=st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')),
    ),
    st.one_of(st.integers(min_value=-(10**40), max_value=10**40), WIDE_INTS),
    st.one_of(  # with nan and +-inf
        st.floats(), st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
    ),
    st.one_of(st.just(SHARED), st.fractions()),
    DYADICS,
    st.sampled_from(Colour),
    st.sampled_from(Rank),
    st.sampled_from(Tag),
    st.sampled_from(Preservation),
    st.sampled_from(Side),
)


# A kind is the strategy for the values of one kind that reports hold: a
# scalar kind, JSON_ARMS, lists or tuples of one kind (a list of an int kind
# is a word, of a dict kind a table), or non-empty dicts of one key order
# whose values are each of one kind.
KINDS = st.recursive(
    st.sampled_from([*SCALAR_KINDS, JSON_ARMS]),
    lambda kinds: st.one_of(
        kinds.map(lambda kind: st.lists(kind, max_size=3)),
        kinds.map(lambda kind: st.lists(kind, max_size=3).map(tuple)),
        st.dictionaries(st.text(max_size=4), kinds, min_size=1, max_size=4).map(rows_of),
    ),
    max_leaves=6,
)
JSON_TREES = KINDS.flatmap(lambda kind: kind)


class TestJsonWriter:
    @pytest.mark.parametrize("argv", RECORD_ARGVS, ids=ARGV_IDS)
    def test_matches_json_dumps_on_command_records(self, argv):
        config, result, _ = command_records(argv)
        assert report_json(argv[0], config, result) == dumps_report(argv[0], config, result)

    @settings(database=None, deadline=None, max_examples=300)
    @example(  # tables with shared and per-row cells
        {"digits": [1, 2]},
        [{"w": (), "x": SHARED}, {"w": (1, 2), "x": SHARED}, {"w": (3,), "x": Fraction(1, 3)}],
        [{"a": SHARED, "b": ()}, {"a": SHARED, "b": (4,)}],
    )
    @example({"n": 9}, Preservation.NOT_PRESERVED, {"ints": [1]})  # a lone Enum
    @example({"n": 9}, [[], ["a", "b"]], {"ints": [1]})  # an empty column beside a full one
    @given(JSON_TREES, JSON_TREES, JSON_ARMS)
    def test_matches_json_dumps(self, config, tree, arms):
        result = {"tree": tree, "arms": arms}  # every example holds every arm
        assert report_json("x", config, result) == dumps_report("x", config, result)

    def test_empty_word(self):
        text = report_json("x", {"depth": 2}, {"words": [[], [1, 2], [3]]})
        assert '"words": [\n      [],\n      [\n        1,\n        2\n      ],' in text
        assert json.loads(text)["result"]["words"] == [[], [1, 2], [3]]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="complex"):
            report_json("x", {"n": 9}, {"z": 1j})

    def test_table_rows_share_one_key_order(self):
        # a row in another key order raises rather than write a cell under
        # the wrong key
        with pytest.raises(ValueError):
            report_json("x", {"n": 9}, {"rows": [{"a": 1, "b": 2}, {"b": 3, "a": 4}]})


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


def oracle_lines(template, rows):
    oracle = _StringFormatter()
    return [oracle.vformat(template, (), row) for row in rows]


def template_fields(template: str) -> tuple[tuple[str, str], ...]:
    """The (key, spec) of each field of a template that ``_parsed`` handles:
    a field names a row key, an identifier, with no lookup ("[0]", ".name"),
    conversion, or nested or positional field.  Anything else raises
    ValueError, as does a malformed template (from ``string.Formatter``)."""
    fields = []
    for _, name, spec, conversion in string.Formatter().parse(template):
        if name is None:
            continue
        if conversion is not None or "{" in spec or not name.isidentifier():
            raise ValueError(f"unsupported field {{{name}}} in template {template!r}")
        fields.append((name, spec))
    return tuple(fields)


class TestFormatRecord:
    @pytest.mark.parametrize("argv", RECORD_ARGVS, ids=ARGV_IDS)
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_matches_string_formatter(self, argv, fmt):
        config, result, rows = command_records(argv)
        scope = {**config, **result}
        head, line, *foot = getattr(COMMANDS[argv[0]], fmt)
        assert format_rows(line, rows) == oracle_lines(line, rows)
        for template in (head, *foot):
            assert format_rows(template, [scope])[0] == oracle_lines(template, [scope])[0]

    def test_shared_objects_render_per_row(self):
        # one Fraction object in several rows, beside others of equal value
        rows = [{"x": SHARED, "w": (1, 2)}, {"x": SHARED, "w": (8, 9)}]
        rows += [{"x": Fraction(-5, 3), "w": ()}, {"x": SHARED, "w": (3,)}]
        rows += [{"x": Fraction(1, 7), "w": (4,)}, {"x": Fraction(3, 8), "w": (5, 6)}]
        rows = [{**row, "n": 5, "d": DyadicRational(3, 8)} for row in rows]
        template = "{x} {x:decimal} [{w:-}] {w:set} {n:>3} {d} {d:decimal}"
        assert format_rows(template, rows) == oracle_lines(template, rows)

    def test_word_edge_cases(self):
        # mixed lengths, the empty word, bool and float items, lists as well
        # as tuples, and a "%" in an item, plain and in the set braces
        rows = [{"w": (1, True)}, {"w": (2, 1.5)}, {"w": ()}, {"w": ("a%s",)}]
        assert format_rows("{w:-}", rows) == ["1-True", "2-1.5", "", "a%s"]
        assert format_rows("{w:-}", [{"w": [2, 1]}, {"w": []}]) == ["2-1", ""]
        assert format_rows("{w:set}", [{"w": (3, 10)}, {"w": ("%d",)}]) == ["{3, 10}", "{%d}"]

    def test_no_rows_and_no_fields(self):
        assert format_rows("{missing}", []) == []
        assert format_rows("a,{{b}}", [{}, {"x": 1}]) == ["a,{b}", "a,{b}"]

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_templates_parse(self, name):
        for template in (*COMMANDS[name].text, *COMMANDS[name].csv):
            # _parsed trusts the templates; this is where they are checked
            skeleton, fields = _parsed(template)
            assert skeleton.count("{}") == len(fields)
            assert fields == template_fields(template)

    @pytest.mark.parametrize(
        "template",
        ["{x!r}", "{x!s:>3}", "a {x!a}", "{x:{y}}", "{x:>{w}}", "{}", "{0}", "{0[1]}"]
        + ["{x[0]}", "{x.y}"]  # lookups: a field names a row key only
        + ["x {a", "x }a", "{x.}"],  # malformed: raised by string.Formatter itself
    )
    def test_unsupported_fields_rejected(self, template):
        # the template check above refuses every field form _parsed does not handle
        with pytest.raises(ValueError):
            template_fields(template)

    def test_literal_braces(self):
        assert format_rows("{{{x}}} }}{{", [{"x": Fraction(1, 2)}])[0] == "{1/2} }{"

    def test_lookups_and_specs(self):
        # a spec applies to the row key's value; no field looks into it
        record = {"x": Fraction(1, 3), "w": (1, 2), "k": 2}
        template = "{x} {x:decimal} {w:-} {w:set} {k:>3}"
        assert format_rows(template, [record])[0] == "1/3 0.333333333333333 1-2 {1, 2}   2"
