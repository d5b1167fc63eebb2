"""Property tests: the CLI answers or exits 2, and the range-list parsers
return or raise ValueError, on generated input.

Every generated integer is at most 10^5 and every range at most 10^4
elements: a continued-fraction digit d builds a denominator of about 2^d, and
a range a..b builds a list of b - a + 1 ints, so unbounded inputs exhaust
memory rather than exercise the code.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkdim.cli import EXIT_OK, EXIT_USAGE, main, parse_depth_spec, parse_digit_spec

MAX_INT = 10**5
MAX_RANGE = 10**4

fuzz = settings(database=None, deadline=None, max_examples=60)


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


@st.composite
def rationals(draw) -> str:
    q = draw(st.integers(1, 10**6))
    return f"{draw(st.integers(1, q))}/{q}"


@fuzz
@given(rationals(), st.sampled_from(["text", "json", "csv"]))
def test_eval_rational_exits_0_or_2(text, fmt):
    assert run(["eval", "--rational", text, "--format", fmt]) in (EXIT_OK, EXIT_USAGE)


digit_tokens = st.integers(1, MAX_INT).map(str)
bad_tokens = st.sampled_from(["", "0", "-3", "x", "1.5", "(", ")"])
tokens = st.lists(
    st.one_of(digit_tokens, digit_tokens, bad_tokens), min_size=1, max_size=6
)


@st.composite
def cf_texts(draw) -> str:
    head = ",".join(draw(tokens))
    body = draw(
        st.sampled_from(
            [
                head,
                f"{head},...",
                f"{head},({','.join(draw(tokens))})",
                f"({head})",
                f"{head},({','.join(draw(tokens))}",  # unbalanced paren
            ]
        )
    )
    prefix = draw(st.sampled_from(["0;", "0;", "", "1;", "[0; "]))  # "" drops "0;"
    return prefix + body


@fuzz
@given(cf_texts(), st.sampled_from(["text", "json", "csv"]))
def test_eval_cf_exits_0_or_2(text, fmt):
    assert run(["eval", "--cf", text, "--format", fmt]) in (EXIT_OK, EXIT_USAGE)


@st.composite
def range_items(draw) -> tuple[str, list[int]]:
    """One range-list token and the ints it spells."""
    a = draw(st.integers(-MAX_INT, MAX_INT))
    if draw(st.booleans()):
        return str(a), [a]
    b = a + draw(st.integers(0, MAX_RANGE - 1))
    return f"{a}..{b}", list(range(a, b + 1))


@fuzz
@given(st.lists(range_items(), min_size=1, max_size=4))
def test_range_lists_parse_to_their_values(items):
    text = ",".join(token for token, _ in items)
    values = [v for _, vs in items for v in vs]
    assert parse_depth_spec(text) == sorted(set(values))
    try:
        K = parse_digit_spec(text)
    except ValueError:
        return  # a repeat, a digit below 1 or fewer than two digits
    assert list(K.digits) == sorted(values)


@pytest.mark.parametrize("parse", [parse_digit_spec, parse_depth_spec])
@fuzz
@given(st.lists(st.one_of(digit_tokens, bad_tokens, st.just("5..3")), min_size=1))
def test_malformed_range_lists_raise_value_error(parse, token_list):
    try:
        parse(",".join(token_list))
    except ValueError:
        pass
