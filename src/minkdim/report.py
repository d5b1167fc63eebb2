"""Report assembly: exact values with decimal companions.

Reports are the public output contract of the CLI.  Exact rationals are
rendered both as "p/q" strings and as decimals with 15 significant digits
(round-half-even); solver outputs carry high-precision decimal strings.  A
report serializes to a JSON object with top-level fields {schema_version,
command, config, result, diagnostics}.  Records keep exact rationals as
Fractions until one format renders them.  ``format_record`` fills text and CSV
templates, each parsed once into a skeleton and its fields; each field is one
``_field_str`` call.  ``report_json`` writes {"exact", "decimal"} pairs in the
layout of ``json.dumps(indent=2)``, without its pure-Python encoder.  Three
kinds of value are written in one step each: str, int and float scalars; a
value of type exactly Fraction, as its pair; and a non-empty list or tuple of
items all of type exactly int, as one join.  Types are matched exactly, so
bool, IntEnum and other subclasses (DyadicRational among them) take the
generic path that json.dumps spells.
"""

from __future__ import annotations

import functools
import json
import string
import sys
from _string import formatter_field_name_split  # string.Formatter's own splitter
from decimal import ROUND_HALF_EVEN, Context
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any

from mpmath import mp

from . import __version__

SCHEMA_VERSION = "1"
DECIMAL_SIGNIFICANT_DIGITS = 15
_DECIMAL = Context(prec=DECIMAL_SIGNIFICANT_DIGITS, rounding=ROUND_HALF_EVEN)


def fraction_str(fr: Fraction) -> str:
    try:
        return "%d/%d" % fr.as_integer_ratio()
    except ValueError:  # the interpreter's message names a call CLI users cannot make
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"exact value too long to print (over {limit} digits)") from None


def decimal_str(fr: Fraction) -> str:
    """Decimal rendering of an exact rational at DECIMAL_SIGNIFICANT_DIGITS."""
    return str(_DECIMAL.divide(*fr.as_integer_ratio()))  # ints convert exactly


def exact_number(fr: Fraction) -> dict[str, str]:
    """JSON value for an exact rational: exact and decimal forms together."""
    return {"exact": fraction_str(fr), "decimal": decimal_str(fr)}


def mpf_str(x, digits: int = 20) -> str:
    """High-precision decimal string for a solver real."""
    return mp.nstr(x, digits)


def _field_str(value: Any, spec: str) -> str:
    """One record field under the rules of ``format_record``."""
    if isinstance(value, Fraction):
        return decimal_str(value) if spec == "decimal" else fraction_str(value)
    if isinstance(value, (list, tuple)):
        if spec == "set":
            return "{" + ", ".join(map(str, value)) + "}"
        return spec.join(map(str, value))
    return format(value, spec)


@functools.cache
def _parsed(template: str) -> tuple[str, tuple[tuple[str, tuple, str], ...]]:
    """A skeleton with "{}" per field, and each field's (key, lookups, spec):
    ``lookups`` are (is_attribute, name) steps, split as ``str.format`` splits
    them ("[0]" is an int).  Conversions, nested and positional fields raise,
    as does a malformed template; each error names the template."""
    skeleton, fields = [], []
    try:
        for literal, name, spec, conversion in string.Formatter().parse(template):
            skeleton.append(literal.replace("{", "{{").replace("}", "}}"))
            if name is None:
                continue
            key, lookups = formatter_field_name_split(name)
            if conversion is not None or "{" in spec or not (isinstance(key, str) and key):
                raise ValueError(f"unsupported field {{{name}}}")
            skeleton.append("{}")
            fields.append((key, tuple(lookups), spec))
    except ValueError as exc:
        raise ValueError(f"{exc} in template {template!r}") from None
    return "".join(skeleton), tuple(fields)


def format_record(template: str, record: dict[str, Any]) -> str:
    """``template.format_map(record)`` with the contract's renderings.

    A Fraction field renders as "p/q", or as its decimal under the spec
    "decimal"; a list or tuple field joins its items with the spec as the
    separator, or braces them like a digit set under the spec "set".
    """
    skeleton, fields = _parsed(template)
    values = []
    for key, lookups, spec in fields:
        value = record[key]
        for is_attribute, name in lookups:
            value = getattr(value, name) if is_attribute else value[name]
        values.append(_field_str(value, spec))
    return skeleton.format(*values)


def _json_value(value: Any) -> Any:
    """JSON form of the values records keep until rendering."""
    if isinstance(value, Fraction):
        return exact_number(value)
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_JSON_SCALARS = {  # the bulk of a report, at C speed; json.dumps spells the rest
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if isfinite(x) else json.dumps(x),
}


def _json_text(value: Any, pad: str = "") -> str:
    """``json.dumps(value, indent=2, default=_json_value)`` of a string-keyed
    record, written ``pad`` deep."""
    if (encode := _JSON_SCALARS.get(type(value))) is not None:
        return encode(value)
    inner = pad + "  "
    if type(value) is Fraction:  # exact_number's pair; its strings need no escapes
        return (
            f'{{\n{inner}"exact": "{fraction_str(value)}",\n'
            f'{inner}"decimal": "{decimal_str(value)}"\n{pad}}}'
        )
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif value is None or isinstance(value, (str, int, float)):  # bool, subclasses
        return json.dumps(value)
    elif not isinstance(value, (list, tuple)):
        return _json_text(_json_value(value), pad)
    elif {*map(type, value)} == {int}:  # a word or a digit list, at C speed
        items = list(map(int.__repr__, value))
        brackets = "[]"
    else:
        items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def report_json(command: str, config: dict[str, Any], result: dict[str, Any]) -> str:
    """One CLI invocation's machine-readable output, as indented JSON."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
        "diagnostics": {"tool_version": __version__},
    }
    return _json_text(report)
