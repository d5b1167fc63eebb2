"""Report assembly: exact values with decimal companions.

Reports are the public output contract of the CLI.  Exact rationals are
rendered both as "p/q" strings and as decimals with 15 significant digits
(round-half-even); solver outputs carry high-precision decimal strings.  A
report serializes to a JSON object with top-level fields {schema_version,
command, config, result, diagnostics}.  Records keep exact rationals as
Fractions until one format renders them.

``format_rows`` fills a text or CSV template, parsed once into a skeleton and
its fields, for every row at once, a column at a time: each field's values
are gathered and looked up, each column is rendered through one map, and the
skeleton is filled from the columns.  A column of one scalar type (str, int or
float) maps ``format`` with the field's spec.  In any other column each
distinct object is rendered once (a diameter shared by many rows, a scope
value repeated on every row): through ``fraction_str`` or ``decimal_str``
when all are Fractions, the spec's join when all are lists or all tuples, and
``_field_str`` otherwise.

``report_json`` writes {"exact", "decimal"} pairs in the layout of
``json.dumps(indent=2)``, without its pure-Python encoder.  Three kinds of
value are written in one step each: str, int and float scalars; a value of
type exactly Fraction, as its pair; and a non-empty list or tuple of items all
of type exactly int, as one join.  A list or tuple of two or more dicts with
one key order, and at least one key, is written as a table: one row skeleton
from the keys, filled a column at a time by the same rules.  Types are matched
exactly, so bool, IntEnum and other subclasses (DyadicRational among them)
take the generic path that json.dumps spells.
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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Sequence

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
    """One record field under the rules of ``format_rows``."""
    if isinstance(value, Fraction):
        return decimal_str(value) if spec == "decimal" else fraction_str(value)
    if isinstance(value, (list, tuple)):
        if spec == "set":
            return "{" + ", ".join(map(str, value)) + "}"
        return spec.join(map(str, value))
    return format(value, spec)


def _literal(text: str) -> str:
    """``text`` as literal text of a ``str.format`` skeleton."""
    return text.replace("{", "{{").replace("}", "}}")


@functools.cache
def _parsed(template: str) -> tuple[str, tuple[tuple[str, tuple, str], ...]]:
    """A skeleton with "{}" per field, and each field's (key, lookups, spec):
    ``lookups`` are (is_attribute, name) steps, split as ``str.format`` splits
    them ("[0]" is an int).  Conversions, nested and positional fields raise,
    as does a malformed template; each error names the template."""
    skeleton, fields = [], []
    try:
        for literal, name, spec, conversion in string.Formatter().parse(template):
            skeleton.append(_literal(literal))
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


def _by_identity(
    values: Sequence, render: Callable[[Iterable, str], Iterable[str]], arg: str
) -> list[str]:
    """``list(render(values, arg))``, calling ``render`` once, on each distinct
    object of ``values`` in first-seen order.  Objects are told apart by
    ``id``, which is sound because ``values`` keeps every one of them alive."""
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))
    strs = list(render(distinct.values(), arg))
    if len(distinct) == len(values):
        return strs
    return list(map(dict(zip(distinct, strs)).__getitem__, ids))


def _one_type(values: Iterable) -> type | None:
    """The type of every value, or None if they have more than one."""
    types = {*map(type, values)}
    return types.pop() if len(types) == 1 else None


def _field_column(values: Sequence, spec: str) -> list[str]:
    """``_field_str`` of each value, each distinct object once; scalars of one
    type are quicker to write than to tell apart."""
    if _one_type(values) in (str, int, float):
        return list(map(format, values, repeat(spec)))
    return _by_identity(values, _field_cells, spec)


def _field_cells(values: Iterable, spec: str) -> Iterable[str]:
    """``_field_str`` of each value, at C speed where the types allow."""
    kind = _one_type(values)
    if kind is Fraction:
        return map(decimal_str if spec == "decimal" else fraction_str, values)
    if kind in (list, tuple) and spec != "set":  # words joined by the spec
        return map(spec.join, map(map, repeat(str), values))
    return map(_field_str, values, repeat(spec))


def format_rows(template: str, scope: dict[str, Any], rows: list[dict[str, Any]]) -> list[str]:
    """``template.format_map({**scope, **row})`` for each row, with the
    contract's renderings, built a column at a time.

    A Fraction field renders as "p/q", or as its decimal under the spec
    "decimal"; a list or tuple field joins its items with the spec as the
    separator, or braces them like a digit set under the spec "set".
    """
    skeleton, fields = _parsed(template)
    if not fields:
        return [skeleton.format()] * len(rows)
    columns = []
    for key, lookups, spec in fields:
        column = [row[key] if key in row else scope[key] for row in rows]
        for is_attribute, name in lookups:
            column = list(map(attrgetter(name) if is_attribute else itemgetter(name), column))
        columns.append(_field_column(column, spec))
    return list(map(skeleton.format, *columns))


def format_record(template: str, record: dict[str, Any]) -> str:
    """The one line ``format_rows`` makes of ``record`` alone."""
    return format_rows(template, record, [{}])[0]


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


def _pair(pad: str) -> str:
    """Skeleton of exact_number's pair written ``pad`` deep; its strings need
    no escapes."""
    inner = pad + "  "
    return f'{{{{\n{inner}"exact": "{{}}",\n{inner}"decimal": "{{}}"\n{pad}}}}}'


def _json_column(values: Sequence, pad: str) -> list[str]:
    """``_json_text`` of each value, ``pad`` deep, each distinct object once;
    scalars of one type are quicker to write than to tell apart."""
    if (encode := _JSON_SCALARS.get(_one_type(values))) is not None:
        return list(map(encode, values))
    return _by_identity(values, _json_cells, pad)


def _json_cells(values: Iterable, pad: str) -> Iterable[str]:
    """``_json_text`` of each value, ``pad`` deep, at C speed where the types
    allow."""
    kind = _one_type(values)
    if kind is Fraction:
        return map(_pair(pad).format, map(fraction_str, values), map(decimal_str, values))
    if kind in (list, tuple) and {*map(type, chain.from_iterable(values))} <= {int}:
        inner = pad + "  "
        joined = map(f",\n{inner}".join, map(map, repeat(int.__repr__), values))
        return [f"[\n{inner}{items}\n{pad}]" if items else "[]" for items in joined]
    return map(_json_text, values, repeat(pad))


def _json_table(rows: Sequence[dict], pad: str) -> list[str]:
    """``_json_text`` of each of ``rows``, dicts with one key order, ``pad``
    deep: one row skeleton from the keys, filled a column at a time."""
    cell = pad + "  "
    row = "{{\n" + ",\n".join(
        _literal(f"{cell}{encode_basestring_ascii(k)}: ") + "{}" for k in rows[0]
    ) + f"\n{pad}}}}}"
    columns = [_json_column(c, cell) for c in zip(*map(dict.values, rows))]
    return list(map(row.format, *columns))


def _json_text(value: Any, pad: str = "") -> str:
    """``json.dumps(value, indent=2, default=_json_value)`` of a string-keyed
    record, written ``pad`` deep."""
    if (encode := _JSON_SCALARS.get(type(value))) is not None:
        return encode(value)
    inner = pad + "  "
    if type(value) is Fraction:
        return _pair(pad).format(fraction_str(value), decimal_str(value))
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif value is None or isinstance(value, (str, int, float)):  # bool, subclasses
        return json.dumps(value)
    elif not isinstance(value, (list, tuple)):
        return _json_text(_json_value(value), pad)
    elif (types := {*map(type, value)}) == {int}:  # a word or a digit list, at C speed
        items = list(map(int.__repr__, value))
        brackets = "[]"
    elif types == {dict} and len(value) > 1 and len({*map(tuple, value)}) == 1 and value[0]:
        items = _json_table(value, inner)  # dicts with one key order, and a key
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
