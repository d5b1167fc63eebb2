"""Report assembly: exact values with decimal companions.

Reports are the public output contract of the CLI.  Exact rationals are
rendered both as "p/q" strings and as decimals with 15 significant digits
(round-half-even); solver outputs carry high-precision decimal strings.  A
report serializes to a JSON object with top-level fields {schema_version,
command, config, result, diagnostics}.  Records keep exact rationals as
Fractions until one format renders them.

``format_rows`` fills a text or CSV template, parsed once into a skeleton and
its fields, for every row at once.  A field names a row key and may carry a
spec; it looks nothing up.  ``report_json`` writes {"exact", "decimal"} pairs
in the layout of ``json.dumps(indent=2)``, without its pure-Python encoder.

Both write a column at a time through one ``_column``.  A column holds
values of one kind, and a lone value is a column of one.  The kinds that
reports hold are str, int and float (matched by exact type), Fraction and its
subclass ``DyadicRational`` (written as the Fraction it is), Enum (``Side``,
``Preservation``), lists and tuples of one kind, and non-empty dicts that
share one key order (a lone dict, or a table's rows).  A column of str, int
or float is written straight through; any other column calls the format's
cells function once per distinct object (a diameter shared by many rows is
rendered once).  The cells function, ``_field_cells`` or ``_json_cells``, is
the one place that decides how each kind of value is written; JSON raises
TypeError on any other kind.

A column of words (lists or tuples: a text field joined by its spec or braced
as a set, or JSON's all-int lists) is written by one %-format per distinct
word length, ``head + sep.join(["%s"] * n) + tail``, applied to each
``tuple(word)``; no template or JSON layout holds a "%".  ``%s`` is
``str()``, so no item is type-checked; JSON's brackets and indent are in the
format, and its empty word is "[]".
"""

from __future__ import annotations

import functools
import json
import string
import sys
from decimal import ROUND_HALF_EVEN, Context
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
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


def mpf_str(x, digits: int = 20) -> str:
    """High-precision decimal string for a solver real."""
    return mp.nstr(x, digits)


def _literal(text: str) -> str:
    """``text`` as literal text of a ``str.format`` skeleton."""
    return text.replace("{", "{{").replace("}", "}}")


@functools.cache
def _parsed(template: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """A skeleton with "{}" per field, and each field's (key, spec).  The
    templates are the CLI's own constants: each field names a row key, with
    no lookup, conversion or nested spec, and none is checked here."""
    skeleton, fields = [], []
    for literal, name, spec, _ in string.Formatter().parse(template):
        skeleton.append(_literal(literal))
        if name is not None:
            skeleton.append("{}")
            fields.append((name, spec))
    return "".join(skeleton), tuple(fields)


def _column(values: Sequence, cells: Callable[..., Iterable[str]], arg: str) -> list[str]:
    """``list(cells(values, kind, arg))``, ``kind`` the type of the first value:
    a column holds one kind, and an empty column writes nothing.  Scalars
    (str, int, float) are quicker to write than to tell apart; any other
    column is written once per distinct object, in first-seen order, told
    apart by ``id``, which is sound because ``values`` keeps every one of
    them alive."""
    kind = type(values[0]) if values else str
    if kind in (str, int, float):
        return list(cells(values, kind, arg))
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))
    strs = list(cells([*distinct.values()], kind, arg))
    if len(distinct) == len(values):
        return strs
    return list(map(dict(zip(distinct, strs)).__getitem__, ids))


def _field_cells(values: Sequence, kind: type, spec: str) -> Iterable[str]:
    """Each value, all of kind ``kind``, as a ``format_rows`` field: a
    Fraction or a word by the contract's rules, anything else by ``format``."""
    if kind not in (str, int, float):  # the bulk of a template skips the subclass checks
        if issubclass(kind, Fraction):
            return map(decimal_str if spec == "decimal" else fraction_str, values)
        if issubclass(kind, (list, tuple)):  # words: joined by the spec, or braced as a set
            if spec == "set":
                return _words(values, "{", ", ", "}")
            return _words(values, "", spec, "")
    return map(format, values, repeat(spec))


def _words(
    words: Sequence, head: str, sep: str, tail: str, empty: str | None = None
) -> Iterable[str]:
    """``head + sep.join(map(str, word)) + tail`` for each word (``empty`` for
    the empty word if given), by one %-format per distinct word length:
    ``%s`` is ``str()``, so the items need no type check.  No "%" is escaped:
    head, separator and tail come from the templates and JSON's layout."""
    lengths = [*map(len, words)]
    formats = {n: head + sep.join(["%s"] * n) + tail for n in {*lengths}}
    if empty is not None and 0 in formats:
        formats[0] = empty
    return map(str.__mod__, map(formats.__getitem__, lengths), map(tuple, words))


def format_rows(template: str, rows: list[dict[str, Any]]) -> list[str]:
    """``template.format_map(row)`` for each row, with the contract's
    renderings, built a column at a time.

    A Fraction field renders as "p/q", or as its decimal under the spec
    "decimal"; a list or tuple field joins its items with the spec as the
    separator, or braces them like a digit set under the spec "set".
    """
    skeleton, fields = _parsed(template)
    if not fields:
        return [skeleton.format()] * len(rows)
    columns = [_column([*map(itemgetter(key), rows)], _field_cells, spec) for key, spec in fields]
    return list(map(skeleton.format, *columns))


_JSON_SCALARS = {  # the bulk of a report, at C speed
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if isfinite(x) else json.dumps(x),
}


def _json_cells(values: Sequence, kind: type, pad: str) -> Iterable[str]:
    """Each value, all of kind ``kind``, as ``json.dumps(indent=2)`` text,
    ``pad`` deep.  Dicts are a table: one row skeleton from the key order they
    share (the unpacking raises if they do not), filled a column at a time."""
    if (encode := _JSON_SCALARS.get(kind)) is not None:
        return map(encode, values)
    inner = pad + "  "
    if issubclass(kind, (list, tuple)):
        if {*map(type, chain.from_iterable(values))} <= {int}:
            return _words(values, f"[\n{inner}", f",\n{inner}", f"\n{pad}]", empty="[]")
        joined = (f",\n{inner}".join(_column(items, _json_cells, inner)) for items in values)
        return [f"[\n{inner}{items}\n{pad}]" if items else "[]" for items in joined]
    if issubclass(kind, dict):
        (key_order,) = {*map(tuple, values)}
        row = "{{\n" + ",\n".join(
            _literal(f"{inner}{encode_basestring_ascii(k)}: ") + "{}" for k in key_order
        ) + f"\n{pad}}}}}"
        columns = [_column(c, _json_cells, inner) for c in zip(*map(dict.values, values))]
        return map(row.format, *columns)
    if issubclass(kind, Fraction):  # the {"exact", "decimal"} pair; its strings need no escapes
        pair = f'{{{{\n{inner}"exact": "{{}}",\n{inner}"decimal": "{{}}"\n{pad}}}}}'
        return map(pair.format, map(fraction_str, values), map(decimal_str, values))
    if issubclass(kind, Enum):
        return _column([value.value for value in values], _json_cells, pad)
    raise TypeError(f"{kind.__name__} is not JSON serializable")


def report_json(command: str, config: dict[str, Any], result: dict[str, Any]) -> str:
    """One CLI invocation's machine-readable output, as indented JSON."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
        "diagnostics": {"tool_version": __version__},
    }
    return _column([report], _json_cells, "")[0]
