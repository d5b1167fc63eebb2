"""Report assembly: exact values with decimal companions.

Reports are the public output contract of the CLI.  Exact rationals are
rendered both as "p/q" strings and as decimals with 15 significant digits
(round-half-even); solver outputs carry high-precision decimal strings.  A
report serializes to a JSON object with top-level fields
{schema_version, command, config, result, diagnostics}.  Records keep exact
rationals as Fractions until one format renders them: ``format_record`` for
text and CSV, ``report_json`` as {"exact", "decimal"} pairs.
"""

from __future__ import annotations

import json
import string
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import Any

from mpmath import mp

from . import __version__

SCHEMA_VERSION = "1"
DECIMAL_SIGNIFICANT_DIGITS = 15


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def decimal_str(fr: Fraction, sig: int = DECIMAL_SIGNIFICANT_DIGITS) -> str:
    """Decimal rendering of an exact rational at sig significant digits."""
    with localcontext() as ctx:
        ctx.prec = sig
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(fr.numerator) / Decimal(fr.denominator))


def exact_number(fr: Fraction) -> dict[str, str]:
    """JSON value for an exact rational: exact and decimal forms together."""
    return {"exact": fraction_str(fr), "decimal": decimal_str(fr)}


def mpf_str(x, digits: int = 20) -> str:
    """High-precision decimal string for a solver real."""
    return mp.nstr(x, digits)


class _RecordFormatter(string.Formatter):
    def format_field(self, value, spec):
        if isinstance(value, Fraction):
            return decimal_str(value) if spec == "decimal" else fraction_str(value)
        if isinstance(value, (list, tuple)):
            if spec == "set":
                return "{" + ", ".join(map(str, value)) + "}"
            return spec.join(map(str, value))
        return format(value, spec)


_FORMATTER = _RecordFormatter()


def format_record(template: str, record: dict[str, Any]) -> str:
    """``template.format_map(record)`` with the contract's renderings.

    A Fraction field renders as "p/q", or as its decimal under the spec
    "decimal"; a list or tuple field joins its items with the spec as the
    separator, or braces them like a digit set under the spec "set".
    """
    return _FORMATTER.vformat(template, (), record)


def _json_value(value: Any) -> Any:
    """JSON form of the values records keep until rendering."""
    if isinstance(value, Fraction):
        return exact_number(value)
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def report_json(command: str, config: dict[str, Any], result: dict[str, Any]) -> str:
    """One CLI invocation's machine-readable output, as indented JSON."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
        "diagnostics": {"tool_version": __version__},
    }
    return json.dumps(report, indent=2, default=_json_value)
