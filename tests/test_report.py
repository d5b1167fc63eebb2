"""Report rendering: decimal contract and JSON envelope."""

import json
from fractions import Fraction

from minkdim.report import (
    decimal_str,
    exact_number,
    fraction_str,
    mpf_str,
    report_json,
)


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
