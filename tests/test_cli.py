"""Command-line interface: parsing, reports, formats, exit codes."""

import json
import random

import pytest

from minkdim import DigitSet, Side, estimate_series
from minkdim.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    main,
    parse_cf,
    parse_depth_spec,
    parse_digit_spec,
    parse_rational,
)


class TestParsers:
    def test_digit_specs(self):
        assert parse_digit_spec("1..9") == DigitSet(tuple(range(1, 10)))
        assert parse_digit_spec("1,3,5") == DigitSet((1, 3, 5))
        assert parse_digit_spec("1, 4..6, 9") == DigitSet((1, 4, 5, 6, 9))

    def test_digit_spec_errors(self):
        for text in ("", "a", "5..3", "1,,2", "1..b"):
            with pytest.raises(ValueError):
                parse_digit_spec(text)
        with pytest.raises(ValueError):
            parse_digit_spec("3")  # a single digit is not a digit set

    def test_depth_specs(self):
        assert parse_depth_spec("3") == [3]
        assert parse_depth_spec("1..4") == [1, 2, 3, 4]
        assert parse_depth_spec("4,2,2") == [2, 4]

    def test_rationals(self):
        assert parse_rational("2/3") == (2, 3)
        assert parse_rational("1") == (1, 1)
        with pytest.raises(ValueError):
            parse_rational("x/3")

    def test_cf_forms(self):
        assert parse_cf("0;2,3").preperiod == (2, 3)
        cf = parse_cf("0;1,1,1,...")
        assert (cf.preperiod, cf.period) == ((), (1,))
        cf = parse_cf("0;2,(1,2)")
        assert (cf.preperiod, cf.period) == ((2,), (1, 2))
        cf = parse_cf("[0; 1, 2, 1, 2, ...]")
        assert (cf.preperiod, cf.period) == ((), (1, 2))
        for text in ("1;2", "0;", "0;2,(1,2", "0;x"):
            with pytest.raises(ValueError):
                parse_cf(text)


class TestMoranCommand:
    def test_text_output(self, capsys):
        assert main(["moran", "--digits", "1..9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.99857786255360475" in out

    def test_json_report(self, capsys):
        assert main(["moran", "--digits", "1..9", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "moran"
        assert payload["config"]["digits"] == list(range(1, 10))
        s = payload["result"]["moran_root"]["s_float"]
        assert abs(s - 0.9985778625536) <= 1e-10
        assert "tool_version" in payload["diagnostics"]

    def test_golden_value(self, capsys):
        assert main(["moran", "--digits", "1,2", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["result"]["moran_root"]["s_float"] - 0.6942419136) <= 1e-9

    def test_usage_errors(self, capsys):
        assert main(["moran", "--digits", "3"]) == EXIT_USAGE
        assert main(["moran", "--digits", "1..9", "--tol", "0.5"]) == EXIT_USAGE
        assert main(["moran", "--digits", "1..9", "--tol", "1e-40"]) == EXIT_USAGE
        assert main(["moran"]) == EXIT_USAGE  # --digits required


class TestBoundsCommand:
    def test_reference_values(self, capsys):
        assert main(["bounds", "--n", "9", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        bounds = payload["result"]["bounds"]
        assert abs(bounds["lower"] - 0.6308969) <= 1e-7
        assert abs(bounds["upper"] - 0.985445112) <= 1e-7

    def test_large_n(self, capsys):
        assert main(["bounds", "--n", "100", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["result"]["bounds"]["lower"] - 0.96678) <= 1e-4

    def test_n8_rejected(self, capsys):
        assert main(["bounds", "--n", "8"]) == EXIT_USAGE
        assert "n > 8" in capsys.readouterr().err


class TestVerdictCommand:
    def test_headline(self, capsys):
        assert main(["verdict", "--n", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "NOT_PRESERVED" in out
        assert "0.99857786255360475" in out

    def test_embeds_both_numbers(self, capsys):
        assert main(["verdict", "--n", "9", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        v = payload["result"]["verdict"]
        assert abs(v["bounds"]["upper"] - 0.985445112) <= 1e-7
        assert abs(v["image_dimension"]["s_float"] - 0.9985778625536) <= 1e-10
        assert v["preserved"] == "not_preserved"
        assert abs(v["gap"] - 0.013132746) <= 1e-6

    def test_wide_tolerance(self, capsys):
        assert main(["verdict", "--n", "9", "--tol", "0.5"]) == EXIT_OK
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_n20_computes(self, capsys):
        assert main(["verdict", "--n", "20", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["verdict"]["preserved"] == "not_preserved"

    def test_unbracketed_root_is_a_tolerance_failure(self, capsys):
        # f(1) - 1 = -2^-129 rounds to zero at the solver's 128 bits
        assert main(["verdict", "--n", "129"]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")


class TestEvalCommand:
    def test_rational(self, capsys):
        assert main(["eval", "--rational", "2/3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3/4" in out and "0.75" in out

    def test_unit_endpoint(self, capsys):
        assert main(["eval", "--rational", "1/1", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["value"]["exact"] == "1/1"

    def test_periodic_cf(self, capsys):
        assert main(["eval", "--cf", "0;1,1,1,...", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["value"]["exact"] == "2/3"

    def test_mixed_cf(self, capsys):
        assert main(["eval", "--cf", "0;2,(1,2)", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["value"]["exact"] == "2/7"

    def test_out_of_domain(self, capsys):
        assert main(["eval", "--rational", "5/3"]) == EXIT_USAGE
        assert main(["eval", "--rational", "0/3"]) == EXIT_USAGE
        assert main(["eval", "--cf", "0;nope"]) == EXIT_USAGE

    def test_requires_exactly_one_input(self, capsys):
        assert main(["eval"]) == EXIT_USAGE
        assert (
            main(["eval", "--rational", "1/2", "--cf", "0;2"]) == EXIT_USAGE
        )


class TestEmpiricalCommand:
    def test_image_series_csv(self, capsys):
        rc = main(
            [
                "empirical", "--digits", "1,2", "--side", "image",
                "--depths", "1..4", "--format", "csv",
            ]
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "depth,cylinder_count,s_hat,sum_at_root,wall_time_ms"
        roots = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(roots) == 4
        assert max(roots) - min(roots) <= 1e-9

    def test_domain_json(self, capsys):
        rc = main(
            ["empirical", "--digits", "1..9", "--side", "domain",
             "--depths", "3", "--format", "json"]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        est = payload["result"]["series"][0]
        assert est["cylinder_count"] == 729
        assert 0.6308969 < est["s_hat"] < 0.985445112

    def test_budget_exceeded(self, capsys):
        assert (
            main(["empirical", "--digits", "1..9", "--depths", "1..9"])
            == EXIT_BUDGET
        )
        argv = ["empirical", "--digits", "1,2", "--depths", "2", "--budget", "-5"]
        assert main(argv) == EXIT_USAGE  # a budget must be positive

    def test_csv_header_rows_and_line_endings(self, capsys):
        argv = ["empirical", "--digits", "1,2", "--side", "image", "--depths", "1..3"]
        assert main([*argv, "--format", "csv"]) == EXIT_OK
        text = capsys.readouterr().out
        lines = text.split("\n")
        assert lines[0] == "depth,cylinder_count,s_hat,sum_at_root,wall_time_ms"
        assert len(lines) == 5 and lines[-1] == ""  # 3 rows + trailing LF
        assert "\r" not in text
        row = lines[1].split(",")
        assert row[0] == "1" and row[1] == "2"
        series = estimate_series(DigitSet((1, 2)), (1, 2, 3), Side.IMAGE)
        assert float(row[2]) == series[0].s_hat

    def test_csv_random_sets_round_trip_counts(self, capsys):
        rng = random.Random(6)
        for _ in range(5):
            digits = ",".join(map(str, sorted(rng.sample(range(1, 9), 3))))
            argv = ["empirical", "--digits", digits, "--depths", "1,2", "--format", "csv"]
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out.count("\n") == 3

    def test_unbracketed_root_is_a_tolerance_failure(self, capsys):
        # at s = 1 the image sum is 1 - 2^-60, which rounds to 1 in float64
        argv = ["empirical", "--digits", "1..60", "--side", "image", "--depths", "1"]
        assert main(argv) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "rounds" in captured.err

    @pytest.mark.parametrize("digits, depths", [("1..9", "5000"), ("1,2", "20000")])
    def test_budget_at_huge_depth(self, capsys, digits, depths):
        # both counts have more digits than int-to-str conversion allows (4,300)
        argv = ["empirical", "--digits", digits, "--depths", depths]
        assert main(argv) == EXIT_BUDGET
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 200


class TestConstructCommand:
    def test_depth_zero_whole_image(self, capsys):
        rc = main(["construct", "--digits", "1,2", "--depth", "0", "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        rows = payload["result"]["cylinders"]
        assert len(rows) == 1
        assert rows[0]["sup"]["exact"] == "6/7"
        assert rows[0]["inf"]["exact"] == "2/7"

    def test_depth_one_diameters(self, capsys):
        rc = main(["construct", "--digits", "1,2", "--depth", "1", "--format", "csv"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("word,inf_exact,sup_exact")
        diameters = {line.split(",")[5] for line in lines[1:]}
        assert diameters == {"2/7", "1/7"}

    def test_other_digit_set(self, capsys):
        rc = main(["construct", "--digits", "2,3", "--depth", "1", "--format", "csv"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        diameters = {line.split(",")[5] for line in lines[1:]}
        assert diameters == {"2/31", "1/31"}

    def test_negative_depth(self, capsys):
        assert main(["construct", "--digits", "1,2", "--depth", "-1"]) == EXIT_USAGE

    def test_budget(self, capsys):
        rc = main(
            ["construct", "--digits", "1..9", "--depth", "9", "--budget", "100"]
        )
        assert rc == EXIT_BUDGET
        argv = ["construct", "--digits", "1,2", "--depth", "1", "--budget", "0"]
        assert main(argv) == EXIT_USAGE  # a budget must be positive

    def test_budget_at_huge_depth(self, capsys):
        argv = ["construct", "--digits", "1..9", "--depth", "100000000"]
        assert main(argv) == EXIT_BUDGET
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 200


VALID_ARGV = {
    "moran": ["moran", "--digits", "1,2"],
    "bounds": ["bounds", "--n", "9"],
    "verdict": ["verdict", "--n", "9"],
    "eval": ["eval", "--rational", "2/3"],
    "empirical": ["empirical", "--digits", "1,2", "--depths", "2"],
    "construct": ["construct", "--digits", "1,2", "--depth", "1"],
}


@pytest.mark.parametrize(
    "command, option, value, code",
    [
        ("bounds", "--tol", "1e-6", EXIT_USAGE),
        ("bounds", "--budget", "100", EXIT_USAGE),
        ("eval", "--tol", "1e-6", EXIT_USAGE),
        ("eval", "--budget", "100", EXIT_USAGE),
        ("construct", "--tol", "1e-6", EXIT_USAGE),
        ("moran", "--budget", "100", EXIT_USAGE),
        ("verdict", "--budget", "100", EXIT_USAGE),
        ("moran", "--tol", "1e-6", EXIT_OK),
        ("verdict", "--tol", "1e-3", EXIT_OK),
        ("empirical", "--tol", "1e-8", EXIT_OK),
        ("empirical", "--budget", "100", EXIT_OK),
        ("construct", "--budget", "100", EXIT_OK),
    ],
)
def test_options_are_scoped_to_the_commands_that_read_them(
    capsys, command, option, value, code
):
    """An option a subcommand ignores is a usage error; one it reads is used."""
    assert main([*VALID_ARGV[command], option, value, "--format", "json"]) == code
    if code == EXIT_OK:
        config = json.loads(capsys.readouterr().out)["config"]
        assert config[option[2:]] == float(value)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--rational", "123456789/987654321"],
        ["eval", "--cf", "0;(1,20000)"],
        ["construct", "--digits", "1,14000", "--depth", "1"],
    ],
)
def test_value_too_long_to_print_is_a_usage_error(capsys, argv, fmt):
    """Exact values past int-to-str's 4,300-digit limit exit 2 with one line."""
    assert main([*argv, "--format", fmt]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc = main(
            ["bounds", "--n", "9", "--format", "json", "--out", str(target)]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["command"] == "bounds"

    def test_csv_out_uses_lf(self, tmp_path):
        target = tmp_path / "series.csv"
        main(
            ["empirical", "--digits", "1,2", "--depths", "1..2",
             "--format", "csv", "--out", str(target)]
        )
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "minkdim" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_state_leaks_between_calls(self, capsys):
        """The parser is built once per process; each call parses afresh."""
        moran = ["moran", "--digits", "1,2", "--format", "json"]
        assert main([*moran, "--tol", "1e-3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1e-3
        assert main(moran) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1e-12
        assert main(["moran", "--digits", "1,2", "--budget", "9"]) == EXIT_USAGE
        assert main(["bounds", "--n", "9", "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"] == {"n": 9}

    def test_scalar_csv_format(self, capsys):
        assert main(["moran", "--digits", "1,2", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "digits,s,residual,iterations"
        assert len(lines) == 2
