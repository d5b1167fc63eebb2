"""Command-line interface: parsing, reports, formats, exit codes."""

import hashlib
import json
import random
import sys
from decimal import Decimal

import pytest
from mpmath import mp, mpf

from minkdim import DigitSet, Side, estimate_series, moran_root, selfsimilar
from minkdim.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    MAX_DIGIT_SUM,
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

    @pytest.mark.parametrize("parse", [parse_digit_spec, parse_depth_spec])
    def test_range_list_ceiling(self, parse):
        # a list may spell 10^6 values; one more is refused before it is built
        assert len(parse("1..1000000")) == 10**6
        with pytest.raises(ValueError, match="list '1..1000001' has more than"):
            parse("1..1000001")

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
        assert parse_cf("0;1,2,...") == parse_cf("0;(1,2)")
        assert parse_cf("0;3,...") == parse_cf("0;(3)")
        bad = ("1;2", "0;", "0;2,(1,2", "0;x", "0;1,,2", "0;,1")
        bad += ("0;2,,(1)", "0;,(1)", "0;1,2,,...")  # a stray comma before the period
        for text in bad:
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

    def test_root_past_128_bits_answers(self, capsys):
        # f(1) - 1 = -2^-n rounds to zero at the solver's 128 bits
        for digits in ("1..129", "1..20000"):
            assert main(["moran", "--digits", digits, "--format", "json"]) == EXIT_OK
            root = json.loads(capsys.readouterr().out)["result"]["moran_root"]
            assert root["s"] == "1.0" and root["s_float"] == 1.0
            lo, s, hi = (Decimal(v) for v in (*root["bracket"], root["s"]))
            assert lo <= s <= hi

    def test_residual_past_128_bits_is_reported(self, capsys):
        # f(s) - 1 rounds to zero at 128 bits; the report reads it at 256
        K = DigitSet(tuple(range(1, 130)))
        assert main(["moran", "--digits", "1..129", "--format", "json"]) == EXIT_OK
        got = mpf(json.loads(capsys.readouterr().out)["result"]["moran_root"]["residual"])
        s = moran_root(K).s
        with mp.workprec(256):
            want = abs(mp.fsum(mpf(2) ** (-k * s) for k in K.digits) - 1)
        assert 0 < got and want / 2 <= got <= 2 * want

    def test_csv_row_agrees_with_json(self, capsys):
        # the row is built beside the result: its digits are the config's
        assert main(["moran", "--digits", "1..9", "--format", "csv"]) == EXIT_OK
        header, line = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert main(["moran", "--digits", "1..9", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [int(d) for d in row["digits"].split()] == payload["config"]["digits"]
        assert row["s"] == payload["result"]["moran_root"]["s"]

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

    def test_n_past_float_range_rejected(self, capsys):
        for n in (10**400, 160_000_000_000_000):  # 158574835522566 is the last n accepted
            assert main(["bounds", "--n", str(n)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
            assert "158574835522566" in captured.err and len(captured.err) < 200


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

    @pytest.mark.parametrize(
        "argv, preserved",
        [
            (["--n", "129"], "not_preserved"),  # f(1) - 1 = -2^-129: past 128 bits
            (["--n", "20000"], "not_preserved"),
            (["--n", "10000000000000", "--tol", "1e-17"], "not_preserved"),
            (["--n", "30000"], "inconclusive"),  # gap ~ 1/(8 n lg n) < the default tol
        ],
        ids=["129", "20000", "10**13", "30000"],
    )
    def test_large_n_answers(self, capsys, argv, preserved):
        assert main(["verdict", *argv, "--format", "json"]) == EXIT_OK
        v = json.loads(capsys.readouterr().out)["result"]["verdict"]
        assert v["preserved"] == preserved
        assert (v["gap"] > v["tol"]) == (preserved == "not_preserved")

    @pytest.mark.parametrize("n", ["9", "129", "20000"])
    def test_csv_row_agrees_with_json(self, capsys, n):
        # the flat row is built beside the nested result from the same values
        assert main(["verdict", "--n", n, "--format", "csv"]) == EXIT_OK
        header, line = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert main(["verdict", "--n", n, "--format", "json"]) == EXIT_OK
        v = json.loads(capsys.readouterr().out)["result"]["verdict"]
        assert row["n"] == n == str(v["n"])
        assert row["lower"] == repr(v["bounds"]["lower"])
        assert row["upper"] == repr(v["bounds"]["upper"])
        assert row["moran_root"] == v["image_dimension"]["s"]
        assert row["verdict"] == v["preserved"]
        assert row["gap"] == repr(v["gap"])

    @pytest.mark.parametrize("n", [10**400, 160_000_000_000_000], ids=["10**400", "1.6e14"])
    def test_n_past_bounds_limit_rejected(self, capsys, n):
        assert main(["verdict", "--n", str(n)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "158574835522566" in captured.err and len(captured.err) < 200


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

    def test_image_sum_rounding_to_one_at_s_one_answers(self, capsys):
        # at s = 1 the image sum is 1 - 2^-60, which rounds to 1 in float64
        argv = ["empirical", "--digits", "1..60", "--side", "image", "--depths", "1..3"]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        series = json.loads(capsys.readouterr().out)["result"]["series"]
        assert [row["depth"] for row in series] == [1, 2, 3]
        assert all(abs(row["s_hat"] - 1) <= 1e-10 for row in series)

    def test_image_series_prints_no_depth_trend(self, capsys):
        # one depth-1 root serves every image depth, so solver noise cannot
        # show up as a trend
        argv = ["empirical", "--digits", "1..60", "--side", "image", "--depths", "1..3"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "successive differences: 0.0, 0.0"

    def test_single_depth_prints_the_series_row(self, capsys):
        # a lone depth also solves every shallower one, each from the root above
        rows = []
        for depths in ("20", "1..20"):
            argv = ["empirical", "--digits", "1,2", "--depths", depths, "--format", "csv"]
            assert main(argv) == EXIT_OK
            row = capsys.readouterr().out.splitlines()[-1].split(",")
            rows.append(row[:-1])  # all but wall_time_ms
        assert rows[0] == rows[1] and rows[0][:2] == ["20", "1048576"]

    @pytest.mark.parametrize("digits, depths", [("1..9", "5000"), ("1,2", "20000")])
    def test_budget_at_huge_depth(self, capsys, digits, depths):
        # both counts have more digits than int-to-str conversion allows (4,300)
        argv = ["empirical", "--digits", digits, "--depths", depths]
        assert main(argv) == EXIT_BUDGET
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 200


PINNED_TABLES = {  # (digits, depth) of the exact workload's 4096-row tables -> sha256
    ("1,6", "12"): {
        "text": "7acc45855c6f6450945afec2eb58bbbb578da325307ce4d8d28566075560fd9f",
        "csv": "6d9ed7ff52960237b4eb65a67845b7ba5d1033dabf39ab9cf6950cdd7d2e1f56",
        "json": "4c4730a98c0fa871a448823bbc94c77014ff0b4d4a4612c66749df708ae3ef83",
    },
    ("2,3,5,8", "6"): {
        "text": "e63b389f40f98ed61a8069c2fdfec8a1a566f3df805a470e46bd4f747406fa37",
        "csv": "b776c67bef5e9e25cb37328c6981c55501dbd1d29d0dcbb744cfb43a01bd7630",
        "json": "0159449c3970121e576ca2870090aa02bd9cd1bed8e9568336a8fa605681bdef",
    },
    ("1,3,4,6,7,9,10,12", "4"): {  # two-character digits
        "text": "6c1aa5890fc1e59c8f1f97b8a79ba94434cde75ad76b0b098dc8c735547bcb38",
        "csv": "20c738a59df5b85885be35bbc406c6a3734a27dd83c1cd65105f2761a2f9f48b",
        "json": "a4d97aa5e460e051499c6234651013d489ae8e4050e923b175a845687cf0bafc",
    },
}


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
        for digits in ("1,2", "1,20000"):  # the depth is checked before the digit sum
            assert main(["construct", "--digits", digits, "--depth", "-1"]) == EXIT_USAGE
            assert "depth must be nonnegative" in capsys.readouterr().err

    def test_budget(self, capsys):
        rc = main(
            ["construct", "--digits", "1..9", "--depth", "9", "--budget", "100"]
        )
        assert rc == EXIT_BUDGET
        argv = ["construct", "--digits", "1,2", "--depth", "1", "--budget", "0"]
        assert main(argv) == EXIT_USAGE  # a budget must be positive

    @pytest.mark.parametrize(
        "digits, depth, fmt, digest",
        [
            pytest.param(digits, depth, fmt, digest, id=f"{fmt}-{digest}")
            for (digits, depth), digests in PINNED_TABLES.items()
            for fmt, digest in digests.items()
        ],
    )
    def test_4096_cylinder_table_is_pinned(self, capsys, digits, depth, fmt, digest):
        # the renderer oracles in test_report compare renderers with each
        # other; these digests tie each whole 4096-row table to fixed bytes
        argv = ["construct", "--digits", digits, "--depth", depth, "--format", fmt]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_budget_at_huge_depth(self, capsys):
        argv = ["construct", "--digits", "1..9", "--depth", "100000000"]
        assert main(argv) == EXIT_BUDGET
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 200

    def test_digit_sum_refused_before_any_value(self, capsys, monkeypatch):
        # the ceiling is checked before image_hulls builds an image extreme
        def refuse(K):
            raise AssertionError("an image extreme was built")

        monkeypatch.setattr(selfsimilar, "image_inf", refuse)
        argv = ["construct", "--digits", "1,20000", "--depth", "1"]
        assert main(argv) == EXIT_USAGE
        assert f"digit sum 60000 exceeds {MAX_DIGIT_SUM}" in capsys.readouterr().err


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


@pytest.fixture
def low_str_digits():
    """Lower the interpreter's int-to-str limit to its floor, 640 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--cf", f"0;{MAX_DIGIT_SUM}"],
        ["eval", "--cf", "0;(1,7141)"],
        ["construct", "--digits", "1,4761", "--depth", "1"],
    ],
)
def test_value_too_long_to_print_is_a_usage_error(capsys, low_str_digits, argv, fmt):
    """Under a lowered int-to-str limit, admitted values too long to print
    exit 2 with one line; MAX_DIGIT_SUM keeps the default limit out of reach."""
    assert main([*argv, "--format", fmt]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize(
    "argv, total",
    [
        (["eval", "--cf", "0;100001"], 100001),
        (["eval", "--cf", "0;1,(50000)"], 100001),  # a period counts twice
        (["eval", "--rational", "1/100001"], 100001),
        (["construct", "--digits", "1,25001", "--depth", "2"], 100004),  # + the hull's period
        (["construct", "--digits", "1,10000000000", "--depth", "0"], 20000000000),
        (["eval", "--cf", "0;14285"], 14285),
        (["construct", "--digits", "1,4762", "--depth", "1"], 14286),
        (["eval", "--cf", "0;(14284)"], 28568),  # prints, but the period counts twice
    ],
)
def test_digit_sum_ceiling_is_a_usage_error(capsys, argv, total):
    """A digit sum over MAX_DIGIT_SUM exits 2 before any exact value is built."""
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"digit sum {total} exceeds {MAX_DIGIT_SUM}\n" in err
    # the ceiling itself is admitted, and prints: 2^14284 has 4,300 digits
    assert main(["eval", "--cf", f"0;{MAX_DIGIT_SUM}"]) == EXIT_OK
    assert len(capsys.readouterr().out) > 4300


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

    @pytest.mark.parametrize("where", ["directory", "missing parent", "empty path"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where):
        missing = tmp_path / "missing" / "x.txt"
        target = {"directory": tmp_path, "missing parent": missing, "empty path": ""}[where]
        argv = ["construct", "--digits", "1,2", "--depth", "1", "--out", str(target)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1

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
