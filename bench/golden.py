"""Golden outputs of the README commands, and the comparison against them.

The goldens under ``bench/golden/`` were recorded at the commit that added
this benchmark with ``python bench/golden.py --record`` (run from the root of
the repository).  A CLI output matches its golden when

* every exact field (digits, depths, counts, exact rationals and their
  decimals, bounds, verdicts, configs, the layout itself) matches byte for
  byte;
* every estimate agrees within ``TOLERANCE`` (absolute): Moran roots within
  1e-18 (the 20-digit rendering may move in its last digit), ``s_float``
  within 1e-15, ``gap`` within 1e-12, covering ``s_hat``, ``sum_at_root``
  and successive differences within 1e-9;
* solver diagnostics (``residual``, ``iterations``, ``bracket``) are masked,
  since a better solver may legitimately change them; in JSON they are
  checked instead: the residual must be at most the solver tolerance and
  the bracket must contain the root;
* ``wall_time_ms`` is masked.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

from env import pinned_env

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

README_COMMANDS = {
    "verdict": ["verdict", "--n", "9"],
    "moran": ["moran", "--digits", "1..9"],
    "bounds": ["bounds", "--n", "9"],
    "eval-rational": ["eval", "--rational", "2/3"],
    "eval-cf": ["eval", "--cf", "0;2,(1,2)"],
    "empirical": ["empirical", "--digits", "1..9", "--side", "domain", "--depths", "3..5"],
    "construct": ["construct", "--digits", "1,2", "--depth", "2"],
}
FORMATS = ("text", "json", "csv")
SUFFIX = {"text": "txt", "json": "json", "csv": "csv"}

MASKED = {"wall_time_ms", "residual", "iterations", "bracket"}
TOLERANCE = {
    "s": Decimal("1e-18"),
    "moran_root": Decimal("1e-18"),
    "s_float": Decimal("1e-15"),
    "gap": Decimal("1e-12"),
    "s_hat": Decimal("1e-9"),
    "sum_at_root": Decimal("1e-9"),
    "differences": Decimal("1e-9"),
}
SOLVER_TOL = Decimal("1e-12")  # moran and verdict run the solver at this tol

# Text lines that carry estimates or masked fields; a trailing "_<n>" on a
# group name only makes it unique and is dropped to find the field's rule.
TEXT_PATTERNS = [
    re.compile(p)
    for p in (
        r"^Moran root s: (?P<s>\S+)$",
        r"^residual \|f\(s\)-1\|: (?P<residual>\S+) \((?P<iterations>\d+) evaluations\)$",
        r"^bracket: \[(?P<bracket_1>[^,]+), (?P<bracket_2>[^\]]+)\]$",
        r"^image dimension \(Moran root\): (?P<s>\S+)$",
        r"^certified gap: (?P<gap>\S+) \(tolerance 1e-06\)$",
        r"^depth (?P<depth>\d+): s_hat = (?P<s_hat>\S+) "
        r"\((?P<cylinder_count>\d+) cylinders, (?P<wall_time_ms>\S+) ms\)$",
        r"^successive differences: (?P<differences>.+)$",
    )
]


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}.{SUFFIX[fmt]}"


def load_golden(name: str, fmt: str) -> str:
    return golden_path(name, fmt).read_text(encoding="utf-8")


def _field_rule(field: str) -> str:
    base = re.sub(r"_\d+$", "", field)
    if base in MASKED:
        return "mask"
    if base in TOLERANCE:
        return base
    return "exact"


def _compare_value(field: str, want: str, got: str) -> str | None:
    rule = _field_rule(field)
    if rule == "mask":
        return None
    if rule == "exact":
        return None if want == got else f"{field}: {got!r} != golden {want!r}"
    values = [(a.strip(), b.strip()) for a, b in zip(want.split(","), got.split(","))]
    if want.count(",") != got.count(","):
        return f"{field}: {got!r} has another length than golden {want!r}"
    for a, b in values:
        try:
            diff = abs(Decimal(a.strip('"')) - Decimal(b.strip('"')))
        except InvalidOperation:
            return f"{field}: {b!r} is not a number"
        if not diff <= TOLERANCE[rule]:
            return f"{field}: {b} differs from golden {a} by {diff} > {TOLERANCE[rule]}"
    return None


def _compare_text(want: str, got: str) -> str | None:
    wl, gl = want.split("\n"), got.split("\n")
    if len(wl) != len(gl):
        return f"text has {len(gl)} lines, golden {len(wl)}"
    for w, g in zip(wl, gl):
        for pat in TEXT_PATTERNS:
            mw, mg = pat.match(w), pat.match(g)
            if mw:
                if not mg:
                    return f"line {g!r} does not match golden {w!r}"
                for field, value in mw.groupdict().items():
                    err = _compare_value(field, value, mg.group(field))
                    if err:
                        return err
                break
        else:
            if w != g:
                return f"line {g!r} != golden {w!r}"
    return None


def _compare_csv(want: str, got: str) -> str | None:
    if want.split("\n", 1)[0] != got.split("\n", 1)[0]:
        return "csv header differs from golden"
    wl, gl = list(csv.reader(io.StringIO(want))), list(csv.reader(io.StringIO(got)))
    if len(wl) != len(gl):
        return f"csv has {len(gl)} rows, golden {len(wl)}"
    header = wl[0]
    for wc, gc in zip(wl[1:], gl[1:]):
        if len(wc) != len(gc):
            return f"csv row {gc!r} has another column count than golden"
        for field, a, b in zip(header, wc, gc):
            err = _compare_value(field, a, b)
            if err:
                return err
    return None


def _check_solver_fields(node: dict) -> str | None:
    s = Decimal(node["s"])
    lo, hi = (Decimal(x) for x in node["bracket"])
    if not Decimal(node["residual"]) <= SOLVER_TOL:
        return f"residual {node['residual']} above {SOLVER_TOL}"
    if not lo <= s <= hi:
        return f"bracket [{lo}, {hi}] does not contain s = {s}"
    return None


def _compare_json_node(field: str, want, got) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(want) != list(got):
            return f"{field}: keys {list(got) if isinstance(got, dict) else got} != golden"
        if {"s", "residual", "bracket"} <= set(got):
            err = _check_solver_fields(got)
            if err:
                return f"{field}: {err}"
        for key in want:
            err = _compare_json_node(key, want[key], got[key])
            if err:
                return err
        return None
    if isinstance(want, list):
        if _field_rule(field) == "mask":
            return None
        if not isinstance(got, list) or len(want) != len(got):
            return f"{field}: list length differs from golden"
        for a, b in zip(want, got):
            err = _compare_json_node(field, a, b)
            if err:
                return err
        return None
    return _compare_value(field, json.dumps(want), json.dumps(got))


def compare(fmt: str, want: str, got: str) -> str | None:
    """None when ``got`` matches the golden ``want``, else the first mismatch."""
    if fmt == "json":
        try:
            got_obj = json.loads(got)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if got != json.dumps(got_obj, indent=2) + "\n":
            return "JSON layout differs from the two-space indented form"
        return _compare_json_node("report", json.loads(want), got_obj)
    if fmt == "csv":
        return _compare_csv(want, got)
    return _compare_text(want, got)


def cli_argv(name: str, fmt: str) -> list[str]:
    return [*README_COMMANDS[name], "--format", fmt]


def record(root: Path) -> None:
    """Write every golden from ``python -m minkdim.cli`` at this checkout."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in README_COMMANDS:
        for fmt in FORMATS:
            out = subprocess.run(
                [sys.executable, "-m", "minkdim.cli", *cli_argv(name, fmt)],
                cwd=root,
                env=pinned_env(root),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            golden_path(name, fmt).write_text(out, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python bench/golden.py --record")
    record(Path(os.getcwd()))
