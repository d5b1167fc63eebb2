"""The README commands in every format against the benchmark's goldens.

Each command runs in-process through ``main`` and its stdout is compared
with ``bench/golden/`` by ``bench/golden.py``'s ``compare``: exact fields
byte for byte, estimates within stated tolerances, timings and solver
diagnostics masked.
"""

import sys
from pathlib import Path

import pytest

from minkdim.cli import EXIT_OK, main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import golden  # noqa: E402


@pytest.mark.parametrize("fmt", golden.FORMATS)
@pytest.mark.parametrize("name", list(golden.README_COMMANDS))
def test_readme_command_matches_golden(name, fmt, capsys):
    assert main(golden.cli_argv(name, fmt)) == EXIT_OK
    got = capsys.readouterr().out
    assert golden.compare(fmt, golden.load_golden(name, fmt), got) is None
