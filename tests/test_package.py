"""The package's public surface: ``__all__`` names exactly what it imports."""

import ast
from pathlib import Path

import minkdim

INIT = Path(minkdim.__file__)


def imported_names() -> set[str]:
    """The names ``minkdim/__init__.py`` binds with ``from .x import ...``."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_star_import_binds_all():
    namespace: dict[str, object] = {}
    exec("from minkdim import *", namespace)
    for name in minkdim.__all__:
        assert namespace[name] is getattr(minkdim, name)


def test_all_is_the_imported_public_names():
    assert len(set(minkdim.__all__)) == len(minkdim.__all__)
    public = {name for name in imported_names() if not name.startswith("_")}
    assert set(minkdim.__all__) == public | {"__version__"}
