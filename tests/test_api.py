"""The package's public surface: ``isingbell.__all__`` lists exactly what
``__init__`` imports, each name once."""

import ast
from pathlib import Path

import isingbell


def _imported_public_names() -> set[str]:
    tree = ast.parse(Path(isingbell.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_matches_the_imports():
    names = isingbell.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(isingbell, name)
    assert set(names) == _imported_public_names()
