"""Offline lint: no module of the package, `__init__.py` aside (it imports to
re-export), imports a name it never reads.  Standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kkweyl"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def names_read(tree: ast.AST) -> set[str]:
    """Every bare name the tree reads, those of quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as -> "Root"
                names |= names_read(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = names_read(tree)
    return [name for name in imported if name not in read]


def test_detector_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from typing import Optional as Opt, Sequence\n"
        "from .rootsys import Root, direct_sum\n"
        "def f(x: Opt[int]) -> 'Root':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["sys", "Sequence", "direct_sum"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
