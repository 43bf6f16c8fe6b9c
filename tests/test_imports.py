"""Offline lints over the package's modules, `__init__.py` aside (it imports
to re-export): no module imports a name it never reads, every name a module
defines at top level has a reader, and only rootsys.eps_coordinates forms a
Fraction.  The first lint covers the test modules too.  Standard library only."""

import ast
import re
from pathlib import Path

import pytest

import kkweyl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kkweyl"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = ROOT / "tests"
# a package module by its file name, a test module by tests/<file name>
LINTED = ([pytest.param(SRC / m, id=m) for m in MODULES]
          + [pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))])


def names_read(tree: ast.AST) -> set[str]:
    """Every bare name the tree reads, those of quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


@pytest.mark.parametrize("path", LINTED)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(stmt: ast.stmt) -> list[str]:
    """The functions, classes and assigned names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unread_names(sources: dict[str, str], outside: set[str]) -> list[str]:
    """`module.name` for each top-level name of the sources that no other
    top-level statement of them reads, as a bare name or as an attribute,
    and that is not in `outside`."""
    statements = [(m, stmt) for m, source in sources.items()
                  for stmt in ast.parse(source).body]
    reads = [names_read(stmt) | {n.attr for n in ast.walk(stmt)
                                 if isinstance(n, ast.Attribute)}
             for _, stmt in statements]
    return [f"{m}.{name}"
            for i, (m, stmt) in enumerate(statements)
            for name in top_level_names(stmt)
            if name not in outside
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_reader_detector_flags_only_unread_names():
    sources = {
        "a": "X, Y = 1, 2\nZ: int = X\n"
             "def loop(n):\n    return loop(n - 1)\n"
             "def used():\n    return b.helper()\n",
        "b": "def helper() -> 'Kept':\n    return used()\nclass Kept: pass\n"
             "class Exported: pass\n",
    }
    # Y and Z are only assigned, loop reads only itself
    assert unread_names(sources, {"Exported"}) == ["a.Y", "a.Z", "a.loop"]


def test_every_module_level_name_has_a_reader():
    """A top-level name is read elsewhere in the package, appears as a word in
    a bench script, or is exported through a kkweyl.__all__ that resolves."""
    assert [n for n in kkweyl.__all__ if not hasattr(kkweyl, n)] == []
    bench_words = {w for p in (ROOT / "bench").glob("*.py")
                   for w in re.findall(r"\w+", p.read_text())}
    sources = {p[:-3]: (SRC / p).read_text() for p in MODULES}
    assert unread_names(sources, bench_words | set(kkweyl.__all__)) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports in the source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def fraction_calls(source: str) -> list[str]:
    """The innermost enclosing function of each Fraction(...) call in the
    source, `<module>` for one outside any function, in source order."""
    out = []

    def visit(node, where):
        if isinstance(node, ast.Call) and "Fraction" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            out.append(where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return out


def test_only_epsilon_coordinates_are_rational():
    """Polynomial coefficients are ints; the one rational quantity is the
    epsilon coordinates, which rootsys.eps_coordinates alone forms, for cli
    to print."""
    assert imported_modules("import os.path\nfrom fractions import Fraction\n"
                            "from .rootsys import Root\n") == {"os", "fractions"}
    users = {p.name for p in SRC.glob("*.py") if "fractions" in imported_modules(p.read_text())}
    assert users <= {"rootsys.py"}
    assert fraction_calls("H = Fraction(1, 2)\n"
                          "class C:\n    def f(self):\n        return [fractions.Fraction(x)\n"
                          "                for x in g(Fraction)]\n"
                          "def h():\n    def k():\n        return Fraction(2)\n"
                          "    return Fraction(k())\n") == ["<module>", "f", "k", "h"]
    calls = [f"{p.name}:{where}" for p in sorted(SRC.glob("*.py"))
             for where in fraction_calls(p.read_text())]
    assert calls == ["rootsys.py:eps_coordinates"]
