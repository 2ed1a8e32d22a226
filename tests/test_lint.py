"""Source hygiene checks over src/veribench and tests, using only the standard library.

bench counts as a reader of src constants."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "veribench").glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        "%s (line %d)" % (name, line)
        for name, line in _imported_names(tree)
        if name not in used
    ]
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def _names_read(tree: ast.Module):
    """Every name the tree loads, reaches as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_constant_is_read():
    readers = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    read = {
        name
        for p in readers
        for name in _names_read(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
    }
    unread = [
        "%s.%s" % (path.stem, target.id)
        for path in MODULES
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(stmt)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
        and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id) and target.id not in read
    ]
    assert not unread, "module constants nothing reads: %s" % ", ".join(unread)
