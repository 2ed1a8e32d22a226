"""Source hygiene checks over src/veribench and tests, using only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "veribench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
