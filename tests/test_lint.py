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


def test_every_private_module_name_is_read_in_src():
    # a private helper only tests call is test code kept in src
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    read = {name for tree in trees.values() for name in _names_read(tree)}
    unread = [
        "%s.%s" % (path.stem, stmt.name)
        for path, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and stmt.name not in read
    ]
    assert not unread, "private functions and classes nothing in src reads: %s" % ", ".join(unread)


def test_one_error_state_applied_only_as_a_decorator():
    # src states its error state once, as network._QUIET, and applies it
    # only as a decorator: one np.errstate cannot be entered twice as a
    # context manager, while the decorator form is reentrant
    calls, entered, quiet = [], [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "errstate":
                calls.append(where)
            elif isinstance(node, (ast.With, ast.AsyncWith)) and any(
                isinstance(n, (ast.Name, ast.Attribute))
                and "_QUIET" in (getattr(n, "id", None), getattr(n, "attr", None))
                for item in node.items
                for n in ast.walk(item.context_expr)
            ):
                entered.append(where)
        if path.name == "network.py":
            quiet += [
                "%s:%d" % (path.name, stmt.lineno)
                for stmt in tree.body
                if isinstance(stmt, ast.Assign)
                and [getattr(t, "id", None) for t in stmt.targets] == ["_QUIET"]
            ]
    assert len(quiet) == 1 and calls == quiet, "np.errstate calls in src: %s" % calls
    assert not entered, "with statements entering _QUIET: %s" % entered


def test_relu_is_named_only_by_the_activation_table_and_the_bound_check():
    # the activation table in network names every kind; the bound core
    # names ReLU, whose relaxation is its own, and takes every other kind
    # by one rule, as monotone increasing, so it names no other kind
    named_in = {
        "relu": ("network.py", "bounds.py"),
        "sigmoid": ("network.py",),
        "tanh": ("network.py",),
    }
    outside = [
        "%r at %s:%d" % (node.value, path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in named_in
        and path.name not in named_in[node.value]
    ]
    assert not outside, "activation kinds named outside their modules: %s" % ", ".join(outside)


def test_no_half_of_a_sum_or_a_difference():
    # a midpoint, centre or radius is 0.5 * lo + 0.5 * hi or 0.5 * hi - 0.5 * lo,
    # finite for every finite lo and hi; 0.5 * (lo + hi) overflows for
    # lo = hi = 1e308, and 0.5 * (hi - lo) for lo = -hi = -1e308
    def halved_sum(half, other):
        while isinstance(other, ast.Subscript):  # as in 0.5 * (hi - lo)[..., None]
            other = other.value
        return (
            isinstance(half, ast.Constant) and half.value == 0.5
            and isinstance(other, ast.BinOp) and isinstance(other.op, (ast.Add, ast.Sub))
        )

    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and (halved_sum(node.left, node.right) or halved_sum(node.right, node.left))
    ]
    assert not found, "0.5 times a sum or a difference in src: %s" % ", ".join(found)
