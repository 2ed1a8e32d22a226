"""Specification language: parsing and DNF normalization.

Specifications are written in an SMT-LIB2 subset over real-valued input
variables ``X_0..X_{n-1}`` and output variables ``Y_0..Y_{m-1}``.  A
specification encodes a *counterexample*: it is satisfiable exactly when the
property it describes is violated.  The supported grammar is::

    (declare-const X_i Real)      (declare-const Y_j Real)
    (assert <term>)
    <term> ::= (and <term>+) | (or <term>+) | (<= <expr> <expr>) | (>= <expr> <expr>)
    <expr> ::= <decimal> | X_i | Y_j | (+ <expr>+) | (- <expr>+) | (* <expr>+)

Products must stay affine (at most one non-constant factor), every number
an ASCII literal without ``_`` separators, every number and every atom's
coefficients finite, and nesting at most 256 parentheses deep; anything
else raises ``SpecError``.  Comments run from ``;`` to end of line.  Strict
``<``/``>`` are accepted as their non-strict forms with a warning, which is
unobservable under tolerance-based witness checking over the reals.

The text is read in one regex scan; ``to_dnf`` normalizes each atom once,
shares its row among the disjuncts it lands in, and yields the arrays the
search reads (see ``NormalizedSpec``).  ``load_spec`` does both for a file.
This module evaluates nothing: the one witness rule is
``verifier.validate_witness``.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

# ASCII digits only: \d also matches other scripts' digits (X_\u0660 would be X_0)
_VAR_RE = re.compile(r"^([XY])_([0-9]+)$")

# Cap on the number of disjuncts produced by DNF distribution.
MAX_DISJUNCTS = 4096

# Deeper nesting is rejected: parsing and DNF recurse once or twice per
# level, and must stay well inside Python's recursion limit.
_MAX_DEPTH = 256


class SpecError(ValueError):
    """Malformed specification text or an unsupported construct."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class AffineExpr:
    """Affine combination of declared variables plus a constant.

    ``coeffs`` maps ``("X", i)`` / ``("Y", j)`` to its coefficient.
    """

    coeffs: tuple[tuple[tuple[str, int], float], ...]
    const: float

    @staticmethod
    def from_dict(coeffs: dict, const: float) -> "AffineExpr":
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0.0))
        return AffineExpr(items, const)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class Atom:
    """Inequality between two affine expressions; op is "<=" or ">="."""

    op: str
    lhs: AffineExpr
    rhs: AffineExpr


@dataclass(frozen=True)
class BoolTerm:
    """AND/OR node over atoms and nested terms; kind is "and" or "or"."""

    kind: str
    terms: tuple


@dataclass
class SpecAst:
    """Parsed specification: variable counts plus a conjunction of assertions."""

    n_inputs: int
    n_outputs: int
    assertions: list  # Atom | BoolTerm


@dataclass(frozen=True, eq=False)
class Conjunct:
    """One disjunct as read-only float64 arrays: its box ``input_lower``,
    ``input_upper`` (n,) and k rows ``a_y . y + b_x . x <= rhs``, with
    ``a_y`` (k, m), ``b_x`` (k, n) and ``rhs`` (k,)."""

    input_lower: np.ndarray
    input_upper: np.ndarray
    a_y: np.ndarray
    b_x: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("input_lower", "input_upper", "a_y", "b_x", "rhs"):
            a = np.array(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class NormalizedSpec:
    """Disjunctive normal form of a specification.

    A point ``(x, y)`` satisfies the spec iff it satisfies at least one
    conjunct.  SAT means the property is violated; UNSAT means it holds.

    Construction checks each disjunct's shapes against ``n_inputs`` and
    ``n_outputs``, its numbers finite and its box not inverted, else raises
    ``ValueError``; then it stacks the D disjuncts once, read-only: ``rows``
    is (a_y (D, k, m), b_x (D, k, n), rhs (D, k)) and ``boxes`` is (lower,
    upper), each (D, n), k the most rows of any disjunct.  Shorter ones are
    padded with inert rows, a_y = 0, b_x = 0 and rhs = +inf: their slack is
    +inf, no bound prunes on them and every point satisfies them.
    """

    n_inputs: int
    n_outputs: int
    disjuncts: tuple[Conjunct, ...]
    rows: tuple = field(init=False, repr=False, compare=False)
    boxes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m, d = self.n_inputs, self.n_outputs, len(self.disjuncts)
        sizes = np.array([c.rhs.size for c in self.disjuncts], dtype=int)
        k = sizes.max(initial=0)
        a_y, b_x, rhs = np.zeros((d, k, m)), np.zeros((d, k, n)), np.full((d, k), np.inf)
        lower, upper = np.empty((d, n)), np.empty((d, n))
        for i, (c, j) in enumerate(zip(self.disjuncts, sizes.tolist())):
            shapes = [a.shape for a in (c.input_lower, c.input_upper, c.a_y, c.b_x, c.rhs)]
            want = [(n,), (n,), (j, m), (j, n), (j,)]
            if shapes != want:
                raise ValueError(f"disjunct {i} has shapes {shapes}, the spec needs {want}")
            lower[i], upper[i] = c.input_lower, c.input_upper
            a_y[i, :j], b_x[i, :j], rhs[i, :j] = c.a_y, c.b_x, c.rhs
        real = np.arange(k) < sizes[:, None]  # the rows that are not padding
        if not all(np.isfinite(a).all() for a in (lower, upper, a_y, b_x, rhs[real])):
            raise ValueError("box bounds and rows must be finite")
        if (lower > upper).any():
            raise ValueError("box has lower > upper")
        for a in (a_y, b_x, rhs, lower, upper):
            a.setflags(write=False)
        object.__setattr__(self, "rows", (a_y, b_x, rhs))
        object.__setattr__(self, "boxes", (lower, upper))

    def dumps(self) -> str:
        """Deterministic textual dump (bytes are stable for equal specs)."""
        disjuncts = [
            {
                "input_lower": c.input_lower.tolist(),
                "input_upper": c.input_upper.tolist(),
                "constraints": [
                    {"a_y": a, "b_x": b, "rhs": r}
                    for a, b, r in zip(c.a_y.tolist(), c.b_x.tolist(), c.rhs.tolist())
                ],
            }
            for c in self.disjuncts
        ]
        obj = {"n_inputs": self.n_inputs, "n_outputs": self.n_outputs, "disjuncts": disjuncts}
        return json.dumps(obj, sort_keys=True, indent=1)


@dataclass(frozen=True)
class Witness:
    """Candidate counterexample: input vector plus optional claimed outputs."""

    x: tuple[float, ...]
    y_claimed: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# Tokenizer / reader


@dataclass
class _Token:
    text: str
    line: int
    col: int


# A newline, a comment, a parenthesis or an atom; blanks stay unmatched and
# are skipped.
_TOKEN_RE = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


def _read_sexprs(text: str):
    """Group the text's tokens into nested (items, open paren) pairs; atoms
    stay as _Token."""
    exprs = []
    stack = []
    line, line_start = 1, 0  # line_start: the offset of the line's first char
    for m in _TOKEN_RE.finditer(text):
        word = m.group()
        if word == "\n":
            line, line_start = line + 1, m.end()
        elif word == ")":
            if not stack:
                raise SpecError("unbalanced ')'", line, m.start() - line_start + 1)
            node = stack.pop()
            (stack[-1][0] if stack else exprs).append(node)
        elif word[0] != ";":
            tok = _Token(word, line, m.start() - line_start + 1)
            if word != "(":
                (stack[-1][0] if stack else exprs).append(tok)
            elif len(stack) == _MAX_DEPTH:
                raise SpecError(f"nested deeper than {_MAX_DEPTH} levels", tok.line, tok.col)
            else:
                stack.append(([], tok))
    if stack:
        _, open_tok = stack[-1]
        raise SpecError("unbalanced '('", open_tok.line, open_tok.col)
    return exprs


def _is_number(token: str) -> bool:
    # float() also takes digit-group underscores and non-ASCII digits
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
        return True
    except ValueError:
        return False


def _render(node) -> str:
    if isinstance(node, _Token):
        return node.text
    items, _ = node
    return "(" + " ".join(_render(it) for it in items) + ")"


class _Parser:
    def __init__(self):
        self.declared: dict[tuple[str, int], None] = {}
        self.assertions = []

    # -- expressions ------------------------------------------------------

    def parse_expr(self, node) -> AffineExpr:
        if isinstance(node, _Token):
            if _is_number(node.text):
                value = float(node.text)
                if not math.isfinite(value):  # inf, nan, or 1e999 overflowing
                    raise SpecError(f"non-finite number '{node.text}'", node.line, node.col)
                return AffineExpr((), value)
            m = _VAR_RE.match(node.text)
            if m:
                key = (m.group(1), int(m.group(2)))
                if key not in self.declared:
                    raise SpecError(
                        f"undeclared variable {node.text}", node.line, node.col
                    )
                return AffineExpr.from_dict({key: 1.0}, 0.0)
            raise SpecError(f"unexpected token '{node.text}'", node.line, node.col)

        items, open_tok = node
        if not items or not isinstance(items[0], _Token):
            raise SpecError("expected operator", open_tok.line, open_tok.col)
        op = items[0].text
        args = [self.parse_expr(it) for it in items[1:]]
        if not args:
            raise SpecError(f"operator '{op}' needs arguments", open_tok.line, open_tok.col)

        if op == "+":
            return self._sum(args)
        if op == "-":
            if len(args) == 1:
                return self._scale(args[0], -1.0)
            return self._sum([args[0]] + [self._scale(a, -1.0) for a in args[1:]])
        if op == "*":
            return self._product(args, node)
        raise SpecError(f"unsupported operator '{op}'", open_tok.line, open_tok.col)

    @staticmethod
    def _sum(args: list[AffineExpr]) -> AffineExpr:
        coeffs: dict = {}
        const = 0.0
        for a in args:
            const += a.const
            for k, v in a.coeffs:
                coeffs[k] = coeffs.get(k, 0.0) + v
        return AffineExpr.from_dict(coeffs, const)

    @staticmethod
    def _scale(a: AffineExpr, s: float) -> AffineExpr:
        return AffineExpr.from_dict({k: v * s for k, v in a.coeffs}, a.const * s)

    def _product(self, args: list[AffineExpr], node) -> AffineExpr:
        _, open_tok = node
        variable_part = None
        scale = 1.0
        for a in args:
            if a.is_constant:
                scale *= a.const
            elif variable_part is None:
                variable_part = a
            else:
                raise SpecError(
                    f"non-affine term {_render(node)}", open_tok.line, open_tok.col
                )
        if variable_part is None:
            return AffineExpr((), scale)
        return self._scale(variable_part, scale)

    # -- boolean terms ----------------------------------------------------

    def parse_term(self, node):
        if isinstance(node, _Token):
            raise SpecError(
                f"expected boolean term, got '{node.text}'", node.line, node.col
            )
        items, open_tok = node
        if not items or not isinstance(items[0], _Token):
            raise SpecError("expected boolean operator", open_tok.line, open_tok.col)
        op = items[0].text
        if op in ("and", "or"):
            terms = tuple(self.parse_term(it) for it in items[1:])
            if not terms:
                raise SpecError(f"empty ({op})", open_tok.line, open_tok.col)
            return BoolTerm(op, terms)
        if op in ("<", ">"):
            warnings.warn(
                f"strict '{op}' at line {open_tok.line} treated as non-strict",
                stacklevel=4,
            )
            op = "<=" if op == "<" else ">="
        if op in ("<=", ">="):
            if len(items) != 3:
                raise SpecError(
                    f"'{op}' takes exactly two arguments", open_tok.line, open_tok.col
                )
            return Atom(op, self.parse_expr(items[1]), self.parse_expr(items[2]))
        raise SpecError(f"unsupported operator '{op}'", open_tok.line, open_tok.col)

    # -- top-level commands -----------------------------------------------

    def parse_command(self, node):
        if isinstance(node, _Token):
            raise SpecError(
                f"expected command, got '{node.text}'", node.line, node.col
            )
        items, open_tok = node
        if not items or not isinstance(items[0], _Token):
            raise SpecError("expected command", open_tok.line, open_tok.col)
        head = items[0].text
        if head == "declare-const":
            if len(items) != 3 or not isinstance(items[1], _Token):
                raise SpecError("malformed declare-const", open_tok.line, open_tok.col)
            name, sort = items[1], items[2]
            if not isinstance(sort, _Token) or sort.text != "Real":
                raise SpecError(
                    "only Real declarations are supported", open_tok.line, open_tok.col
                )
            m = _VAR_RE.match(name.text)
            if not m:
                raise SpecError(
                    f"variable name must be X_<i> or Y_<j>, got '{name.text}'",
                    name.line,
                    name.col,
                )
            key = (m.group(1), int(m.group(2)))
            if key in self.declared:
                raise SpecError(f"duplicate declaration {name.text}", name.line, name.col)
            self.declared[key] = None
        elif head == "assert":
            if len(items) != 2:
                raise SpecError("assert takes one term", open_tok.line, open_tok.col)
            self.assertions.append(self.parse_term(items[1]))
        else:
            raise SpecError(f"unsupported command '{head}'", open_tok.line, open_tok.col)


def parse_vnnlib(text: str) -> SpecAst:
    """Parse specification source into an AST.

    Raises SpecError with position information on syntax errors, nesting
    deeper than 256 levels, non-finite numbers, undeclared variables,
    non-affine terms, or non-dense variable indices.
    """
    parser = _Parser()
    for node in _read_sexprs(text):
        parser.parse_command(node)

    inputs = sorted(i for (kind, i) in parser.declared if kind == "X")
    outputs = sorted(j for (kind, j) in parser.declared if kind == "Y")
    if inputs != list(range(len(inputs))):
        raise SpecError(f"input indices not dense: {['X_%d' % i for i in inputs]}")
    if outputs != list(range(len(outputs))):
        raise SpecError(f"output indices not dense: {['Y_%d' % j for j in outputs]}")
    return SpecAst(len(inputs), len(outputs), parser.assertions)


# ---------------------------------------------------------------------------
# DNF normalization


def _term_to_dnf(term) -> list[list[tuple[dict, float]]]:
    """Disjuncts as lists of normalized atoms; each atom is normalized once
    and its (coeffs, const) pair is shared by every disjunct it lands in."""
    if isinstance(term, Atom):
        return [[_normalize_atom(term)]]
    if term.kind == "or":
        out = []
        for t in term.terms:
            out.extend(_term_to_dnf(t))
            if len(out) > MAX_DISJUNCTS:
                raise SpecError("specification too disjunctive")
        return out
    # "and": distribute left-to-right
    out = [[]]
    for t in term.terms:
        branches = _term_to_dnf(t)
        out = [prefix + b for prefix in out for b in branches]
        if len(out) > MAX_DISJUNCTS:
            raise SpecError("specification too disjunctive")
    return out


def _normalize_atom(atom: Atom) -> tuple[dict, float]:
    """Rewrite to g(x, y) <= 0; returns (coeffs, const) of g."""
    lhs, rhs = atom.lhs, atom.rhs
    if atom.op == ">=":
        lhs, rhs = rhs, lhs
    coeffs: dict = {}
    for k, v in lhs.coeffs:
        coeffs[k] = coeffs.get(k, 0.0) + v
    for k, v in rhs.coeffs:
        coeffs[k] = coeffs.get(k, 0.0) - v
    coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
    const = lhs.const - rhs.const
    if not all(map(math.isfinite, (const, *coeffs.values()))):
        raise SpecError("coefficient overflows to a non-finite value")
    return coeffs, const


def _build_conjunct(atoms: list, n_inputs: int, n_outputs: int) -> Conjunct | None:
    """Fold pure-input bounds of normalized atoms into a box; returns None
    for an empty conjunct."""
    lower = np.full(n_inputs, -np.inf)
    upper = np.full(n_inputs, np.inf)
    mixed: list[tuple[dict, float]] = []

    for coeffs, const in atoms:
        if not coeffs:
            if const <= 0.0:
                continue  # trivially true
            return None  # trivially false
        if len(coeffs) == 1:
            ((kind, i), c), = coeffs.items()
            if kind == "X":
                bound = -const / c
                if c > 0:
                    upper[i] = min(upper[i], bound)
                else:
                    lower[i] = max(lower[i], bound)
                continue
        mixed.append((coeffs, -const))

    unbounded = [
        i for i in range(n_inputs) if not np.isfinite(lower[i]) or not np.isfinite(upper[i])
    ]
    if unbounded:
        raise SpecError(
            "unbounded input dimension(s): " + ", ".join(f"X_{i}" for i in unbounded)
        )

    if np.any(lower > upper):
        return None
    a_y, b_x = np.zeros((len(mixed), n_outputs)), np.zeros((len(mixed), n_inputs))
    for j, (coeffs, _) in enumerate(mixed):
        for (kind, i), v in coeffs.items():
            (a_y if kind == "Y" else b_x)[j, i] = v
    return Conjunct(lower, upper, a_y, b_x, [rhs for _, rhs in mixed])


def to_dnf(ast: SpecAst) -> NormalizedSpec:
    """Distribute the assertion conjunction into disjunctive normal form.

    Per conjunct, single-variable input atoms fold into the input box
    (tightest bound wins); everything else stays as a joint constraint.
    Empty conjuncts are dropped.  Disjunct order is deterministic: source
    order with left-to-right distribution.  SpecError is raised when
    distribution exceeds MAX_DISJUNCTS (4096) disjuncts, when a conjunct
    leaves an input without a finite lower and upper bound, or when any
    atom's coefficients overflow to non-finite values.
    """
    disjuncts = []
    for atoms in _term_to_dnf(BoolTerm("and", tuple(ast.assertions))):
        conj = _build_conjunct(atoms, ast.n_inputs, ast.n_outputs)
        if conj is not None:
            disjuncts.append(conj)
    return NormalizedSpec(ast.n_inputs, ast.n_outputs, tuple(disjuncts))


def load_spec(path) -> NormalizedSpec:
    """Read a specification file as UTF-8, parse it and normalize it.

    Raises SpecError for a malformed spec or bytes that are not UTF-8, and
    OSError for an unreadable path.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return to_dnf(parse_vnnlib(text))
