"""Specification language: parsing, DNF normalization and evaluation.

Specifications are written in an SMT-LIB2 subset over real-valued input
variables ``X_0..X_{n-1}`` and output variables ``Y_0..Y_{m-1}``.  A
specification encodes a *counterexample*: it is satisfiable exactly when the
property it describes is violated.  The supported grammar is::

    (declare-const X_i Real)      (declare-const Y_j Real)
    (assert <term>)
    <term> ::= (and <term>+) | (or <term>+) | (<= <expr> <expr>) | (>= <expr> <expr>)
    <expr> ::= <decimal> | X_i | Y_j | (+ <expr>+) | (- <expr>+) | (* <expr>+)

Products must stay affine (at most one non-constant factor).  Comments run
from ``;`` to end of line.  Strict ``<``/``>`` are accepted as their
non-strict forms with a warning, which is unobservable under tolerance-based
witness checking over the reals.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

_VAR_RE = re.compile(r"^([XY])_(\d+)$")

# Magnitude substituted for missing box bounds when explicitly allowed.
UNBOUNDED_MAGNITUDE = 1e30

# Default cap on the number of disjuncts produced by DNF distribution.
DEFAULT_MAX_DISJUNCTS = 4096


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

    def evaluate(self, x, y) -> float:
        total = self.const
        for (kind, idx), c in self.coeffs:
            total += c * (x[idx] if kind == "X" else y[idx])
        return total


@dataclass(frozen=True)
class Atom:
    """Inequality between two affine expressions; op is "<=" or ">="."""

    op: str
    lhs: AffineExpr
    rhs: AffineExpr

    def evaluate(self, x, y, tol: float = 0.0) -> bool:
        a = self.lhs.evaluate(x, y)
        b = self.rhs.evaluate(x, y)
        return a <= b + tol if self.op == "<=" else a >= b - tol


@dataclass(frozen=True)
class BoolTerm:
    """AND/OR node over atoms and nested terms; kind is "and" or "or"."""

    kind: str
    terms: tuple

    def evaluate(self, x, y, tol: float = 0.0) -> bool:
        if self.kind == "and":
            return all(t.evaluate(x, y, tol) for t in self.terms)
        return any(t.evaluate(x, y, tol) for t in self.terms)


@dataclass
class SpecAst:
    """Parsed specification: declarations plus a conjunction of assertions."""

    n_inputs: int
    n_outputs: int
    declarations: list[tuple[str, int]]
    assertions: list  # Atom | BoolTerm

    def evaluate(self, x, y, tol: float = 0.0) -> bool:
        """Truth value of the assertion conjunction at a concrete point."""
        return all(t.evaluate(x, y, tol) for t in self.assertions)


@dataclass(frozen=True)
class MixedConstraint:
    """Affine inequality a_y . y + b_x . x <= rhs over inputs and outputs."""

    a_y: tuple[float, ...]
    b_x: tuple[float, ...]
    rhs: float


@dataclass(frozen=True)
class Conjunct:
    """One disjunct: an input box plus joint affine constraints."""

    input_lower: tuple[float, ...]
    input_upper: tuple[float, ...]
    constraints: tuple[MixedConstraint, ...]


@dataclass(frozen=True)
class NormalizedSpec:
    """Disjunctive normal form of a specification.

    A point ``(x, y)`` satisfies the spec iff it satisfies at least one
    conjunct.  SAT means the property is violated; UNSAT means it holds.
    """

    n_inputs: int
    n_outputs: int
    disjuncts: tuple[Conjunct, ...]

    def to_json_dict(self) -> dict:
        return {
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "disjuncts": [
                {
                    "input_lower": list(c.input_lower),
                    "input_upper": list(c.input_upper),
                    "constraints": [
                        {"a_y": list(m.a_y), "b_x": list(m.b_x), "rhs": m.rhs}
                        for m in c.constraints
                    ],
                }
                for c in self.disjuncts
            ],
        }

    def dumps(self) -> str:
        """Deterministic textual dump (bytes are stable for equal specs)."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


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


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in "()":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        tokens.append(_Token(text[start:i], line, start_col))
    return tokens


def _read_sexprs(tokens: list[_Token]):
    """Group tokens into nested lists; atoms stay as _Token."""
    exprs = []
    stack = []
    for tok in tokens:
        if tok.text == "(":
            stack.append(([], tok))
        elif tok.text == ")":
            if not stack:
                raise SpecError("unbalanced ')'", tok.line, tok.col)
            items, open_tok = stack.pop()
            node = (items, open_tok)
            if stack:
                stack[-1][0].append(node)
            else:
                exprs.append(node)
        else:
            if stack:
                stack[-1][0].append(tok)
            else:
                exprs.append(tok)
    if stack:
        _, open_tok = stack[-1]
        raise SpecError("unbalanced '('", open_tok.line, open_tok.col)
    return exprs


def _is_number(token: str) -> bool:
    if token.lower() in ("inf", "-inf", "+inf", "nan", "-nan", "+nan"):
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
                return AffineExpr((), float(node.text))
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

    Raises SpecError with position information on syntax errors, undeclared
    variables, non-affine terms, or non-dense variable indices.
    """
    parser = _Parser()
    for node in _read_sexprs(_tokenize(text)):
        parser.parse_command(node)

    inputs = sorted(i for (kind, i) in parser.declared if kind == "X")
    outputs = sorted(j for (kind, j) in parser.declared if kind == "Y")
    if inputs != list(range(len(inputs))):
        raise SpecError(f"input indices not dense: {['X_%d' % i for i in inputs]}")
    if outputs != list(range(len(outputs))):
        raise SpecError(f"output indices not dense: {['Y_%d' % j for j in outputs]}")

    decls = [(k, i) for (k, i) in parser.declared]
    return SpecAst(len(inputs), len(outputs), decls, parser.assertions)


# ---------------------------------------------------------------------------
# DNF normalization


def _term_to_dnf(term, cap: int) -> list[list[Atom]]:
    if isinstance(term, Atom):
        return [[term]]
    if term.kind == "or":
        out = []
        for t in term.terms:
            out.extend(_term_to_dnf(t, cap))
            if len(out) > cap:
                raise SpecError("specification too disjunctive")
        return out
    # "and": distribute left-to-right
    out = [[]]
    for t in term.terms:
        branches = _term_to_dnf(t, cap)
        out = [prefix + b for prefix in out for b in branches]
        if len(out) > cap:
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
    return coeffs, lhs.const - rhs.const


def _build_conjunct(
    atoms: list[Atom],
    n_inputs: int,
    n_outputs: int,
    allow_unbounded: bool,
) -> Conjunct | None:
    """Fold pure-input bounds into a box; returns None for an empty conjunct."""
    lower = np.full(n_inputs, -np.inf)
    upper = np.full(n_inputs, np.inf)
    mixed: list[MixedConstraint] = []

    for atom in atoms:
        coeffs, const = _normalize_atom(atom)
        x_keys = [k for k in coeffs if k[0] == "X"]
        y_keys = [k for k in coeffs if k[0] == "Y"]
        if not coeffs:
            if const <= 0.0:
                continue  # trivially true
            return None  # trivially false
        if not y_keys and len(x_keys) == 1:
            (_, i), = x_keys
            c = coeffs[x_keys[0]]
            bound = -const / c
            if c > 0:
                upper[i] = min(upper[i], bound)
            else:
                lower[i] = max(lower[i], bound)
            continue
        a_y = np.zeros(n_outputs)
        b_x = np.zeros(n_inputs)
        for (kind, i), v in coeffs.items():
            (a_y if kind == "Y" else b_x)[i] = v
        mixed.append(MixedConstraint(tuple(a_y), tuple(b_x), -const))

    unbounded = [
        i for i in range(n_inputs) if not np.isfinite(lower[i]) or not np.isfinite(upper[i])
    ]
    if unbounded:
        if not allow_unbounded:
            raise SpecError(
                "unbounded input dimension(s): "
                + ", ".join(f"X_{i}" for i in unbounded)
            )
        lower = np.maximum(lower, -UNBOUNDED_MAGNITUDE)
        upper = np.minimum(upper, UNBOUNDED_MAGNITUDE)

    if np.any(lower > upper):
        return None
    return Conjunct(tuple(lower), tuple(upper), tuple(mixed))


def to_dnf(
    ast: SpecAst,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    allow_unbounded: bool = False,
) -> NormalizedSpec:
    """Distribute the assertion conjunction into disjunctive normal form.

    Per conjunct, single-variable input atoms fold into the input box
    (tightest bound wins); everything else stays as a joint constraint.
    Empty conjuncts are dropped.  Disjunct order is deterministic: source
    order with left-to-right distribution.
    """
    conjunction = BoolTerm("and", tuple(ast.assertions)) if ast.assertions else None
    if conjunction is None:
        branches = [[]]
    else:
        branches = _term_to_dnf(conjunction, max_disjuncts)

    disjuncts = []
    for atoms in branches:
        conj = _build_conjunct(atoms, ast.n_inputs, ast.n_outputs, allow_unbounded)
        if conj is not None:
            disjuncts.append(conj)
    return NormalizedSpec(ast.n_inputs, ast.n_outputs, tuple(disjuncts))


# ---------------------------------------------------------------------------
# Evaluation


def _conjunct_satisfied(
    conj: Conjunct, x, y, tol: float, relative: bool, abs_floor: float
) -> bool:
    for i, (lo, hi) in enumerate(zip(conj.input_lower, conj.input_upper)):
        slack = tol
        if relative:
            scale = max(1.0, abs(x[i]), abs(lo), abs(hi))
            slack = max(abs_floor, tol * scale)
        if x[i] < lo - slack or x[i] > hi + slack:
            return False
    for m in conj.constraints:
        lhs = float(np.dot(m.a_y, y) + np.dot(m.b_x, x))
        slack = tol
        if relative:
            scale = max(1.0, abs(lhs), abs(m.rhs))
            slack = max(abs_floor, tol * scale)
        if lhs > m.rhs + slack:
            return False
    return True


def eval_spec(
    spec: NormalizedSpec,
    x,
    y,
    tol: float = 0.0,
    *,
    relative: bool = False,
    abs_floor: float = 0.0,
) -> bool:
    """True iff some conjunct is satisfied, inequalities slackened by tol.

    With ``relative=True`` the slack per inequality is
    ``max(abs_floor, tol * scale)`` where scale grows with the magnitudes
    involved; witness validation uses this mode.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (spec.n_inputs,):
        raise ValueError(f"expected {spec.n_inputs} inputs, got shape {x.shape}")
    if y.shape != (spec.n_outputs,):
        raise ValueError(f"expected {spec.n_outputs} outputs, got shape {y.shape}")
    return any(
        _conjunct_satisfied(c, x, y, tol, relative, abs_floor) for c in spec.disjuncts
    )


def conjunct_satisfied(conj: Conjunct, x, y, tol: float = 0.0) -> bool:
    """Exact satisfaction check for a single conjunct."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _conjunct_satisfied(conj, x, y, tol, False, 0.0)
