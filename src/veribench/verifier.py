"""Baseline verifier, falsifier and witness validation.

verify() runs branch-and-bound over input splits with the affine relaxation
as the pruning bound.  falsify() is the cheap counterexample search (uniform
sampling, then sign-gradient ascent on constraint slack) that also defines
the competition's "answerable by random testing" baseline.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .bounds import (
    UnsupportedActivationError,
    _meet,
    affine_bounds,
    infeasible,
)
from .network import (
    ActivationLayer,
    AffineLayer,
    Box,
    Network,
    forward,
)
from .speclang import (
    Conjunct,
    NormalizedSpec,
    Witness,
    conjunct_satisfied,
    eval_spec,
)

# Boxes narrower than this per dimension are not split further.
MIN_SPLIT_WIDTH = 1e-12

# Relative tolerance used when a found counterexample is re-validated.
WITNESS_TOL = 1e-6
WITNESS_ABS_FLOOR = 1e-9


class Status(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    TIMEOUT = "timeout"
    ERROR = "error"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Budget:
    """Resource limits for verify/falsify; all fields must be positive."""

    wall_seconds: float = 60.0
    max_subproblems: int = 1_000_000
    falsifier_samples: int = 100
    pgd_restarts: int = 3
    pgd_steps: int = 50
    pgd_step_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in (
            "wall_seconds",
            "max_subproblems",
            "falsifier_samples",
            "pgd_restarts",
            "pgd_steps",
            "pgd_step_scale",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# The pinned budget for deciding which instances count as answerable by
# plain random testing / gradient attack.
EASY_VIOLATED_BUDGET = Budget(wall_seconds=10.0)


@dataclass
class Stats:
    subproblems: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class Outcome:
    status: Status
    witness: Witness | None = None
    stats: Stats = field(default_factory=Stats)

    def __post_init__(self):
        if self.status is Status.VIOLATED and self.witness is None:
            raise ValueError("a violated outcome requires a witness")


class _BudgetExhausted(Exception):
    pass


class _Unresolvable(Exception):
    pass


def _make_witness(net: Network, x: np.ndarray) -> Witness:
    y = forward(net, x)
    return Witness(tuple(float(v) for v in x), tuple(float(v) for v in y))


# ---------------------------------------------------------------------------
# Gradients


def _forward_trace(net: Network, x: np.ndarray):
    """Forward pass recording what backprop needs per layer."""
    v = np.asarray(x, dtype=np.float64)
    trace = []
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            trace.append(("affine", layer.weight))
            v = layer.weight @ v + layer.bias
        elif isinstance(layer, ActivationLayer):
            z = v
            if layer.kind == "relu":
                v = np.maximum(z, 0.0)
                trace.append(("relu", z))
            elif layer.kind == "sigmoid":
                from .network import _stable_sigmoid

                v = _stable_sigmoid(z)
                trace.append(("sigmoid", v))
            else:
                v = np.tanh(z)
                trace.append(("tanh", v))
        else:
            trace.append(("keep",))
    return v, trace


def output_combination_gradient(net: Network, x, a_y) -> np.ndarray:
    """d/dx of a_y . f(x), by reverse accumulation through the layers."""
    _, trace = _forward_trace(net, np.asarray(x, dtype=np.float64))
    v = np.asarray(a_y, dtype=np.float64).copy()
    for entry in reversed(trace):
        kind = entry[0]
        if kind == "affine":
            v = entry[1].T @ v
        elif kind == "relu":
            v = v * (entry[1] > 0.0)
        elif kind == "sigmoid":
            s = entry[1]
            v = v * s * (1.0 - s)
        elif kind == "tanh":
            t = entry[1]
            v = v * (1.0 - t * t)
    return v


def _slacks(conj: Conjunct, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array(
        [
            m.rhs - (np.dot(m.a_y, y) + np.dot(m.b_x, x))
            for m in conj.constraints
        ]
    )


# ---------------------------------------------------------------------------
# Falsifier


def falsify(net: Network, spec: NormalizedSpec, budget: Budget) -> Witness | None:
    """Search for a satisfying point: random samples, then gradient ascent.

    Phase 2 maximizes the minimum constraint slack of a conjunct with
    sign-gradient steps of 0.1 box-width per dimension (configurable),
    iterates clipped to the box.  Deterministic for a fixed budget.seed.
    """
    if spec.n_inputs != net.n_inputs or spec.n_outputs != net.n_outputs:
        raise ValueError("spec dimensions do not match network")
    rng = np.random.default_rng(budget.seed)
    deadline = time.monotonic() + budget.wall_seconds

    for conj in spec.disjuncts:
        box = Box(conj.input_lower, conj.input_upper)

        best_x = None
        best_slack = -np.inf
        for x in box.sample(rng, budget.falsifier_samples):
            if time.monotonic() > deadline:
                return None
            y = forward(net, x)
            if conjunct_satisfied(conj, x, y):
                w = _make_witness(net, x)
                if validate_witness(net, spec, w, WITNESS_TOL):
                    return w
            if conj.constraints:
                s = float(np.min(_slacks(conj, x, y)))
                if s > best_slack:
                    best_slack, best_x = s, x

        if not conj.constraints:
            continue  # sampling would have hit an unconstrained conjunct

        step = budget.pgd_step_scale * box.width
        for restart in range(budget.pgd_restarts):
            if restart == 0 and best_x is not None:
                x = best_x.copy()
            else:
                x = box.sample(rng, 1)[0]
            for _ in range(budget.pgd_steps):
                if time.monotonic() > deadline:
                    return None
                y = forward(net, x)
                s = _slacks(conj, x, y)
                j = int(np.argmin(s))
                if s[j] >= 0.0:
                    break
                m = conj.constraints[j]
                # slack_j = rhs - (a_y.f(x) + b_x.x); ascend it
                g = output_combination_gradient(net, x, m.a_y) + np.asarray(m.b_x)
                x = box.clip(x - step * np.sign(g))
            y = forward(net, x)
            if conjunct_satisfied(conj, x, y):
                w = _make_witness(net, x)
                if validate_witness(net, spec, w, WITNESS_TOL):
                    return w
    return None


# ---------------------------------------------------------------------------
# Branch-and-bound verification


def _probe(net, spec, conj, points) -> Witness | None:
    for x in points:
        y = forward(net, x)
        if conjunct_satisfied(conj, x, y):
            w = _make_witness(net, x)
            if validate_witness(net, spec, w, WITNESS_TOL):
                return w
    return None


def _constraint_corners(ab, a_y, b_x, box: Box) -> list[np.ndarray]:
    """Per constraint row, the box corner minimizing its affine substitution."""
    corners = []
    for a, b in zip(a_y[:8], b_x[:8]):
        ap = np.maximum(a, 0.0)
        an = np.minimum(a, 0.0)
        row = ap @ ab.lower_weight + an @ ab.upper_weight + b
        corners.append(np.where(row > 0, box.lower, box.upper))
    return corners


def refine_output_box(net: Network, box: Box, inherited: Box | None = None):
    """Affine bounds for a search node, intersected with the parent's bounds.

    The intersection makes node bounds monotone under splitting: a child's
    output box is always contained in its parent's.  It is the array meet
    that ``affine_bounds`` applies per layer, made a ``Box`` once per node.
    """
    ab = affine_bounds(net, box)
    out = ab.output_box
    if inherited is not None:
        out = Box(*_meet(out.lower, out.upper, inherited.lower, inherited.upper))
    return ab, out


def _search_conjunct(net, spec, conj, budget, deadline, stats) -> Witness | None:
    # the conjunct's constraints as float arrays, built once for every node
    cs, k = conj.constraints, len(conj.constraints)
    a_y = np.array([m.a_y for m in cs], dtype=np.float64).reshape(k, spec.n_outputs)
    b_x = np.array([m.b_x for m in cs], dtype=np.float64).reshape(k, spec.n_inputs)
    rhs = np.array([m.rhs for m in cs], dtype=np.float64)
    root = Box(conj.input_lower, conj.input_upper)
    stack: list[tuple[Box, Box | None]] = [(root, None)]
    while stack:
        if time.monotonic() > deadline or stats.subproblems >= budget.max_subproblems:
            raise _BudgetExhausted
        box, inherited = stack.pop()
        stats.subproblems += 1

        w = _probe(net, spec, conj, [box.midpoint()])
        if w is not None:
            return w

        ab, out_box = refine_output_box(net, box, inherited)
        if infeasible(ab, a_y, b_x, rhs, out_box):
            continue

        w = _probe(net, spec, conj, _constraint_corners(ab, a_y, b_x, box))
        if w is not None:
            return w

        dim = int(np.argmax(box.width))  # argmax takes the lowest index on ties
        if box.width[dim] < MIN_SPLIT_WIDTH:
            # cannot refine further and could not decide this cell
            raise _Unresolvable
        left, right = box.split(dim)
        stack.append((right, out_box))
        stack.append((left, out_box))
    return None


def verify(net: Network, spec: NormalizedSpec, budget: Budget) -> Outcome:
    """Decide the spec over the network within the budget.

    HOLDS when every disjunct's box tree is exhausted, VIOLATED on the first
    validated witness, TIMEOUT when the wall clock or subproblem budget runs
    out, UNKNOWN for unsupported activations (falsifier-only) or cells that
    cannot be split further.  The status does not depend on exploration
    order; any returned witness is validated.
    """
    if spec.n_inputs != net.n_inputs or spec.n_outputs != net.n_outputs:
        raise ValueError("spec dimensions do not match network")
    start = time.monotonic()
    stats = Stats()

    def done(status: Status, witness: Witness | None = None) -> Outcome:
        stats.wall_time = time.monotonic() - start
        return Outcome(status, witness, stats)

    has_unsupported = any(
        isinstance(l, ActivationLayer) and l.kind != "relu" for l in net.layers
    )
    if has_unsupported:
        try:
            w = falsify(net, spec, budget)
        except ArithmeticError:
            return done(Status.ERROR)
        return done(Status.VIOLATED, w) if w is not None else done(Status.UNKNOWN)

    deadline = start + budget.wall_seconds
    undecided = False
    try:
        for conj in spec.disjuncts:
            try:
                w = _search_conjunct(net, spec, conj, budget, deadline, stats)
            except _Unresolvable:
                # a cell too narrow to split; other disjuncts may still violate
                undecided = True
                continue
            if w is not None:
                return done(Status.VIOLATED, w)
    except _BudgetExhausted:
        return done(Status.TIMEOUT)
    except (ArithmeticError, UnsupportedActivationError):
        return done(Status.ERROR)
    return done(Status.UNKNOWN) if undecided else done(Status.HOLDS)


# ---------------------------------------------------------------------------
# Witness validation and file format


def validate_witness(
    net: Network, spec: NormalizedSpec, witness: Witness, tol: float = WITNESS_TOL
) -> bool:
    """Recompute the outputs at witness.x and check spec satisfaction.

    Tolerance is relative with an absolute floor of 1e-9.  A claimed output
    vector that disagrees with the recomputation fails validation with a
    warning.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = np.asarray(witness.x, dtype=np.float64)
    if x.size != spec.n_inputs:
        raise ValueError(f"witness has {x.size} inputs, spec needs {spec.n_inputs}")
    y = forward(net, x)
    if witness.y_claimed is not None:
        yc = np.asarray(witness.y_claimed, dtype=np.float64)
        if yc.size != y.size:
            raise ValueError(
                f"witness claims {yc.size} outputs, network has {y.size}"
            )
        allow = np.maximum(WITNESS_ABS_FLOOR, tol * np.maximum(1.0, np.abs(y)))
        if np.any(np.abs(yc - y) > allow):
            worst = float(np.max(np.abs(yc - y)))
            warnings.warn(
                f"claimed-output mismatch: deviation {worst:.3g} exceeds tolerance",
                stacklevel=2,
            )
            return False
    return eval_spec(spec, x, y, tol, relative=True, abs_floor=WITNESS_ABS_FLOOR)


def format_witness(witness: Witness) -> str:
    lines = [f"X_{i} {format(v, '.17g')}" for i, v in enumerate(witness.x)]
    if witness.y_claimed is not None:
        lines += [f"Y_{j} {format(v, '.17g')}" for j, v in enumerate(witness.y_claimed)]
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> Witness:
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or "_" not in parts[0]:
            raise ValueError(f"bad witness line {lineno}: {line!r}")
        kind, _, idx = parts[0].partition("_")
        target = {"X": xs, "Y": ys}.get(kind)
        if target is None:
            raise ValueError(f"bad witness line {lineno}: {line!r}")
        if int(idx) != len(target):
            raise ValueError(
                f"witness line {lineno}: expected index {len(target)}, got {idx}"
            )
        target.append(float(parts[1]))
    if not xs:
        raise ValueError("witness has no input values")
    return Witness(tuple(xs), tuple(ys) if ys else None)


def write_witness(witness: Witness, path) -> None:
    Path(path).write_text(format_witness(witness), encoding="utf-8")


def read_witness(path) -> Witness:
    return parse_witness(Path(path).read_text(encoding="utf-8"))
