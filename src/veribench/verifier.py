"""Baseline verifier, falsifier and witness validation.

verify() runs branch-and-bound over input splits.  It prunes a box when a
constraint row's lower bound, back-substituted through the ReLU relaxation
of the box (``bounds._constraint_rows``), exceeds the row's rhs.  It works
on a frontier of up to 32 boxes per step, held as stacked arrays and taken
depth first: all their midpoints are probed in one forward pass before any
bound is computed, all of them are bounded in one batched call, the
survivors' constraint corners (the corners minimizing each row's
back-substituted lower form) are probed in one forward pass, and each
survivor is split on its widest dimension.
A batch fails as a whole: a bound that overflows in any of its rows is an
error once the batch's midpoints are probed.  Uncapped, the status does not
depend on this order.  falsify() is the cheap counterexample
search (uniform sampling, then sign-gradient ascent on constraint slack)
that also defines the competition's "answerable by random testing"
baseline; it scores its samples in fixed-size batches and runs its
gradient restarts in lockstep, one forward and one backward pass per step
for all of them.
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
    _affine_forms,
    _constraint_rows,
    _meet,
)
from .network import (
    ActivationLayer,
    AffineLayer,
    Box,
    Network,
    forward,
    layer_outputs,
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


def _backprop(net: Network, outs: list, a_y) -> np.ndarray:
    """Reverse accumulation of a_y . f(x) over the layer outputs of one pass.

    ``outs`` is ``layer_outputs(net, x)``; rows of ``a_y`` pair with rows of
    ``x``.  An activation's derivative is read off its output: ReLU passes
    where the output is positive, sigmoid scales by ``s (1 - s)`` and tanh by
    ``1 - t**2``.
    """
    g = np.asarray(a_y, dtype=np.float64)
    for layer, out in zip(reversed(net.layers), reversed(outs[1:])):
        if isinstance(layer, AffineLayer):
            g = g @ layer.weight
        elif isinstance(layer, ActivationLayer):
            if layer.kind == "relu":
                g = g * (out > 0.0)
            elif layer.kind == "sigmoid":
                g = g * out * (1.0 - out)
            else:
                g = g * (1.0 - out * out)
    return g


def output_combination_gradient(net: Network, x, a_y) -> np.ndarray:
    """d/dx of a_y . f(x), by reverse accumulation through the layers.

    One point ``x`` of shape ``(n,)`` with ``a_y`` of shape ``(m,)``, or a
    batch: row i of the ``(N, n)`` result is the gradient of
    ``a_y[i] . f(x[i])``.
    """
    return _backprop(net, layer_outputs(net, x), a_y)


# ---------------------------------------------------------------------------
# Falsifier

# Random samples are scored this many at a time, so memory stays bounded
# however many samples a budget asks for.
_SAMPLE_BLOCK = 4096


def _constraint_arrays(spec: NormalizedSpec, conj: Conjunct):
    """A conjunct's constraints as arrays a_y (k, m), b_x (k, n) and rhs (k)."""
    cs, k = conj.constraints, len(conj.constraints)
    a_y = np.array([m.a_y for m in cs], dtype=np.float64).reshape(k, spec.n_outputs)
    b_x = np.array([m.b_x for m in cs], dtype=np.float64).reshape(k, spec.n_inputs)
    rhs = np.array([m.rhs for m in cs], dtype=np.float64)
    return a_y, b_x, rhs


def _worst_slack(cons, X, Y) -> np.ndarray:
    """Per row, the least ``rhs - (a_y . y + b_x . x)`` over the constraints."""
    a_y, b_x, rhs = cons
    return np.min(rhs - (Y @ a_y.T + X @ b_x.T), axis=1, initial=np.inf)


def _witness_among(net, spec, conj, X, Y, worst) -> Witness | None:
    """The first row with no negative slack that passes the exact checks."""
    for i in np.flatnonzero(worst >= 0.0):
        if conjunct_satisfied(conj, X[i], Y[i]):
            w = _make_witness(net, X[i])
            if validate_witness(net, spec, w, WITNESS_TOL):
                return w
    return None


def _probe(net, spec, conj, cons, points) -> Witness | None:
    """Forward the points as one batch; the first that satisfies and re-validates."""
    Y = forward(net, points)
    return _witness_among(net, spec, conj, points, Y, _worst_slack(cons, points, Y))


def falsify(net: Network, spec: NormalizedSpec, budget: Budget) -> Witness | None:
    """Search for a satisfying point: random samples, then gradient ascent.

    Per conjunct, phase 1 draws ``falsifier_samples`` uniform points from
    its box and scores them in blocks of 4096 (``_SAMPLE_BLOCK``), one
    batched forward pass per block; the first point in draw order that
    satisfies the conjunct and re-validates is returned.  Phase 2 maximizes
    the minimum constraint slack from ``pgd_restarts`` starts, run in
    lockstep as one batch: the best sample, then fresh uniform draws.  Each
    step takes one forward pass that yields the values and the gradients of
    every restart, and moves each restart by a sign-gradient step of
    ``pgd_step_scale`` box-width per dimension on its worst constraint,
    clipped to the box; a restart stops once no slack is negative.  The
    lowest-index restart whose final point re-validates is returned.  The
    wall clock is checked between blocks and between steps.  Deterministic
    for a fixed budget.seed, and the random stream does not depend on the
    block size.  A batch fails as a whole: a non-finite value in any row of
    a sample block, or in any restart, raises ``ArithmeticError`` even when
    an earlier row or a lower restart is a witness.
    """
    if spec.n_inputs != net.n_inputs or spec.n_outputs != net.n_outputs:
        raise ValueError("spec dimensions do not match network")
    rng = np.random.default_rng(budget.seed)
    deadline = time.monotonic() + budget.wall_seconds

    for conj in spec.disjuncts:
        box = Box(conj.input_lower, conj.input_upper)
        cons = a_y, b_x, rhs = _constraint_arrays(spec, conj)

        best_x = None
        best_slack = -np.inf
        for start in range(0, budget.falsifier_samples, _SAMPLE_BLOCK):
            if time.monotonic() > deadline:
                return None
            X = box.sample(rng, min(_SAMPLE_BLOCK, budget.falsifier_samples - start))
            Y = forward(net, X)
            worst = _worst_slack(cons, X, Y)
            w = _witness_among(net, spec, conj, X, Y, worst)
            if w is not None:
                return w
            i = int(np.argmax(worst))  # argmax takes the first of equals
            if best_x is None or worst[i] > best_slack:
                best_slack, best_x = worst[i], X[i]

        if not conj.constraints:
            continue  # sampling would have hit an unconstrained conjunct

        step = budget.pgd_step_scale * box.width
        X = np.vstack([best_x, box.sample(rng, budget.pgd_restarts - 1)])
        live = np.arange(len(X))  # the restarts still climbing
        for _ in range(budget.pgd_steps):
            if time.monotonic() > deadline:
                return None
            XL = X[live]
            outs = layer_outputs(net, XL)
            S = rhs - (outs[-1] @ a_y.T + XL @ b_x.T)
            j = np.argmin(S, axis=1)
            climbing = S[np.arange(live.size), j] < 0.0
            # slack_j = rhs - (a_y.f(x) + b_x.x); ascend it
            g = _backprop(net, outs, a_y[j]) + b_x[j]
            live = live[climbing]
            moved = XL[climbing] - step * np.sign(g[climbing])
            X[live] = np.clip(moved, box.lower, box.upper)
            if not live.size:
                break
        w = _probe(net, spec, conj, cons, X)
        if w is not None:
            return w
    return None


# ---------------------------------------------------------------------------
# Branch-and-bound verification


# Search nodes bounded, probed and split per step of branch-and-bound.
_FRONTIER = 32


def _search_conjunct(net, spec, conj, budget, deadline, stats) -> Witness | None:
    """Branch-and-bound over one conjunct's box, a frontier of boxes per step.

    The frontier is a stack of rows: input bounds lo, hi (S, n) and the
    output bounds each row inherits from its parent, stacked as
    ``[lower | -upper]`` (S, 2m); the top is the last row.  A step pops up
    to ``_FRONTIER`` rows, top first and never more than the node cap has
    left, probes their midpoints, bounds them, prunes the infeasible ones,
    probes the survivors' corners and splits each survivor on its widest
    dimension; row 0's left child ends up on top.  Witnesses are taken in
    pop order.
    """
    # the conjunct's constraints as float arrays, built once for every node
    cons = a_y, b_x, rhs = _constraint_arrays(spec, conj)
    root = Box(conj.input_lower, conj.input_upper)
    unbounded = np.full((1, 2 * net.n_outputs), -np.inf)  # stacked [lo | -hi]
    stack = (root.lower[None], root.upper[None], unbounded)
    while len(stack[0]):
        if time.monotonic() > deadline or stats.subproblems >= budget.max_subproblems:
            raise _BudgetExhausted
        k = min(_FRONTIER, budget.max_subproblems - stats.subproblems, len(stack[0]))
        rest = len(stack[0]) - k
        lo, hi, inherited = (s[rest:][::-1] for s in stack)
        stack = tuple(s[:rest] for s in stack)
        stats.subproblems += k

        # midpoints go first: they need no bounds, so neither a bound that
        # overflows nor an unsound prune can hide a witness there
        w = _probe(net, spec, conj, cons, 0.5 * (lo + hi))
        if w is not None:
            return w

        _, relaxation, y = _affine_forms(net, lo, hi)
        # meeting the parent's bounds keeps node bounds monotone under splitting
        y = _meet(y, inherited)
        lb, coef = _constraint_rows(net, relaxation, lo, hi, y, a_y, b_x)
        keep = ~(lb > rhs).any(axis=1)
        if not keep.any():
            continue
        lo, hi, y, coef = (a[keep] for a in (lo, hi, y, coef))

        # per survivor and constraint row (the first 8), the box corner
        # minimizing the row's back-substituted lower affine form
        corners = np.where(coef[:, :8] > 0, lo[:, None], hi[:, None])
        w = _probe(net, spec, conj, cons, corners.reshape(-1, net.n_inputs))
        if w is not None:
            return w

        width = hi - lo
        at = np.arange(len(lo)), np.argmax(width, axis=1)  # lowest index on ties
        if (width[at] < MIN_SPLIT_WIDTH).any():
            # cannot refine further and could not decide this cell
            raise _Unresolvable
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[at] = right_lo[at] = 0.5 * (lo[at] + hi[at])
        # children in pop order, row 0's left and right child first; pushed
        # reversed, so that row 0's left child is on top
        kids = (
            np.stack([lo, right_lo], 1),
            np.stack([left_hi, hi], 1),
            np.stack([y, y], 1),
        )
        stack = tuple(
            np.concatenate([s, c.reshape(-1, s.shape[1])[::-1]])
            for s, c in zip(stack, kids)
        )
    return None


def verify(net: Network, spec: NormalizedSpec, budget: Budget) -> Outcome:
    """Decide the spec over the network within the budget.

    HOLDS when every disjunct's box tree is exhausted, VIOLATED on the first
    validated witness, TIMEOUT when the wall clock or subproblem budget runs
    out, UNKNOWN for unsupported activations (falsifier-only) or cells that
    cannot be split further.  Each disjunct's tree is searched a frontier of
    up to ``_FRONTIER`` boxes at a time, depth first (see
    ``_search_conjunct``); a capped run visits exactly ``max_subproblems``
    nodes, and the first two are the root and its left child.  Witnesses
    are taken in pop order, every midpoint of a batch before its corners,
    and a bound overflow in any row of a batch is an ERROR once the batch's
    midpoints are probed.  When the run is not capped, the status does not
    depend on exploration order, and a spec that holds visits the same
    nodes in any order; any returned witness is validated.
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
