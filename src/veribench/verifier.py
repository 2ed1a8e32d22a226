"""Baseline verifier, falsifier and witness validation.

verify() runs branch-and-bound over input splits: one search over the box
trees of all disjuncts.  It prunes a box when a constraint row's lower
bound, back-substituted through the ReLU relaxation of the box
(``bounds._constraint_rows``), exceeds the row's rhs.  The frontier is a
stack of boxes, each tagged with its disjunct, that starts with every
disjunct's root, disjunct 0 on top.  A step pops up to 32 boxes, never more
than the node cap has left, and takes them in pop order: their midpoints
are probed in one forward pass before any bound is computed, they are
bounded in one batched call, the survivors' constraint corners (per real
row of the box's disjunct, at most 8, the corner minimizing the row's
back-substituted lower form) are probed in one forward pass, and each
survivor is split on its widest dimension, the first popped box's left
child ending on top.  A survivor too narrow to split leaves the frontier
and marks the spec undecided; the search goes on.  A batch fails as a
whole: a bound that overflows in any of its rows is an error once the
batch's midpoints are probed.

falsify() is the cheap counterexample search (uniform sampling, then
sign-gradient ascent on constraint slack) that also defines the
competition's "answerable by random testing" baseline; it searches the
disjuncts one after another, scores its samples in fixed-size batches and
runs its gradient restarts in lockstep, one forward and one backward pass
per step for all of them.
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


def _padded_rows(spec: NormalizedSpec):
    """Every disjunct's constraints as a_y (D, k, m), b_x (D, k, n), rhs (D, k).

    k is the most rows any disjunct has.  A shorter disjunct is padded with
    inert rows, a_y = 0, b_x = 0 and rhs = +inf: their slack is +inf and no
    bound prunes on them.
    """
    d, k = len(spec.disjuncts), max((len(c.constraints) for c in spec.disjuncts), default=0)
    a_y, b_x = np.zeros((d, k, spec.n_outputs)), np.zeros((d, k, spec.n_inputs))
    rhs = np.full((d, k), np.inf)
    for i, conj in enumerate(spec.disjuncts):
        for j, row in enumerate(conj.constraints):
            a_y[i, j], b_x[i, j], rhs[i, j] = row.a_y, row.b_x, row.rhs
    return a_y, b_x, rhs


def _worst_slack(rows, X, Y, d) -> np.ndarray:
    """Per point, the least ``rhs - (a_y . y + b_x . x)`` over its disjunct's rows.

    Every point meets all D * k rows in one product and keeps the k of its
    disjunct d[i], so for D = 1 this is the plain ``Y @ a_y.T`` product.
    """
    a_y, b_x, rhs = rows
    (n_pts, n), (n_d, k, m) = X.shape, a_y.shape
    slack = rhs.reshape(-1) - (Y @ a_y.reshape(-1, m).T + X @ b_x.reshape(-1, n).T)
    own = slack.reshape(n_pts, n_d, k)[np.arange(n_pts), d]
    return np.min(own, axis=1, initial=np.inf)


def _witness_among(net, spec, X, Y, worst, d) -> Witness | None:
    """The first point with no negative slack that meets its conjunct and re-validates."""
    for i in np.flatnonzero(worst >= 0.0):
        if conjunct_satisfied(spec.disjuncts[d[i]], X[i], Y[i]):
            w = _make_witness(net, X[i])
            if validate_witness(net, spec, w, WITNESS_TOL):
                return w
    return None


def _probe(net, spec, rows, points, d) -> Witness | None:
    """Forward the points as one batch; the first that satisfies and re-validates."""
    Y = forward(net, points)
    return _witness_among(net, spec, points, Y, _worst_slack(rows, points, Y, d), d)


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

    rows = _padded_rows(spec)
    for index, conj in enumerate(spec.disjuncts):
        box = Box(conj.input_lower, conj.input_upper)
        # the disjunct's own rows, without padding, for the gradient phase
        a_y, b_x, rhs = (r[index, : len(conj.constraints)] for r in rows)

        best_x = None
        best_slack = -np.inf
        for start in range(0, budget.falsifier_samples, _SAMPLE_BLOCK):
            if time.monotonic() > deadline:
                return None
            X = box.sample(rng, min(_SAMPLE_BLOCK, budget.falsifier_samples - start))
            Y = forward(net, X)
            d = np.full(len(X), index)
            worst = _worst_slack(rows, X, Y, d)
            w = _witness_among(net, spec, X, Y, worst, d)
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
        w = _probe(net, spec, rows, X, np.full(len(X), index))
        if w is not None:
            return w
    return None


# ---------------------------------------------------------------------------
# Branch-and-bound verification


# Search nodes bounded, probed and split per step of branch-and-bound.
_FRONTIER = 32


def _branch_and_bound(net, spec, budget, deadline, stats):
    """The search of the module docstring; returns (status, witness).

    The frontier holds stacked rows: input bounds lo, hi (S, n), the output
    bounds each row inherits from its parent, stacked as ``[lower | -upper]``
    (S, 2m), and the row's disjunct index (S,); the top is the last row.
    """
    rows = a_y, b_x, rhs = _padded_rows(spec)
    roots = spec.disjuncts[::-1]  # disjunct 0 on top
    stack = (
        np.array([c.input_lower for c in roots]).reshape(-1, spec.n_inputs),
        np.array([c.input_upper for c in roots]).reshape(-1, spec.n_inputs),
        np.full((len(roots), 2 * spec.n_outputs), -np.inf),  # stacked [lo | -hi]
        np.arange(len(roots))[::-1],
    )
    undecided = False
    while len(stack[0]):
        if time.monotonic() > deadline or stats.subproblems >= budget.max_subproblems:
            return Status.TIMEOUT, None
        k = min(_FRONTIER, budget.max_subproblems - stats.subproblems, len(stack[0]))
        rest = len(stack[0]) - k
        lo, hi, inherited, d = (s[rest:][::-1] for s in stack)
        stack = tuple(s[:rest] for s in stack)
        stats.subproblems += k

        # midpoints go first: they need no bounds, so neither a bound that
        # overflows nor an unsound prune can hide a witness there
        w = _probe(net, spec, rows, 0.5 * (lo + hi), d)
        if w is not None:
            return Status.VIOLATED, w

        _, relaxation, y = _affine_forms(net, lo, hi)
        # meeting the parent's bounds keeps node bounds monotone under splitting
        y = _meet(y, inherited)
        lb, coef = _constraint_rows(net, relaxation, lo, hi, y, a_y[d], b_x[d])
        keep = ~(lb > rhs[d]).any(axis=1)
        if not keep.any():
            continue
        lo, hi, y, d, coef = (a[keep] for a in (lo, hi, y, d, coef))

        # per survivor and real row (the first 8; padding has rhs = +inf),
        # the box corner minimizing the row's back-substituted lower form
        real = rhs[d, :8] < np.inf
        corners = np.where(coef[:, :8] > 0, lo[:, None], hi[:, None])[real]
        w = _probe(net, spec, rows, corners, np.repeat(d, real.sum(axis=1)))
        if w is not None:
            return Status.VIOLATED, w

        # a cell too narrow to split leaves the frontier undecided
        split = (hi - lo).max(axis=1) >= MIN_SPLIT_WIDTH
        if not split.all():
            undecided = True
            lo, hi, y, d = (a[split] for a in (lo, hi, y, d))
        at = np.arange(len(lo)), np.argmax(hi - lo, axis=1)  # lowest index on ties
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[at] = right_lo[at] = 0.5 * (lo[at] + hi[at])
        # children in pop order, row 0's left and right child first; pushed
        # reversed, so that row 0's left child is on top
        kids = (
            np.stack([lo, right_lo], 1),
            np.stack([left_hi, hi], 1),
            np.stack([y, y], 1),
            np.stack([d, d], 1),
        )
        stack = tuple(
            np.concatenate([s, c.reshape(-1, *s.shape[1:])[::-1]])
            for s, c in zip(stack, kids)
        )
    return (Status.UNKNOWN if undecided else Status.HOLDS), None


def verify(net: Network, spec: NormalizedSpec, budget: Budget) -> Outcome:
    """Decide the spec over the network within the budget.

    HOLDS when every disjunct's box tree is exhausted, VIOLATED on the first
    validated witness, TIMEOUT when the wall clock or subproblem budget runs
    out, UNKNOWN for unsupported activations (falsifier-only) or when some
    cell could not be split further and no witness was found.  The search
    order is the module docstring's; a capped run visits exactly
    ``max_subproblems`` nodes.  When the run is not capped, the status does
    not depend on that order, and a spec that holds visits the same nodes in
    any order; any returned witness is validated.
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

    try:
        return done(*_branch_and_bound(net, spec, budget, start + budget.wall_seconds, stats))
    except (ArithmeticError, UnsupportedActivationError):
        return done(Status.ERROR)


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
