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
competition's "answerable by random testing" baseline.  It samples the
disjuncts one after another, in fixed-size batches, until a sample hits;
then it climbs the gradient restarts of every disjunct sampled before the
hit in lockstep, one forward and one backward pass per step for all of
them.  A climbed point wins over the sample hit, the earliest disjunct
first, which is the answer of searching the disjuncts one at a time.
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
    ``x``.  An affine layer takes ``g @ W``; an activation's derivative is
    read off its output: ReLU passes where the output is positive, sigmoid
    scales by ``s (1 - s)`` and tanh by ``1 - t**2``.
    """
    g = np.asarray(a_y, dtype=np.float64)
    for (w, _, _, df), out in zip(reversed(net._walk), reversed(outs[1:])):
        g = g @ w if df is None else df(g, out)
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


def _own_slack(rows, X, Y, d) -> np.ndarray:
    """Per point, ``rhs - (a_y . y + b_x . x)`` over the k rows of its disjunct d[i].

    Every point meets all D * k rows in one product and keeps the k of its
    disjunct, so for D = 1 this is the plain ``Y @ a_y.T`` product.  Returns
    (N, k); padding rows have slack +inf.
    """
    a_y, b_x, rhs = rows
    (n_pts, n), (n_d, k, m) = X.shape, a_y.shape
    slack = rhs.reshape(-1) - (Y @ a_y.reshape(-1, m).T + X @ b_x.reshape(-1, n).T)
    return slack.reshape(n_pts, n_d, k)[np.arange(n_pts), d]


def _worst_slack(rows, X, Y, d) -> np.ndarray:
    """Per point, the least slack over its disjunct's rows (+inf for none)."""
    return np.min(_own_slack(rows, X, Y, d), axis=1, initial=np.inf)


def _witness_among(net, spec, X, Y, worst, d) -> Witness | None:
    """The first point with no negative slack that meets its conjunct and re-validates."""
    for i in np.flatnonzero(worst >= 0.0):
        if conjunct_satisfied(spec.disjuncts[d[i]], X[i], Y[i]):
            w = _make_witness(net, X[i])
            if validate_witness(net, spec, w):
                return w
    return None


def _probe(net, spec, rows, points, d) -> Witness | None:
    """Forward the points as one batch; the first that satisfies and re-validates."""
    Y = forward(net, points)
    return _witness_among(net, spec, points, Y, _worst_slack(rows, points, Y, d), d)


def falsify(net: Network, spec: NormalizedSpec, budget: Budget) -> Witness | None:
    """Search for a satisfying point: random samples, then gradient ascent.

    Phase 1 goes through the disjuncts in order.  Per disjunct it draws
    ``falsifier_samples`` uniform points from the disjunct's box and scores
    them in blocks of 4096 (``_SAMPLE_BLOCK``), one batched forward pass per
    block; the first point in draw order that satisfies the disjunct and
    re-validates is the sample hit, and it ends phase 1.  Each constrained
    disjunct before the hit queues ``pgd_restarts`` restarts: its best
    sample, then fresh uniform draws, taken right after its samples.

    Phase 2 climbs every queued restart in lockstep, as one batch, to
    maximize its disjunct's minimum constraint slack.  Each step takes one
    forward pass that yields the values and the gradients of every restart,
    and moves each restart by a sign-gradient step of ``pgd_step_scale``
    times its box's width per dimension on its worst constraint, clipped to
    its box; a restart stops once no slack is negative.  The final points
    are probed in (disjunct, restart) order and the first that re-validates
    is returned, else the sample hit.  That is the answer of searching the
    disjuncts one after another, each sampled and then climbed.

    The wall clock is checked between blocks and between steps; past it,
    the result is None.  Deterministic for a fixed budget.seed, and the
    random stream does not depend on the block size.  A batch fails as a
    whole: a non-finite value in any row of a sample block, or in any
    restart of any disjunct, raises ``ArithmeticError`` even when an earlier
    row, a lower restart or an earlier disjunct's climb is a witness.
    """
    if spec.n_inputs != net.n_inputs or spec.n_outputs != net.n_outputs:
        raise ValueError("spec dimensions do not match network")
    rng = np.random.default_rng(budget.seed)
    deadline = time.monotonic() + budget.wall_seconds

    rows = a_y, b_x, _ = _padded_rows(spec)
    hit = None
    starts, owners = [], []  # queued restarts, and each one's (disjunct, box)
    for index, conj in enumerate(spec.disjuncts):
        box = Box(conj.input_lower, conj.input_upper)
        best_x = None
        best_slack = -np.inf
        for start in range(0, budget.falsifier_samples, _SAMPLE_BLOCK):
            if time.monotonic() > deadline:
                return None
            X = box.sample(rng, min(_SAMPLE_BLOCK, budget.falsifier_samples - start))
            Y = forward(net, X)
            d = np.full(len(X), index)
            worst = _worst_slack(rows, X, Y, d)
            hit = _witness_among(net, spec, X, Y, worst, d)
            if hit is not None:
                break
            i = int(np.argmax(worst))  # argmax takes the first of equals
            if best_x is None or worst[i] > best_slack:
                best_slack, best_x = worst[i], X[i]
        if hit is not None:
            break
        if conj.constraints:  # sampling would have hit an unconstrained one
            starts += [best_x, box.sample(rng, budget.pgd_restarts - 1)]
            owners += [(index, box)] * budget.pgd_restarts
    if not starts:
        return hit

    X = np.vstack(starts)
    d = np.array([index for index, _ in owners])
    live = np.arange(len(X))  # the restarts still climbing
    # the live rows: points, disjuncts, step sizes and clip bounds
    XL, dL = X, d
    step = budget.pgd_step_scale * np.array([box.width for _, box in owners])
    lo = np.array([box.lower for _, box in owners])
    hi = np.array([box.upper for _, box in owners])
    for _ in range(budget.pgd_steps):
        if time.monotonic() > deadline:
            return None
        outs = layer_outputs(net, XL)
        S = _own_slack(rows, XL, outs[-1], dL)
        j = np.argmin(S, axis=1)
        # slack_j = rhs - (a_y.f(x) + b_x.x); ascend it
        g = _backprop(net, outs, a_y[dL, j]) + b_x[dL, j]
        climbing = S.min(axis=1) < 0.0
        if not climbing.all():
            X[live[~climbing]] = XL[~climbing]
            live, XL, dL, g, step, lo, hi = (
                a[climbing] for a in (live, XL, dL, g, step, lo, hi)
            )
            if not live.size:
                break
        XL = np.clip(XL - step * np.sign(g), lo, hi)
    X[live] = XL
    w = _probe(net, spec, rows, X, d)
    return w if w is not None else hit


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


def validate_witness(net: Network, spec: NormalizedSpec, witness: Witness) -> bool:
    """Recompute the outputs at witness.x and check spec satisfaction.

    Tolerance is WITNESS_TOL, relative, with an absolute floor of 1e-9.  A
    claimed output vector that disagrees with the recomputation fails
    validation with a warning.
    """
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
        allow = np.maximum(WITNESS_ABS_FLOOR, WITNESS_TOL * np.maximum(1.0, np.abs(y)))
        if np.any(np.abs(yc - y) > allow):
            worst = float(np.max(np.abs(yc - y)))
            warnings.warn(
                f"claimed-output mismatch: deviation {worst:.3g} exceeds tolerance",
                stacklevel=2,
            )
            return False
    return eval_spec(spec, x, y, WITNESS_TOL, relative=True, abs_floor=WITNESS_ABS_FLOOR)


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
