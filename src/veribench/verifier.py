"""Baseline verifier, falsifier and witness validation.

verify() runs branch-and-bound over input splits: one search over the box
trees of all disjuncts.  It prunes a box when a constraint row's lower
bound, back-substituted through the activations' relaxation by the bound
core (``bounds._bound``), exceeds the row's rhs; the network's bound plan
(``bounds._plan``) is built once per search.  The frontier is a stack of
boxes, each tagged with its disjunct, kept as one float array with the
disjunct indices beside it; it starts with every disjunct's root, disjunct
0 on top.  A step pops up to 32 boxes, never more than the node cap has
left, and takes them in pop order: their midpoints are probed in one
forward pass before any bound is computed, they and their rows are
bounded, the survivors' constraint corners (per real row of the box's
disjunct, at most 8, the corner minimizing the row's back-substituted
lower form) are probed in one forward pass, and each survivor is split on
its widest dimension, the first popped box's left child ending on top.  A
survivor too narrow to split leaves the frontier and marks the spec
undecided; the search goes on.  A midpoint, probed or split at, is
``0.5 * lo + 0.5 * hi``, finite for every finite box.  One call of the core
covers two levels while the batch has room: a step that pops the whole
frontier, with the node cap not reached and room for its nodes' children
in 32 boxes, bounds the children too, for the step that pops them.  A
child is not a node until popped, and a box's bounds do not depend on its
batch, so every answer is that of bounding each step alone, and a capped
run still visits exactly ``max_subproblems`` nodes.  A batch fails as a
whole: a bound that overflows in any of its nodes' rows raises
``ArithmeticError`` once its midpoints are probed; a child's waits for its
own step.

falsify() is the cheap counterexample search (uniform sampling, then
sign-gradient ascent on constraint slack) that also defines the
competition's "answerable by random testing" baseline.  It samples the
disjuncts one after another, in fixed-size batches, until a sample hits;
then it climbs the gradient restarts of every disjunct sampled before the
hit in lockstep, one forward and one backward pass per step for all of
them, and stops early once the climbing points repeat those of one or two
steps before, ending where the full climb would.  A climbed point wins
over the sample hit, the earliest disjunct first, which is the answer of
searching the disjuncts one at a time.
"""

from __future__ import annotations

import numbers
import re
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .bounds import _bound, _plan
from .network import _QUIET, Network, _layer_walk, forward, layer_outputs
from .speclang import _VAR_RE, NormalizedSpec, Witness, _is_number, _read_text

# Boxes narrower than this per dimension are not split further.
MIN_SPLIT_WIDTH = 1e-12

# Relative tolerance used when a found counterexample is re-validated.
WITNESS_TOL = 1e-6

# A PGD step moves this fraction of its box's width per dimension.
PGD_STEP_SCALE = 0.1


class Status(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    TIMEOUT = "timeout"
    ERROR = "error"  # a run record's status: a search raises instead
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Budget:
    """Resource limits for verify/falsify.  wall_seconds must be positive
    (nan is refused), the four counts positive integers and seed a
    non-negative integer, else ``ValueError``."""

    wall_seconds: float = 60.0
    max_subproblems: int = 1_000_000
    falsifier_samples: int = 100
    pgd_restarts: int = 3
    pgd_steps: int = 50
    seed: int = 0

    def __post_init__(self):
        if not self.wall_seconds > 0:  # false for nan too
            raise ValueError("wall_seconds must be positive")
        for name in ("max_subproblems", "falsifier_samples", "pgd_restarts", "pgd_steps"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(f"{name} must be a positive integer")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


# The pinned budget for deciding which instances count as answerable by
# plain random testing / gradient attack.
EASY_VIOLATED_BUDGET = Budget(wall_seconds=10.0)


@dataclass
class Stats:
    subproblems: int = 0


@dataclass(frozen=True)
class Outcome:
    status: Status
    witness: Witness | None = None
    stats: Stats = field(default_factory=Stats)

    def __post_init__(self):
        if self.status is Status.VIOLATED and self.witness is None:
            raise ValueError("a violated outcome requires a witness")


# ---------------------------------------------------------------------------
# Gradients


def _backprop(net: Network, outs: list, a_y) -> np.ndarray:
    """Reverse accumulation of a_y . f(x) over the layer outputs of one pass.

    ``outs`` is the layer walk of ``x``; rows of ``a_y`` pair with rows of
    ``x``.  An affine layer takes ``g @ W``; an activation's derivative is
    read off its output: ReLU passes where the output is positive, masking
    g in place, sigmoid scales by ``s (1 - s)`` and tanh by ``1 - t**2``.
    So ``a_y`` must be a float64 array of the outputs' shape that the
    caller owns: a net that ends in a ReLU masks it in place.
    """
    g = a_y
    for (w, _, _, df), out in zip(reversed(net._walk), reversed(outs[1:])):
        g = g @ w if df is None else df(g, out)
    return g


@_QUIET
def output_combination_gradient(net: Network, x, a_y) -> np.ndarray:
    """d/dx of a_y . f(x), by reverse accumulation through the layers.

    One point ``x`` of shape ``(n,)`` with ``a_y`` of shape ``(m,)``, or a
    batch: row i of the ``(N, n)`` result is the gradient of
    ``a_y[i] . f(x[i])``; an ``a_y`` of shape ``(m,)`` weighs every row.
    ``x`` is checked as ``layer_outputs`` checks it, and the walk back runs
    on a copy of ``a_y``, so the caller's array is never written.  The walk
    back is not checked: a gradient that overflows is returned as it is,
    inf or NaN (an inactive ReLU masking an infinite one gives 0 * inf),
    with no warning.
    """
    outs = layer_outputs(net, x)
    a_y = np.array(np.broadcast_to(a_y, outs[-1].shape), dtype=np.float64)
    return _backprop(net, outs, a_y)


# ---------------------------------------------------------------------------
# Falsifier

# Random samples are scored this many at a time, so memory stays bounded
# however many samples a budget asks for.
_SAMPLE_BLOCK = 4096


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


def _witness_among(net, spec, X, worst) -> Witness | None:
    """The first point, in row (pop) order, with no negative slack that re-validates.

    ``worst`` is each point's least slack over its disjunct's padded rows,
    with no tolerance.  A candidate is forwarded once, on its own, through the
    layer walk, and checked by the witness rule (``_satisfied``) on those
    outputs, which the witness then claims.  The box is not checked first:
    every point the search probes (a midpoint, a corner, a sample or a climb
    clipped to its box) lies in its disjunct's box by construction.
    """
    for i in np.flatnonzero(worst >= 0.0):
        x = X[i]
        y = _layer_walk(net, x)[-1]
        if _satisfied(spec, x, y):
            return Witness(tuple(float(v) for v in x), tuple(float(v) for v in y))
    return None


def _probe(net, spec, points, d) -> Witness | None:
    """Walk the points as one batch; the first that satisfies and re-validates."""
    Y = _layer_walk(net, points)[-1]
    return _witness_among(net, spec, points, _worst_slack(spec.rows, points, Y, d))


@_QUIET
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
    and moves each restart by a sign-gradient step of ``PGD_STEP_SCALE``
    (read at call time) times its box's width per dimension on its worst
    constraint, clipped to its box; a restart stops once no slack is
    negative.  A step is a fixed function of the live points, and the live
    set only shrinks, so once the live points equal, byte for byte, those
    of one or two steps before, every later step repeats them with period 1
    or 2: the climb stops there and keeps the point of the cycle that the
    last step would reach (the current one for period 1 or an even number
    of steps left, else the other).  The final points are probed in
    (disjunct, restart) order and the first that re-validates is returned,
    else the sample hit.  A climb that stops on a repeat with every restart
    still climbing probes nothing and returns the sample hit: each point it
    keeps was walked, in the same batch, in one of the last two steps, and
    none had a slack of 0 or more.  That is the answer of searching the
    disjuncts one after another, each sampled and then climbed.

    Samples, climb points and witness candidates go through the private
    layer walk (``network._layer_walk``), without the input checks of
    ``forward``: a draw is finite when its box's width is, and a climb
    point is clipped to its box.  The walk is proven finite from the
    points' magnitude and checked exactly only when that proof fails, so
    an overflow is still found.  A disjunct whose box width overflows
    raises ``ArithmeticError`` at its first draw, whatever the layers; a
    gradient that is NaN makes NaN climb points, which fail as
    ``ArithmeticError`` at the walk's first affine layer (with no affine
    layer the gradient cannot be NaN).  The search runs under
    ``network._QUIET``, so an overflow is that error and not a warning.

    The wall clock is checked between blocks and between steps; past it,
    the result is None.  Deterministic for a fixed budget.seed, and the
    random stream does not depend on the block size.  A batch fails as a
    whole: a non-finite value in any row of a sample block, or in any
    restart of any disjunct, raises ``ArithmeticError`` even when an earlier
    row, a lower restart or an earlier disjunct's climb is a witness.
    """
    _check_fits(net, spec)
    rng = np.random.default_rng(budget.seed)
    deadline = time.monotonic() + budget.wall_seconds

    rows, (lower, upper) = spec.rows, spec.boxes
    a_y, b_x, _ = rows
    width = upper - lower

    def draw(index, count):  # uniform points in disjunct index's box
        if not np.isfinite(width[index]).all():
            raise ArithmeticError(f"disjunct {index}'s box is too wide to sample")
        return lower[index] + rng.random((count, spec.n_inputs)) * width[index]

    hit = None
    starts, queued = [], []  # queued restarts, and the disjuncts that queued them
    for index, conj in enumerate(spec.disjuncts):
        best_x = None
        best_slack = -np.inf
        for start in range(0, budget.falsifier_samples, _SAMPLE_BLOCK):
            if time.monotonic() > deadline:
                return None
            X = draw(index, min(_SAMPLE_BLOCK, budget.falsifier_samples - start))
            Y = _layer_walk(net, X)[-1]
            d = np.full(len(X), index)
            worst = _worst_slack(rows, X, Y, d)
            hit = _witness_among(net, spec, X, worst)
            if hit is not None:
                break
            i = int(np.argmax(worst))  # argmax takes the first of equals
            if best_x is None or worst[i] > best_slack:
                best_slack, best_x = worst[i], X[i]
        if hit is not None:
            break
        if conj.rhs.size:  # sampling would have hit an unconstrained one
            starts += [best_x, draw(index, budget.pgd_restarts - 1)]
            queued.append(index)
    if not starts:
        return hit

    X = np.vstack(starts)
    d = np.repeat(queued, budget.pgd_restarts)
    live = np.arange(len(X))  # the restarts still climbing
    # the live rows: points, disjuncts, step sizes and clip bounds
    XL, dL = X, d
    step, lo, hi = PGD_STEP_SCALE * width[d], lower[d], upper[d]
    # the live points' bytes one and two steps back, and the array one back
    key1 = key2 = XL1 = None
    for left in range(budget.pgd_steps, 0, -1):
        if time.monotonic() > deadline:
            return None
        # a step is a fixed function of the live points, and a live set of
        # equal size lost no restart, so equal bytes repeat with period 1 or 2
        key = XL.tobytes()
        if key in (key1, key2) and live.size == len(X):
            # no restart stopped, so every point the climb keeps was walked
            # with this batch in one of the last two steps, and none had a
            # slack of 0 or more: the final probe would find nothing
            return hit
        if key == key1:
            break
        if key == key2:
            if left % 2:
                XL = XL1
            break
        key1, key2, XL1 = key, key1, XL
        outs = _layer_walk(net, XL)
        S = _own_slack(rows, XL, outs[-1], dL)
        j = S.argmin(axis=1)
        # slack_j = rhs - (a_y.f(x) + b_x.x); ascend it
        g = _backprop(net, outs, a_y[dL, j])
        g += b_x[dL, j]
        climbing = S.min(axis=1) < 0.0
        if not climbing.all():
            X[live[~climbing]] = XL[~climbing]
            live, XL, dL, g, step, lo, hi = (
                a[climbing] for a in (live, XL, dL, g, step, lo, hi)
            )
            if not live.size:
                break
        XL = np.minimum(np.maximum(XL - step * np.sign(g), lo), hi)
    X[live] = XL
    w = _probe(net, spec, X, d)
    return w if w is not None else hit


# ---------------------------------------------------------------------------
# Branch-and-bound verification


# Search nodes bounded, probed and split per step of branch-and-bound.
_FRONTIER = 32


@_QUIET
def _branch_and_bound(net, spec, plan, budget, deadline, stats):
    """The search of the module docstring over ``spec.boxes`` and
    ``spec.rows``, with the network's bound plan; returns (status, witness).

    The frontier is one float array whose rows are ``[lo | hi]``, a node's
    input bounds (n each); the nodes' disjunct indices lie beside it, and
    the top is the last row.  A call that covers two levels keeps the
    survivors' children's bounds in pop order (``ahead``) for the step that
    pops them; they are not nodes until then, so a capped run still visits
    exactly ``max_subproblems``.
    """
    (a_y, b_x, rhs), (lower, upper) = spec.rows, spec.boxes
    n = spec.n_inputs
    # every disjunct's root, disjunct 0 on top
    frontier = np.concatenate([lower, upper], axis=1)[::-1]
    disjunct = np.arange(len(lower))[::-1]
    undecided = False
    ahead = None  # (lb, coef) of the frontier's top rows in pop order, bounded early
    while len(frontier):
        if time.monotonic() > deadline or stats.subproblems >= budget.max_subproblems:
            return Status.TIMEOUT, None
        left = budget.max_subproblems - stats.subproblems  # nodes the cap has left
        k = min(_FRONTIER, left, len(frontier))
        rest = len(frontier) - k
        nodes, d = frontier[rest:][::-1], disjunct[rest:][::-1]
        frontier, disjunct = frontier[:rest], disjunct[:rest]
        lo, hi = nodes[:, :n], nodes[:, n:]
        stats.subproblems += k

        # midpoints go first: they need no bounds, so neither a bound that
        # overflows nor an unsound prune can hide a witness there
        w = _probe(net, spec, 0.5 * lo + 0.5 * hi, d)
        if w is not None:
            return Status.VIOLATED, w

        # each node's left and right child, which depend on its box alone; a
        # cell too narrow to split has none
        split = (hi - lo).max(axis=1) >= MIN_SPLIT_WIDTH
        at = np.arange(k), np.argmax(hi - lo, axis=1)  # lowest index on ties
        kids = np.stack([nodes, nodes], 1)
        kids[:, 0, n:][at] = kids[:, 1, :n][at] = 0.5 * lo[at] + 0.5 * hi[at]
        bounds, ahead = ahead, None  # kept by the call that bounded the parents
        if bounds is None and rest == 0 and 3 * k <= _FRONTIER and k < left:
            # the whole frontier, with room for its children: one call
            # bounds both levels
            boxes = np.concatenate([nodes, kids[split].reshape(-1, 2 * n)])
            bd = np.concatenate([d, np.repeat(d[split], 2)])
            try:
                bounds = _bound(plan, boxes[:, :n], boxes[:, n:], a_y[bd], b_x[bd])[2:]
                ahead = tuple(a[k:] for a in bounds)
            except ArithmeticError:
                pass  # the nodes go alone: a child's overflow raises at its own step
        if bounds is None:
            bounds = _bound(plan, lo, hi, a_y[d], b_x[d])[2:]
        lb, coef = (a[:k] for a in bounds)
        keep = ~(lb > rhs[d]).any(axis=1)
        if ahead is not None:  # the survivors' children, in pop order
            ahead = tuple(a[np.repeat(keep[split], 2)] for a in ahead)
        if not keep.any():
            continue
        nodes, d, coef, kids, split = (a[keep] for a in (nodes, d, coef, kids, split))
        lo, hi = nodes[:, :n], nodes[:, n:]

        # per survivor and real row (the first 8; padding has rhs = +inf),
        # the box corner minimizing the row's back-substituted lower form
        real = rhs[d, :8] < np.inf
        corners = np.where(coef[:, :8] > 0, lo[:, None], hi[:, None])[real]
        w = _probe(net, spec, corners, np.repeat(d, real.sum(axis=1)))
        if w is not None:
            return Status.VIOLATED, w

        # a cell too narrow to split leaves the frontier undecided
        undecided = undecided or not split.all()
        # children in pop order, row 0's left and right child first; pushed
        # reversed, so that row 0's left child is on top
        frontier = np.concatenate([frontier, kids[split].reshape(-1, 2 * n)[::-1]])
        disjunct = np.concatenate([disjunct, np.repeat(d[split], 2)[::-1]])
    return (Status.UNKNOWN if undecided else Status.HOLDS), None


def verify(net: Network, spec: NormalizedSpec, budget: Budget) -> Outcome:
    """Decide the spec over the network within the budget.

    HOLDS when every disjunct's box tree is exhausted, VIOLATED on the first
    validated witness, TIMEOUT when the wall clock or subproblem budget runs
    out, UNKNOWN when some cell could not be split further and no witness
    was found.  Every network the loader accepts gets this one search.  The
    search order is the module docstring's: one call of the bound core
    covers two levels while the batch has room, children are not nodes until
    popped, and a capped run visits exactly ``max_subproblems`` nodes.  When
    the run is not capped, the status does not depend on that order, and a
    spec that holds visits the same nodes in any order; any returned
    witness is validated.  A bound or probe that
    overflows raises ``ArithmeticError``, as in ``falsify``.
    """
    _check_fits(net, spec)
    stats = Stats()
    deadline = time.monotonic() + budget.wall_seconds
    status, witness = _branch_and_bound(net, spec, _plan(net), budget, deadline, stats)
    return Outcome(status, witness, stats)


# ---------------------------------------------------------------------------
# Witness validation and file format


@_QUIET
def validate_witness(net: Network, spec: NormalizedSpec, witness: Witness) -> bool:
    """Recompute the outputs at witness.x and check spec satisfaction.

    This is the one witness rule.  The witness holds when some disjunct
    holds at (x, y = f(x)), each inequality slackened by
    ``WITNESS_TOL * scale``: an input bound ``lo <= x_i <= hi`` with scale
    ``max(1, |x_i|, |lo|, |hi|)``, a row ``lhs = a_y . y + b_x . x <= rhs``
    with scale ``max(1, |lhs|, |rhs|)``, where an lhs that is not finite
    takes no scale from its own size: a row whose lhs overflows to +inf or
    is NaN fails, and one at -inf holds.  Every disjunct is checked at once
    on ``spec.rows`` and ``spec.boxes``, the arrays the search reads; a
    padding row always holds.  A claimed output vector that disagrees with
    the recomputation, or holds a NaN, fails validation with a warning.
    """
    _check_fits(net, spec)
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
        if not np.all(np.abs(yc - y) <= _witness_slack(np.abs(y))):
            worst = float(np.max(np.abs(yc - y)))
            # level 2 is the wrapper of the @_QUIET decorator
            warnings.warn(
                f"claimed-output mismatch: deviation {worst:.3g} exceeds tolerance",
                stacklevel=3,
            )
            return False
    return _satisfied(spec, x, y)


def _check_fits(net: Network, spec: NormalizedSpec) -> None:
    """The spec must name the network's inputs and outputs, else ``ValueError``."""
    if spec.n_inputs != net.n_inputs or spec.n_outputs != net.n_outputs:
        raise ValueError("spec dimensions do not match network")


def _satisfied(spec: NormalizedSpec, x: np.ndarray, y: np.ndarray) -> bool:
    """The witness rule of ``validate_witness`` at x and its outputs y."""
    (a_y, b_x, rhs), (lo, hi) = spec.rows, spec.boxes
    lhs = a_y @ y + b_x @ x  # (D, k)
    box_slack = _witness_slack(np.maximum(np.maximum(np.abs(x), np.abs(lo)), np.abs(hi)))
    # an lhs that is not finite takes no slack from its own size
    lhs_size = np.where(np.isfinite(lhs), np.abs(lhs), 0.0)
    row_slack = _witness_slack(np.maximum(lhs_size, np.abs(rhs)))
    # each test is written so that NaN fails it
    inside = ((lo - box_slack <= x) & (x <= hi + box_slack)).all(axis=1)
    holds = (lhs <= rhs + row_slack).all(axis=1)
    return bool((inside & holds).any())


def _witness_slack(magnitude):
    """The slack of an inequality whose largest term has this magnitude."""
    return WITNESS_TOL * np.maximum(1.0, magnitude)


def format_witness(witness: Witness) -> str:
    lines = [f"X_{i} {format(v, '.17g')}" for i, v in enumerate(witness.x)]
    if witness.y_claimed is not None:
        lines += [f"Y_{j} {format(v, '.17g')}" for j, v in enumerate(witness.y_claimed)]
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> Witness:
    """Read ``X_<i> value`` / ``Y_<j> value`` lines, indices in order from 0.

    A variable and a value are read with the VNNLIB reader's rules (ASCII
    digits only, and a value that is a plain ASCII literal), and so are the
    separators: lines end at LF, and only ASCII space, tab and CR separate
    or surround the two tokens, so a CRLF file reads.  A line that is not
    one name and one number raises ``ValueError`` naming it.
    """
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(" \t\r")
        if not line:
            continue
        parts = re.split(r"[ \t\r]+", line)
        m = _VAR_RE.match(parts[0]) if len(parts) == 2 else None
        try:
            if m is None or not _is_number(parts[1]):
                raise ValueError
            index, value = int(m.group(2)), float(parts[1])
        except ValueError:
            raise ValueError(f"bad witness line {lineno}: {line!r}") from None
        target = xs if m.group(1) == "X" else ys
        if index != len(target):
            raise ValueError(
                f"witness line {lineno}: expected index {len(target)}, got {m.group(2)}"
            )
        target.append(value)
    if not xs:
        raise ValueError("witness has no input values")
    return Witness(tuple(xs), tuple(ys) if ys else None)


def write_witness(witness: Witness, path) -> None:
    Path(path).write_text(format_witness(witness), encoding="utf-8")


def read_witness(path) -> Witness:
    """The witness in a UTF-8 file; other bytes raise ValueError naming it."""
    return parse_witness(_read_text(path, ValueError))
