"""Sound output enclosures: interval propagation and affine relaxation.

Bounds travel stacked as ``[lower | -upper]``: a layer of width w has
concrete bounds ``y`` of shape (K, 2w), one row per box, and affine forms
``z`` of shape (K, 2w, n + 1), the lower form of every neuron over its
negated upper form, per box the n input coefficients and the form's value
at the box centre.  With both halves bounded from below, an affine layer W
maps a box's forms by one product with the nonnegative block
``[[W+, |W-|], [|W-|, W+]]``; the centre value less ``|A| . radius``
concretizes both halves at once, and ``np.maximum`` meets two enclosures.

What the bounds read of a network is its bound plan, ``_plan``: per affine
layer the block, the bias ``[b; -b]`` as a column, and W and b for
back-substitution; per activation its kind; and the input's forms
``[I; -I]``.  Every network the loader accepts has a plan.  A search
builds the plan once and passes it to every call; ``affine_bounds`` builds
one per call, and ``interval_bounds`` none.

One batched core, ``_bound``, bounds K boxes and their constraint rows
``a_y . f(x) + b_x . x`` in one call.  It takes each box's centre and
radius once, as ``0.5 * lo + 0.5 * hi`` and ``0.5 * hi - 0.5 * lo``, which
are finite for every finite box.  Its forward walk intersects per layer, in
place, the interval image of the previous bounds with the concretization of
the forms; the bounds travel as columns (K, 2w, 1).  Every product is taken
per box, with a shape that does not depend on K, so each box gets exactly
the arithmetic of a batch of one; the interval image is the same
matrix-vector product and activation image ``interval_bounds`` makes, so
a single box's bounds nest inside ``interval_bounds`` exactly wherever
neither collapses a crossing.  Both collapse a rounding crossing (lower
above upper by an ulp or so) to its midpoint by one rule, ``_collapse``,
so ``interval_bounds`` answers on every finite box, a point included.
Unstable ReLU neurons get the chord upper relaxation and a zero or
identity lower relaxation.  Any other activation (sigmoid, tanh) is
monotone increasing and gets the constant lines f(l) and f(u), its
interval image, so the forms after it are constants.  A row's bound is
its back-substitution through the relaxations alone (DeepPoly, CROWN):
each row is walked back to the input, choosing each neuron's lower or
upper relaxation by the sign of its accumulated coefficient, which in
exact arithmetic is never looser than substituting the forward forms.
The relaxations never leave the core.  Each (box, row) pair is its own
row vector there, so a row's bound does not depend on the rows or boxes
batched with it.  A non-finite value in any box or row fails the whole
batch with ``ArithmeticError``.  Branch-and-bound and the robustness
certifier call the core directly; ``affine_bounds`` (with no rows) and
``constraint_lower_bound`` (with one) run it on one box, with a ``Box`` at
the edge.  The core sets no error state and checks no input: the public
functions here, like every search that calls it, run under
``network._QUIET``, so an overflow is caught by a finiteness check, not
reported as a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .network import (
    _QUIET,
    AffineLayer,
    Box,
    Network,
    apply_activation,
)

# Pre-activation ranges narrower than this are widened before computing the
# relaxation slope, avoiding division by near-zero widths.
DEGENERATE_WIDTH = 1e-12


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ArithmeticError("bound propagation produced non-finite values")


class _Affine(NamedTuple):
    """One affine layer as the bounds read it."""

    block: np.ndarray  # [[W+, |W-|], [|W-|, W+]], (2w, 2w_in)
    bias: np.ndarray  # [b; -b] as a column, (2w, 1)
    weight: np.ndarray  # W, (w, w_in), for back-substitution
    b: np.ndarray  # b as a column, (w, 1), for back-substitution


class _Plan(NamedTuple):
    """What the bounds read of one network; see ``_plan``."""

    eye: np.ndarray  # [I; -I], (2n, n): the input coefficients of the input's forms
    steps: tuple  # per layer, an _Affine or the activation's kind


def _stacked(layer: AffineLayer) -> _Affine:
    """The layer as the bounds read it, its block built from W+ and |W-|."""
    w, b = layer.weight, layer.bias
    (rows, cols), wp = w.shape, np.maximum(w, 0.0)
    block = np.empty((2 * rows, 2 * cols))
    block[:rows, :cols] = block[rows:, cols:] = wp
    block[:rows, cols:] = block[rows:, :cols] = wp - w  # |W-|, exactly
    return _Affine(block, np.concatenate([b, -b])[:, None], w, b[:, None])


def _plan(net: Network) -> _Plan:
    """What the bounds read of the network; a search builds it once.

    The plan is never stored on the network: it holds four times the weights.
    """
    eye = np.eye(net.n_inputs)
    steps = tuple(
        _stacked(layer) if isinstance(layer, AffineLayer) else layer.kind
        for layer in net.layers
    )
    return _Plan(np.concatenate([eye, -eye]), steps)


def _halves(y):
    """The lower and the negated upper half of stacked bounds (K, 2w, ...)."""
    half = y.shape[1] // 2
    return y[:, :half], y[:, half:]


def _interval_affine(step: _Affine, y):
    """Interval image of an affine layer, on stacked bound columns y (K, 2w, 1).

    One matrix-vector product per box, the same for any K.
    """
    return step.block @ y + step.bias


def _interval_activation(kind, y):
    """Interval image of an activation on stacked bounds y (K, 2w, ...).

    ReLU works in place: max(lo, 0) and -max(hi, 0) = min(-hi, 0); sigmoid
    and tanh, monotone increasing, map each bound.
    """
    lo, neg_hi = _halves(y)
    if kind == "relu":
        np.maximum(lo, 0.0, out=lo)
        np.minimum(neg_hi, 0.0, out=neg_hi)
        return y
    return np.concatenate(
        [apply_activation(kind, lo), -apply_activation(kind, -neg_hi)], axis=1
    )


@_QUIET
def interval_bounds(net: Network, box: Box) -> list[Box]:
    """Per-layer output boxes, index 0 being the input box itself."""
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    y = np.concatenate([box.lower, -box.upper])[None, :, None]
    out = [box]
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            y = _interval_affine(_stacked(layer), y)
        else:
            y = _interval_activation(layer.kind, y)
        _collapse(y)
        lo, neg_hi = _halves(y[..., 0])
        out.append(Box(lo[0], -neg_hi[0]))
    return out


@dataclass(frozen=True, eq=False)
class AffineBounds:
    """Per-output affine lower/upper functions of the inputs, valid on box."""

    box: Box
    lower_weight: np.ndarray  # (n_outputs, n_inputs)
    lower_const: np.ndarray
    upper_weight: np.ndarray
    upper_const: np.ndarray
    output_box: Box  # concretization, already intersected with intervals
    # back-substitution over the box reruns the core on the plan
    _plan: _Plan = field(repr=False)


def _meet(y, other):
    """Intersect stacked enclosures y (K, 2w, ...) of the same values with other, in place.

    Returns y, its crossings collapsed (``_collapse``).
    """
    np.maximum(y, other, out=y)
    return _collapse(y)


def _collapse(y):
    """Collapse each crossing (lo > hi) of stacked enclosures y to its midpoint, in place.

    Returns y.  Raises ``ArithmeticError`` when a bound is not finite.
    """
    lo, neg_hi = _halves(y)
    gap = lo + neg_hi  # lo - hi; finite only where lo and hi are
    # the common case in two reductions: every gap finite and none positive;
    # a layer of width 0 has no gap to reduce
    if gap.size and not (gap.min() > -np.inf and gap.max() <= 0.0):
        _check_finite(y)  # the gap also overflows for lo = -1e308, hi = 1e308
        # y is a sound enclosure, or the meet of two, so a crossing can only
        # be rounding noise; collapse it instead of failing
        bad = gap > 0.0
        if bad.any():
            mid = 0.5 * lo - 0.5 * neg_hi
            np.copyto(lo, mid, where=bad)
            np.copyto(neg_hi, -mid, where=bad)
            _check_finite(y)
    return y


def _relu_relaxation(y):
    """ReLU slopes (K, 2w), lower then upper, and the negated upper's shift (K, w).

    From pre-activation bounds y (K, 2w), l and u: the upper relaxation is
    the chord u (z - l) / (u - l) where l < 0 < u, the identity where
    l >= 0 and zero where u <= 0; the lower one is the identity where
    u > -l, else zero.  Negation is exact, so the chord's slope is taken
    as (-u / 2) / ((l - u) / 2) on the stacked halves l and -u: halving
    first keeps the gap finite for every finite l and u, and changes no bit
    of the slope where l and u are normal.
    """
    lo, neg_hi = _halves(y)
    half_lo, half_neg_hi = _halves(0.5 * y)
    gap = half_lo + half_neg_hi  # (l - u) / 2, the negated half width
    if gap.max() > -0.5 * DEGENERATE_WIDTH:
        gap = np.where(gap > -0.5 * DEGENERATE_WIDTH, gap - 0.5 * DEGENERATE_WIDTH, gap)
    upper = np.where(lo < 0.0, half_neg_hi / gap, 1.0) * (neg_hi < 0.0)
    lower = lo > neg_hi  # l + u > 0
    return np.concatenate([lower, upper], axis=1), upper * np.minimum(lo, 0.0)


def _bound(plan: _Plan, lo, hi, a_y, b_x) -> tuple:
    """The batched bound core: K boxes, rows of lo, hi (K, n), and their constraints.

    ``plan`` is the network's ``_plan``.  Rows a_y . f(x) + b_x . x come
    shared, a_y (c, m) and b_x (c, n), or per box, (K, c, m) and (K, c, n).
    Returns ``(z, y, lb, coef)``: the output layer's stacked forms
    z (K, 2m, n + 1), per box each form's n input coefficients and its value
    at the box centre; the stacked output bounds y (K, 2m); the (K, c)
    back-substituted lower bounds of the rows; and the (K, c, n) input
    coefficients of each row's lower affine form.

    The forward walk keeps every ReLU layer's ``_relu_relaxation`` and
    every other activation's output bounds f(l), f(u).  The backward walk
    takes each row back through the layers: an affine layer maps its
    coefficients g to g W and adds g . b to its constant, a ReLU takes the
    lower slope where g >= 0 and the upper chord, with its shift, where
    g < 0, and any other activation adds max(g, 0) . f(l) + min(g, 0) . f(u)
    to the constant and sets g to zero.  Every (box, row) pair is its own
    (1, width) row vector, so each bound is computed as for one row over
    one box.
    """
    (k, n), (c, m) = lo.shape, a_y.shape[-2:]
    mid, rad = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    z = np.empty((k, 2 * n, n + 1))
    z[..., :n] = plan.eye
    z[:, :n, n] = mid
    np.negative(mid, out=z[:, n:, n])
    y = np.concatenate([lo, -hi], axis=1)[..., None]
    relaxation = []
    for step in plan.steps:
        if isinstance(step, _Affine):
            z = step.block @ z
            z[..., n:] += step.bias
            _check_finite(z)
            # least value over the box: at the centre, less |A| . radius
            conc = z[..., n:] - np.abs(z[..., :n]) @ rad[..., None]
            y = _meet(_interval_affine(step, y), conc)
        elif step == "relu":
            slope, shift = _relu_relaxation(y[..., 0])
            z *= slope[..., None]
            z[:, shift.shape[1] :, n] += shift
            # the relaxed forms concretize no tighter than this
            y = _interval_activation(step, y)
            relaxation.append((slope, shift))
        else:  # monotone increasing: the forms are the constants f(l), f(u)
            y = _interval_activation(step, y)
            z[..., :n] = 0.0
            z[..., n] = y[..., 0]
            relaxation.append(y[..., 0])

    g = np.broadcast_to(a_y[..., None, :], (k, c, 1, m))
    const = 0.0
    for step in reversed(plan.steps):
        if isinstance(step, _Affine):
            const = const + g @ step.b
            g = g @ step.weight
        elif step == "relu":
            slope, shift = relaxation.pop()
            half = shift.shape[1]
            lower, upper = slope[:, None, None, :half], slope[:, None, None, half:]
            const = const - np.minimum(g, 0.0) @ shift[:, None, :, None]
            g = g * np.where(g >= 0.0, lower, upper)
        else:  # max(g, 0) . f(l) + min(g, 0) . f(u), on stacked [f(l) | -f(u)]
            g_stacked = np.concatenate([np.maximum(g, 0.0), -np.minimum(g, 0.0)], axis=-1)
            const = const + g_stacked @ relaxation.pop()[:, None, :, None]
            g = np.zeros_like(g)
    coef = g + b_x[..., None, :]  # (K, c, 1, n)
    mid, rad = mid[:, None, :, None], rad[:, None, :, None]
    # least value over each box: at the centre, less |coef| . radius
    lb = (coef @ mid - np.abs(coef) @ rad + const)[..., 0, 0]
    _check_finite(lb, coef)
    return z, y[..., 0], lb, coef[:, :, 0]


@_QUIET
def affine_bounds(net: Network, box: Box) -> AffineBounds:
    """Forward-propagate independent lower/upper affine forms per neuron.

    Unstable ReLU neurons get the chord upper relaxation
    u(z) = u * (z - l) / (u - l) and a lower relaxation of either zero
    (when |l| >= u) or the identity; stable neurons pass through exactly.
    After any other activation the forms are the constants of its interval
    image.  This is the batched core run on a batch of one box with no
    rows.  A constant that overflows, though the forms are finite, raises
    ``ArithmeticError``.
    """
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    plan = _plan(net)
    m, n = net.n_outputs, net.n_inputs
    lo, hi = box.lower[None], box.upper[None]
    z, y, _, _ = _bound(plan, lo, hi, np.empty((0, m)), np.empty((0, n)))
    weight = z[0, :, :n]
    const = z[0, :, n] - weight @ (0.5 * box.lower + 0.5 * box.upper)
    _check_finite(const)
    return AffineBounds(
        box,
        weight[:m],
        const[:m],
        -weight[m:],
        -const[m:],
        Box(y[0, :m], -y[0, m:]),
        plan,
    )


@_QUIET
def constraint_lower_bound(ab: AffineBounds, a_y, b_x) -> float:
    """Sound lower bound of a_y . f(x) + b_x . x over the bounds' box.

    The row's bound back-substituted through the activations' relaxation:
    the batched core rerun on one row over a batch of one box.
    """
    m, n = ab.lower_weight.shape
    a_y = np.asarray(a_y, dtype=np.float64).reshape(1, m)
    b_x = np.asarray(b_x, dtype=np.float64).reshape(1, n)
    _, _, lb, _ = _bound(ab._plan, ab.box.lower[None], ab.box.upper[None], a_y, b_x)
    return float(lb[0, 0])
