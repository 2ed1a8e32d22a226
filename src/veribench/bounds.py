"""Sound output enclosures: interval propagation and affine relaxation.

Bounds travel stacked as ``[lower | -upper]``: a layer of width w has
concrete bounds ``y`` of shape (K, 2w), one row per box, and affine forms
``z`` of shape (K, 2w, n + 1), the lower form of every neuron over its
negated upper form, per box the n input coefficients and the form's value
at the box centre.  With both halves bounded from below, an affine layer W
maps a box's forms by one product with the nonnegative block
``[[W+, |W-|], [|W-|, W+]]``; the centre value less ``|A| . radius``
concretizes both halves at once, and ``np.maximum`` meets two enclosures.

One batched core, ``_affine_forms``, bounds K boxes at once.  Per layer it
intersects the interval image of the previous bounds with the
concretization of the forms.  Every product is taken per box, with a
shape that does not depend on K, so each box gets exactly the arithmetic
of a batch of one; the interval image is the same matrix-vector product
``interval_bounds`` makes, so a single box's bounds nest inside
``interval_bounds`` exactly.  Unstable ReLU neurons get the chord upper
relaxation and a zero or identity lower relaxation, and the core returns
their slopes.
``_constraint_rows`` bounds constraint rows ``a_y . f(x) + b_x . x`` by
back-substitution through those slopes (DeepPoly, CROWN): it walks the rows
back to the input, choosing each neuron's lower or upper relaxation by the
sign of its accumulated coefficient, which in exact arithmetic is never
looser than substituting the forward forms.  Each (box, row) pair is its
own row vector there, so a row's bound does not depend on the rows or
boxes batched with it.  A non-finite value in any row fails the whole batch
with ``ArithmeticError``.  Branch-and-bound and the robustness certifier
call the core directly; ``affine_bounds`` and ``constraint_lower_bound``
run the same code on one box, with a ``Box`` at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .network import (
    ActivationLayer,
    AffineLayer,
    Box,
    Network,
    apply_activation,
)

# Pre-activation ranges narrower than this are widened before computing the
# relaxation slope, avoiding division by near-zero widths.
DEGENERATE_WIDTH = 1e-12


class UnsupportedActivationError(ValueError):
    """Affine relaxation only covers ReLU activations."""


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ArithmeticError("bound propagation produced non-finite values")


def _stacked(layer: AffineLayer):
    """The layer's block [[W+, |W-|], [|W-|, W+]] and bias [b, -b]."""
    w, b = layer.weight, layer.bias
    (rows, cols), wp = w.shape, np.maximum(w, 0.0)
    block = np.empty((2 * rows, 2 * cols))
    block[:rows, :cols] = block[rows:, cols:] = wp
    block[:rows, cols:] = block[rows:, :cols] = wp - w  # |W-|, exactly
    return block, np.concatenate([b, -b])


def _halves(y):
    """The lower and the negated upper half of stacked bounds [lo; -hi]."""
    half = y.shape[-1] // 2
    return y[..., :half], y[..., half:]


def _interval_affine(block, bias, y):
    """Interval image of an affine layer, on stacked bounds y (K, 2w).

    One matrix-vector product per box, the same for any K.
    """
    return (block @ y[..., None])[..., 0] + bias


def _interval_relu(y):
    """Interval image of ReLU: max(lo, 0) and -max(hi, 0) = min(-hi, 0)."""
    lo, neg_hi = _halves(y)
    return np.concatenate([np.maximum(lo, 0.0), np.minimum(neg_hi, 0.0)], axis=-1)


def interval_bounds(net: Network, box: Box) -> list[Box]:
    """Per-layer output boxes, index 0 being the input box itself."""
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    y = np.concatenate([box.lower, -box.upper])[None]
    out = [box]
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in net.layers:
            if isinstance(layer, AffineLayer):
                y = _interval_affine(*_stacked(layer), y)
            elif isinstance(layer, ActivationLayer) and layer.kind == "relu":
                y = _interval_relu(y)
            elif isinstance(layer, ActivationLayer):
                # sigmoid and tanh are monotone increasing
                lo, neg_hi = _halves(y)
                y = np.concatenate(
                    [apply_activation(layer.kind, lo), -apply_activation(layer.kind, -neg_hi)],
                    axis=-1,
                )
            _check_finite(y)
            lo, neg_hi = _halves(y[0])
            out.append(Box(lo, -neg_hi))
    return out


class _Backward(NamedTuple):
    """What back-substitution over one box needs beyond its output bounds."""

    net: Network
    relaxation: list  # the core's ReLU slopes and shifts, for a batch of one


@dataclass(frozen=True, eq=False)
class AffineBounds:
    """Per-output affine lower/upper functions of the inputs, valid on box."""

    box: Box
    lower_weight: np.ndarray  # (n_outputs, n_inputs)
    lower_const: np.ndarray
    upper_weight: np.ndarray
    upper_const: np.ndarray
    output_box: Box  # concretization, already intersected with intervals
    _backward: _Backward = field(repr=False)


def _meet(y, other):
    """Intersection of two stacked enclosures (K, 2w) of the same values."""
    y = np.maximum(y, other)
    lo, neg_hi = _halves(y)
    # both operands are sound enclosures of the same values, so a crossing
    # (lo > hi) can only be rounding noise; collapse it instead of failing
    bad = lo + neg_hi > 0.0
    if bad.any():
        mid = 0.5 * (lo - neg_hi)
        y = np.concatenate([np.where(bad, mid, lo), np.where(bad, -mid, neg_hi)], axis=-1)
    _check_finite(y)
    return y


def _relu_relaxation(y):
    """ReLU slopes (K, 2w), lower then upper, and the negated upper's shift (K, w).

    From pre-activation bounds l, u: the upper relaxation is the chord
    u (z - l) / (u - l) where l < 0 < u, the identity where l >= 0 and zero
    where u <= 0; the lower one is the identity where u > -l, else zero.
    """
    lo, neg_hi = _halves(y)
    hi = -neg_hi
    width = hi - lo
    width = np.where(width < DEGENERATE_WIDTH, width + DEGENERATE_WIDTH, width)
    upper = np.where(lo < 0.0, hi / width, 1.0) * (hi > 0.0)
    lower = lo + hi > 0.0
    return np.concatenate([lower, upper], axis=-1), upper * np.minimum(lo, 0.0)


def _affine_forms(net: Network, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The batched bound core: affine bounds of K boxes, rows of lo, hi (K, n).

    Returns ``(z, relaxation, y)``.  The output layer's stacked forms z
    (K, 2m, n + 1) hold, per box, each form's n input coefficients and its
    value at the box centre; ``relaxation`` holds every ReLU layer's
    ``_relu_relaxation``, in order; y (K, 2m) are the stacked output bounds.
    Every product is one per box, so each box gets exactly the arithmetic
    of a batch of one.  A non-finite value in any box raises
    ``ArithmeticError`` for the batch.
    """
    k, n = lo.shape
    rad = 0.5 * (hi - lo)[..., None]  # (K, n, 1)
    mid = 0.5 * (lo + hi)
    eye = np.eye(n)
    z = np.empty((k, 2 * n, n + 1))
    z[..., :n] = np.concatenate([eye, -eye])
    z[..., n] = np.concatenate([mid, -mid], axis=1)
    y = np.concatenate([lo, -hi], axis=1)
    relaxation = []
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in net.layers:
            if isinstance(layer, AffineLayer):
                block, bias = _stacked(layer)
                z = block @ z
                z[..., n] += bias
                _check_finite(z)
                # least value over the box: at the centre, less |A| . radius
                conc = z[..., n] - (np.abs(z[..., :n]) @ rad)[..., 0]
                y = _meet(_interval_affine(block, bias, y), conc)
            elif isinstance(layer, ActivationLayer):
                if layer.kind != "relu":
                    raise UnsupportedActivationError(
                        f"affine relaxation does not support {layer.kind}"
                    )
                slope, shift = _relu_relaxation(y)
                z = z * slope[..., None]
                z[:, shift.shape[1] :, n] += shift
                # the relaxed forms concretize no tighter than this
                y = _interval_relu(y)
                relaxation.append((slope, shift))
    return z, relaxation, y


def affine_bounds(net: Network, box: Box) -> AffineBounds:
    """Forward-propagate independent lower/upper affine forms per neuron.

    Unstable ReLU neurons get the chord upper relaxation
    u(z) = u * (z - l) / (u - l) and a lower relaxation of either zero
    (when |l| >= u) or the identity; stable neurons pass through exactly.
    This is the batched core run on a batch of one box.
    """
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    z, relaxation, y = _affine_forms(net, box.lower[None], box.upper[None])
    m, n = net.n_outputs, net.n_inputs
    weight = z[0, :, :n]
    const = z[0, :, n] - weight @ (0.5 * (box.lower + box.upper))
    return AffineBounds(
        box,
        weight[:m],
        const[:m],
        -weight[m:],
        -const[m:],
        Box(y[0, :m], -y[0, m:]),
        _Backward(net, relaxation),
    )


def _constraint_rows(net, relaxation, lo, hi, y, a_y, b_x):
    """Lower bounds of every constraint row over each of K boxes.

    Rows a_y . f(x) + b_x . x come shared, a_y (c, m) and b_x (c, n), or per
    box, (K, c, m) and (K, c, n); ``relaxation`` is what ``_affine_forms``
    returned for the boxes lo, hi (K, n); stacked y (K, 2m) encloses f(x).
    Each row is walked back through the layers: an affine layer maps its
    coefficients g to g W and adds g . b to its constant, and a ReLU takes
    the lower slope where g >= 0 and the upper chord, with its shift, where
    g < 0.  Returns the (K, c) lower bounds, each the tighter of the
    back-substituted bound and the interval bound through y, and the
    (K, c, n) input coefficients of each row's lower affine form.  Every
    (box, row) pair is its own (1, width) row vector, so each bound is
    computed as for one row over one box.
    """
    (k, _), (c, m) = lo.shape, a_y.shape[-2:]
    g = np.broadcast_to(a_y[..., None, :], (k, c, 1, m))
    const = 0.0
    slopes = reversed(relaxation)
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in reversed(net.layers):
            if isinstance(layer, AffineLayer):
                const = const + g @ layer.bias[:, None]
                g = g @ layer.weight
            elif isinstance(layer, ActivationLayer):
                slope, shift = next(slopes)
                lower, upper = (s[:, None, None] for s in _halves(slope))
                const = const - np.minimum(g, 0.0) @ shift[:, None, :, None]
                g = g * np.where(g >= 0.0, lower, upper)
        coef = g + b_x[..., None, :]  # (K, c, 1, n)
        mid, rad = (v[:, None, :, None] for v in (0.5 * (lo + hi), 0.5 * (hi - lo)))

        def box_min(a):  # least value over each box of row vectors a
            return a @ mid - np.abs(a) @ rad

        ap, an = np.maximum(a_y, 0.0), np.minimum(a_y, 0.0)
        y_rows = np.concatenate([ap, -an], axis=-1)[..., None, :]  # ([K,] c, 1, 2m)
        y_lb = y_rows @ y[:, None, :, None] + box_min(b_x[..., None, :])
        lb = np.maximum(box_min(coef) + const, y_lb)[..., 0, 0]
    _check_finite(lb, coef)
    return lb, coef[:, :, 0]


def constraint_lower_bound(
    ab: AffineBounds, a_y, b_x, out_box: Box | None = None
) -> float:
    """Sound lower bound of a_y . f(x) + b_x . x over the bounds' box.

    Combines the back-substituted bound with the interval bound through
    out_box (defaulting to the bounds' own concretization) and keeps the
    tighter.  This is ``_constraint_rows`` run on one row over a batch of
    one box.
    """
    return float(_box_rows(ab, a_y, b_x, out_box)[0][0])


def _box_rows(ab: AffineBounds, a_y, b_x, out_box: Box | None = None):
    """``_constraint_rows`` over the bounds' one box.

    Returns the (c,) lower bounds and the (c, n) input coefficients of the
    rows a_y (c, m), b_x (c, n); out_box defaults to the bounds' own.
    """
    if out_box is None:
        out_box = ab.output_box
    m, n = ab.lower_weight.shape
    net, relaxation = ab._backward
    lb, coef = _constraint_rows(
        net,
        relaxation,
        ab.box.lower[None],
        ab.box.upper[None],
        np.concatenate([out_box.lower, -out_box.upper])[None],
        np.asarray(a_y, dtype=np.float64).reshape(-1, m),
        np.asarray(b_x, dtype=np.float64).reshape(-1, n),
    )
    return lb[0], coef[0]
