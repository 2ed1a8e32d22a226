"""Sound output enclosures: interval propagation and affine relaxation.

Both methods take an input box and return guaranteed bounds on every
network output.  The affine relaxation carries, per neuron, a lower and an
upper affine function of the network inputs; its concretization is always
intersected with the interval result, so it is never looser.

One batched core, ``_affine_forms``, bounds K boxes at once: the boxes are
rows of ``lo, hi`` arrays (K, n), the affine forms are stacked as (K, m, n)
and every layer's concrete bounds travel as (K, width) arrays.  Each box
gets exactly the arithmetic it gets alone, and a non-finite value in any
row fails the whole batch with ``ArithmeticError``.  Branch-and-bound and
the robustness certifier call the core directly; ``affine_bounds`` and
``constraint_lower_bound`` are its one-box wrappers, with a ``Box`` at the
edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    ActivationLayer,
    AffineLayer,
    Box,
    Network,
)

# Pre-activation ranges narrower than this are widened before computing the
# relaxation slope, avoiding division by near-zero widths.
DEGENERATE_WIDTH = 1e-12


class UnsupportedActivationError(ValueError):
    """Affine relaxation only covers ReLU activations."""


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ArithmeticError("bound propagation produced non-finite values")


def _interval_affine(wp, wn, bias, lo, hi):
    """Interval image of W x + b, given W's positive and negative parts."""
    with np.errstate(over="ignore", invalid="ignore"):
        new_lo = wp @ lo + wn @ hi + bias
        new_hi = wp @ hi + wn @ lo + bias
    _check_finite(new_lo, new_hi)
    return new_lo, new_hi


def interval_bounds(net: Network, box: Box) -> list[Box]:
    """Per-layer output boxes, index 0 being the input box itself."""
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    lo, hi = box.lower, box.upper
    out = [box]
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            w = layer.weight
            lo, hi = _interval_affine(
                np.maximum(w, 0.0), np.minimum(w, 0.0), layer.bias, lo, hi
            )
        elif isinstance(layer, ActivationLayer):
            if layer.kind == "relu":
                lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
            else:
                # sigmoid and tanh are monotone increasing
                from .network import apply_activation

                lo, hi = apply_activation(layer.kind, lo), apply_activation(
                    layer.kind, hi
                )
        out.append(Box(lo, hi))
        lo, hi = out[-1].lower, out[-1].upper
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


def _meet(lo, hi, other_lo, other_hi) -> tuple[np.ndarray, np.ndarray]:
    """Intersection of two enclosures of the same values, as lo, hi arrays."""
    lo = np.maximum(lo, other_lo)
    hi = np.minimum(hi, other_hi)
    # both operands are sound enclosures of the same values, so a crossing
    # can only be rounding noise; collapse it instead of failing
    bad = lo > hi
    if bad.any():
        mid = 0.5 * (lo + hi)
        lo = np.where(bad, mid, lo)
        hi = np.where(bad, mid, hi)
    _check_finite(lo, hi)
    return lo, hi


def _form_min(weight, const, lo, hi) -> np.ndarray:
    """Least value of each affine form over its box; swap lo, hi for the most.

    Vectors are columns, so a stack of forms (..., w, n) meets a stack of
    boxes (..., n, 1) as one matrix-vector product per box.
    """
    return np.maximum(weight, 0.0) @ lo + np.minimum(weight, 0.0) @ hi + const


def _affine_forms(net: Network, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The batched bound core: affine bounds of K boxes, rows of lo, hi (K, n).

    Returns the lower weights and constants, the upper weights and constants
    and the output bounds: weights of shape (K, m, n), the rest (K, m).
    Inside, every vector is a (K, w, 1) stack of columns, so each box gets
    exactly the products, and the bounds, of a batch of one.  A non-finite
    value in any row raises ``ArithmeticError`` for the whole batch.
    """
    k, n = lo.shape
    lo, hi = lo[..., None], hi[..., None]
    a_lo = a_hi = np.broadcast_to(np.eye(n), (k, n, n))
    c_lo = c_hi = np.zeros((k, n, 1))
    y_lo, y_hi = lo, hi  # concrete bounds of the current layer

    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            w, b = layer.weight, layer.bias[:, None]
            wp = np.maximum(w, 0.0)
            wn = np.minimum(w, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                a_lo, a_hi = wp @ a_lo + wn @ a_hi, wp @ a_hi + wn @ a_lo
                c_lo, c_hi = wp @ c_lo + wn @ c_hi + b, wp @ c_hi + wn @ c_lo + b
            _check_finite(a_lo, a_hi)
            i_lo, i_hi = _interval_affine(wp, wn, b, y_lo, y_hi)
            y_lo, y_hi = _meet(
                i_lo, i_hi, _form_min(a_lo, c_lo, lo, hi), _form_min(a_hi, c_hi, hi, lo)
            )
        elif isinstance(layer, ActivationLayer):
            if layer.kind != "relu":
                raise UnsupportedActivationError(
                    f"affine relaxation does not support {layer.kind}"
                )
            inactive = y_hi <= 0.0
            unstable = (y_lo < 0.0) & ~inactive
            # upper: chord through (l, 0) and (u, u) applied to the upper form
            width = y_hi - y_lo
            width = np.where(width < DEGENERATE_WIDTH, width + DEGENERATE_WIDTH, width)
            slope = np.where(unstable, y_hi / width, 1.0)
            a_hi = np.where(unstable, slope * a_hi, a_hi)
            c_hi = np.where(unstable, slope * (c_hi - y_lo), c_hi)
            # lower: zero when the negative side dominates, else identity
            zero_lo = inactive | (unstable & (-y_lo >= y_hi))
            a_lo = np.where(zero_lo, 0.0, a_lo)
            c_lo = np.where(zero_lo, 0.0, c_lo)
            a_hi = np.where(inactive, 0.0, a_hi)
            c_hi = np.where(inactive, 0.0, c_hi)
            y_lo, y_hi = _meet(
                np.maximum(y_lo, 0.0),
                np.maximum(y_hi, 0.0),
                _form_min(a_lo, c_lo, lo, hi),
                _form_min(a_hi, c_hi, hi, lo),
            )
        # Reshape layers change nothing

    return a_lo, c_lo[..., 0], a_hi, c_hi[..., 0], y_lo[..., 0], y_hi[..., 0]


def affine_bounds(net: Network, box: Box) -> AffineBounds:
    """Forward-propagate independent lower/upper affine forms per neuron.

    Unstable ReLU neurons get the chord upper relaxation
    u(z) = u * (z - l) / (u - l) and a lower relaxation of either zero
    (when |l| >= u) or the identity; stable neurons pass through exactly.
    This is the batched core run on a batch of one box.
    """
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    rows = _affine_forms(net, box.lower[None], box.upper[None])
    *forms, lo, hi = (r[0] for r in rows)
    return AffineBounds(box, *forms, Box(lo, hi))


def _constraint_rows(lo, hi, forms, y_lo, y_hi, a_y, b_x):
    """Lower bounds of every constraint row over each of K boxes.

    Rows are a_y . f(x) + b_x . x with a_y (c, m) and b_x (c, n); ``forms``
    are the first four arrays of ``_affine_forms`` for the boxes lo, hi
    (K, n), and y_lo, y_hi (K, m) enclose the outputs.  Returns the (K, c)
    lower bounds, each the tighter of the affine-form bound and the interval
    bound through y_lo, y_hi, and the (K, c, n) input coefficients of each
    row's lower affine form.  Boxes and rows are both batch axes, so each
    bound is computed as for one row over one box.
    """
    a_lo, c_lo, a_hi, c_hi = forms

    def col(v):  # (K, d) -> (K, 1, d, 1): one column per box, shared by rows
        return v[:, None, :, None]

    lo, hi = col(lo), col(hi)
    ap = np.maximum(a_y, 0.0)[:, None]  # (c, 1, m)
    an = np.minimum(a_y, 0.0)[:, None]
    b = b_x[:, None]
    # substitute affine forms for the output part, fold in the input part
    rows = ap @ a_lo[:, None] + an @ a_hi[:, None] + b
    form_lb = _form_min(rows, ap @ col(c_lo) + an @ col(c_hi), lo, hi)
    y_lb = ap @ col(y_lo) + an @ col(y_hi)
    lb = np.maximum(form_lb, y_lb + _form_min(b, 0.0, lo, hi))
    return lb[..., 0, 0], rows[:, :, 0]


def constraint_lower_bound(
    ab: AffineBounds, a_y, b_x, out_box: Box | None = None
) -> float:
    """Sound lower bound of a_y . f(x) + b_x . x over the bounds' box.

    Combines the affine-form bound with the interval bound through out_box
    (defaulting to the bounds' own concretization) and keeps the tighter.
    This is ``_constraint_rows`` run on one row over a batch of one box.
    """
    if out_box is None:
        out_box = ab.output_box
    m, n = ab.lower_weight.shape
    forms = (ab.lower_weight, ab.lower_const, ab.upper_weight, ab.upper_const)
    lb, _ = _constraint_rows(
        ab.box.lower[None],
        ab.box.upper[None],
        tuple(f[None] for f in forms),
        out_box.lower[None],
        out_box.upper[None],
        np.asarray(a_y, dtype=np.float64).reshape(-1, m),
        np.asarray(b_x, dtype=np.float64).reshape(-1, n),
    )
    return float(lb[0, 0])
