"""Sound output enclosures: interval propagation and affine relaxation.

Both methods take an input box and return guaranteed bounds on every
network output.  The affine relaxation carries, per neuron, a lower and an
upper affine function of the network inputs; its concretization is always
intersected with the interval result, so it is never looser.

Arrays inside, ``Box`` at the edge: the input ``Box`` is validated once by
its caller, every layer's concrete bounds travel as plain ``lo, hi`` float
arrays, and only the returned ``output_box`` is built as a ``Box`` again.
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


def _interval_affine(weight, bias, lo, hi):
    wp = np.maximum(weight, 0.0)
    wn = np.minimum(weight, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        new_lo = wp @ lo + wn @ hi + bias
        new_hi = wp @ hi + wn @ lo + bias
    if not (np.all(np.isfinite(new_lo)) and np.all(np.isfinite(new_hi))):
        raise ArithmeticError("bound propagation produced non-finite values")
    return new_lo, new_hi


def interval_bounds(net: Network, box: Box) -> list[Box]:
    """Per-layer output boxes, index 0 being the input box itself."""
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    lo, hi = box.lower, box.upper
    out = [box]
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            lo, hi = _interval_affine(layer.weight, layer.bias, lo, hi)
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
    if np.any(bad):
        mid = 0.5 * (lo + hi)
        lo = np.where(bad, mid, lo)
        hi = np.where(bad, mid, hi)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ArithmeticError("bound propagation produced non-finite values")
    return lo, hi


def _form_min(weight, const, box: Box) -> np.ndarray:
    wp = np.maximum(weight, 0.0)
    wn = np.minimum(weight, 0.0)
    return wp @ box.lower + wn @ box.upper + const


def _form_max(weight, const, box: Box) -> np.ndarray:
    wp = np.maximum(weight, 0.0)
    wn = np.minimum(weight, 0.0)
    return wp @ box.upper + wn @ box.lower + const


def affine_bounds(net: Network, box: Box) -> AffineBounds:
    """Forward-propagate independent lower/upper affine forms per neuron.

    Unstable ReLU neurons get the chord upper relaxation
    u(z) = u * (z - l) / (u - l) and a lower relaxation of either zero
    (when |l| >= u) or the identity; stable neurons pass through exactly.
    """
    if box.dim != net.n_inputs:
        raise ValueError(f"box dimension {box.dim} != network inputs {net.n_inputs}")
    n = net.n_inputs
    a_lo = np.eye(n)
    c_lo = np.zeros(n)
    a_hi = np.eye(n)
    c_hi = np.zeros(n)
    lo, hi = box.lower, box.upper  # concrete bounds of the current layer

    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            w, b = layer.weight, layer.bias
            wp = np.maximum(w, 0.0)
            wn = np.minimum(w, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                a_lo, a_hi = wp @ a_lo + wn @ a_hi, wp @ a_hi + wn @ a_lo
                c_lo, c_hi = wp @ c_lo + wn @ c_hi + b, wp @ c_hi + wn @ c_lo + b
            if not (np.all(np.isfinite(a_lo)) and np.all(np.isfinite(a_hi))):
                raise ArithmeticError("bound propagation produced non-finite values")
            ilo, ihi = _interval_affine(w, b, lo, hi)
            lo, hi = _meet(
                ilo, ihi, _form_min(a_lo, c_lo, box), _form_max(a_hi, c_hi, box)
            )
        elif isinstance(layer, ActivationLayer):
            if layer.kind != "relu":
                raise UnsupportedActivationError(
                    f"affine relaxation does not support {layer.kind}"
                )
            inactive = hi <= 0.0
            unstable = (lo < 0.0) & ~inactive
            # upper: chord through (l, 0) and (u, u) applied to the upper form
            width = hi - lo
            width = np.where(width < DEGENERATE_WIDTH, width + DEGENERATE_WIDTH, width)
            slope = np.where(unstable, hi / width, 1.0)
            a_hi = np.where(unstable[:, None], slope[:, None] * a_hi, a_hi)
            c_hi = np.where(unstable, slope * (c_hi - lo), c_hi)
            # lower: zero when the negative side dominates, else identity
            drop = unstable & (-lo >= hi)
            a_lo = np.where((inactive | drop)[:, None], 0.0, a_lo)
            c_lo = np.where(inactive | drop, 0.0, c_lo)
            a_hi = np.where(inactive[:, None], 0.0, a_hi)
            c_hi = np.where(inactive, 0.0, c_hi)
            lo, hi = _meet(
                np.maximum(lo, 0.0),
                np.maximum(hi, 0.0),
                _form_min(a_lo, c_lo, box),
                _form_max(a_hi, c_hi, box),
            )
        # Reshape layers change nothing

    return AffineBounds(box, a_lo, c_lo, a_hi, c_hi, Box(lo, hi))


def constraint_lower_bound(
    ab: AffineBounds, a_y, b_x, out_box: Box | None = None
) -> float:
    """Sound lower bound of a_y . f(x) + b_x . x over the bounds' box.

    Combines the affine-form bound with the interval bound through out_box
    (defaulting to the bounds' own concretization) and keeps the tighter.
    """
    a_y = np.asarray(a_y, dtype=np.float64)
    b_x = np.asarray(b_x, dtype=np.float64)
    box = ab.box
    if out_box is None:
        out_box = ab.output_box

    ap = np.maximum(a_y, 0.0)
    an = np.minimum(a_y, 0.0)
    # substitute affine forms for the output part, fold in the input part
    row = ap @ ab.lower_weight + an @ ab.upper_weight + b_x
    const = float(ap @ ab.lower_const + an @ ab.upper_const)
    form_lb = float(_form_min(row[None, :], np.array([const]), box)[0])

    y_lb = float(ap @ out_box.lower + an @ out_box.upper)
    x_lb = float(_form_min(b_x[None, :], np.zeros(1), box)[0])
    return max(form_lb, y_lb + x_lb)


def infeasible(ab: AffineBounds, a_y, b_x, rhs, out_box: Box) -> bool:
    """True when some row's lower bound over ab.box exceeds its rhs.

    Rows are constraints a_y . f(x) + b_x . x <= rhs; one row that cannot be
    met means no point of the box meets them all, so the box is pruned.
    """
    return any(
        constraint_lower_bound(ab, a, b, out_box) > r
        for a, b, r in zip(a_y, b_x, rhs)
    )
