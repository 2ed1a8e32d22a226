"""Independent ground truth for tiny ReLU networks, used only by tests.

Satisfiability of a normalized spec over a network is decided by dense grid
evaluation plus a Lipschitz argument:

- if any grid point satisfies a conjunct exactly, the spec is satisfiable;
- a conjunct is refuted over its whole box when every grid point has some
  constraint violated by more than L_c * r, where r is the covering radius
  of the grid (max-norm) and L_c bounds the constraint's rate of change
  (L_c = |a_y|_1 * prod of layer max-abs-row-sums + |b_x|_1);
- otherwise the grid is refined; if the point limit is hit, the instance is
  reported undecidable at this resolution and callers should resample.

This module deliberately avoids the package's bound-propagation and search
code; it only reads network weights and evaluates layers directly.

``reference_falsify`` is the falsifier as it was before it was batched: one
point per forward pass, PGD restarts one after another.  The batched
``verifier.falsify`` must find a witness exactly when it does, at the same x.

``reference_search`` is branch-and-bound as it was before the frontier: one
box per step, depth first.  The frontier ``verifier.verify`` must reach the
same status on uncapped runs, and visit as many nodes when the spec holds.

Spec semantics, one point at a time: ``conjunct_satisfied`` and
``spec_satisfied`` are exact over the normal form, ``ast_satisfied`` walks
the parsed assertions, and ``witness_rule_reference`` is the witness rule of
``verifier.validate_witness`` written as a scalar loop.
"""

import numpy as np

from veribench import verifier
from veribench.network import ActivationLayer, AffineLayer, Network
from veribench.speclang import (
    BoolTerm,
    Conjunct,
    NormalizedSpec,
    Witness,
)
from veribench.bounds import _box_rows, affine_bounds, constraint_lower_bound
from veribench.network import Box
from veribench.verifier import (
    MIN_SPLIT_WIDTH,
    WITNESS_TOL,
    validate_witness,
)

SAT = "sat"
UNSAT = "unsat"
UNDECIDED = "undecided"


# ---------------------------------------------------------------------------
# Spec semantics at a point


def _conjunct_holds(conj: Conjunct, x, y, slack) -> bool:
    """Each input bound, then each row, may miss by slack(its values)."""
    for i, (lo, hi) in enumerate(zip(conj.input_lower, conj.input_upper)):
        s = slack(x[i], lo, hi)
        if x[i] < lo - s or x[i] > hi + s:
            return False
    for a_y, b_x, rhs in zip(conj.a_y, conj.b_x, conj.rhs):
        lhs = float(np.dot(a_y, y) + np.dot(b_x, x))
        s = slack(lhs, rhs)
        if lhs > rhs + s:
            return False
    return True


def _no_slack(*values) -> float:
    return 0.0


def _relative_slack(*values) -> float:
    return WITNESS_TOL * max(1.0, *map(abs, values))


def conjunct_satisfied(conj: Conjunct, x, y) -> bool:
    """Exact: x lies in the conjunct's box and every row holds at (x, y)."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return _conjunct_holds(conj, x, y, _no_slack)


def spec_satisfied(spec: NormalizedSpec, x, y) -> bool:
    """Exact: some disjunct of the normal form holds at (x, y)."""
    return any(conjunct_satisfied(c, x, y) for c in spec.disjuncts)


def witness_rule_reference(spec: NormalizedSpec, x, y) -> bool:
    """The witness rule, one disjunct and one inequality at a time.

    An inequality may miss by WITNESS_TOL * scale, where scale is the
    largest of 1 and the magnitudes it compares: x_i and its bounds, or a
    row's lhs and rhs.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return any(_conjunct_holds(c, x, y, _relative_slack) for c in spec.disjuncts)


def _affine_value(expr, x, y) -> float:
    total = expr.const
    for (kind, idx), c in expr.coeffs:
        total += c * (x[idx] if kind == "X" else y[idx])
    return total


def ast_satisfied(ast, x, y) -> bool:
    """Exact truth of the parsed assertions at (x, y), by walking the AST."""

    def holds(term) -> bool:
        if isinstance(term, BoolTerm):
            return (all if term.kind == "and" else any)(holds(t) for t in term.terms)
        a, b = _affine_value(term.lhs, x, y), _affine_value(term.rhs, x, y)
        return a <= b if term.op == "<=" else a >= b

    return all(holds(t) for t in ast.assertions)


def batch_forward(net: Network, xs: np.ndarray) -> np.ndarray:
    v = np.asarray(xs, dtype=np.float64)
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            v = v @ layer.weight.T + layer.bias
        elif isinstance(layer, ActivationLayer):
            assert layer.kind == "relu", "oracle only covers relu"
            v = np.maximum(v, 0.0)
    return v


def network_lipschitz(net: Network) -> float:
    # operator norm for max-norm inputs: max absolute row sum, per layer
    bound = 1.0
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            bound *= float(np.max(np.sum(np.abs(layer.weight), axis=1)))
    return bound


def constraint_lipschitz(net_bound: float, a_y, b_x) -> float:
    return float(np.sum(np.abs(a_y))) * net_bound + float(np.sum(np.abs(b_x)))


def _grid(lower: np.ndarray, upper: np.ndarray, per_dim: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _decide_conjunct(
    net: Network, conj: Conjunct, net_bound: float, max_points: int
) -> str:
    lower, upper = conj.input_lower, conj.input_upper
    if not conj.rhs.size:
        return SAT  # any box point satisfies
    lips = [constraint_lipschitz(net_bound, a, b) for a, b in zip(conj.a_y, conj.b_x)]
    a_mat, b_mat, rhs = conj.a_y, conj.b_x, conj.rhs

    per_dim = 9
    while True:
        if per_dim ** lower.size > max_points:
            return UNDECIDED
        xs = _grid(lower, upper, per_dim)
        ys = batch_forward(net, xs)
        lhs = ys @ a_mat.T + xs @ b_mat.T  # (points, constraints)
        viol = lhs - rhs
        if np.any(np.all(viol <= 0.0, axis=1)):
            return SAT
        spacing = (upper - lower) / (per_dim - 1)
        radius = float(np.max(spacing)) / 2.0
        needed = np.array([l * radius for l in lips])
        if np.all(np.any(viol > needed, axis=1)):
            return UNSAT
        per_dim = 2 * per_dim - 1  # halve the spacing


def decide_spec(net: Network, spec: NormalizedSpec, max_points: int = 2**21) -> str:
    """SAT / UNSAT / UNDECIDED over the union of the spec's conjuncts."""
    saw_undecided = False
    for conj in spec.disjuncts:
        verdict = _decide_conjunct(net, conj, network_lipschitz(net), max_points)
        if verdict == SAT:
            return SAT
        if verdict == UNDECIDED:
            saw_undecided = True
    return UNDECIDED if saw_undecided else UNSAT


def make_decidable_instance(rng, max_tries: int = 50):
    """Random tiny net + spec whose ground truth the grid oracle can certify.

    Returns (net, spec, verdict) with verdict in {SAT, UNSAT}.
    """
    from conftest import make_random_network

    for _ in range(max_tries):
        n_in = int(rng.integers(1, 3))
        n_out = int(rng.integers(1, 3))
        n_hidden = int(rng.integers(2, 9))
        net = make_random_network(
            rng, n_in, [n_hidden], n_out, weight_scale=float(rng.uniform(0.8, 2.0))
        )
        lower = rng.uniform(-1.5, -0.2, n_in)
        upper = lower + rng.uniform(0.5, 2.0, n_in)
        n_constraints = int(rng.integers(1, 3))
        probes = batch_forward(net, _grid(lower, upper, 7))
        a_rows, b_rows, rhs_list = [], [], []
        for _ in range(n_constraints):
            a_y = rng.uniform(-1, 1, n_out)
            b_x = (
                rng.uniform(-0.5, 0.5, n_in)
                if rng.random() < 0.3
                else np.zeros(n_in)
            )
            vals = probes @ a_y + _grid(lower, upper, 7) @ b_x
            if rng.random() < 0.5:
                rhs = float(np.max(vals) + rng.uniform(0.05, 0.3))  # easy to satisfy
            else:
                rhs = float(np.min(vals) - rng.uniform(0.05, 0.5))  # likely empty
            a_rows.append(a_y)
            b_rows.append(b_x)
            rhs_list.append(rhs)
        spec = NormalizedSpec(
            n_in,
            n_out,
            (Conjunct(lower, upper, a_rows, b_rows, rhs_list),),
        )
        verdict = decide_spec(net, spec)
        if verdict != UNDECIDED:
            return net, spec, verdict
    raise RuntimeError("could not build a decidable instance")


# ---------------------------------------------------------------------------
# Sequential reference falsifier


def _point_outputs(net: Network, x: np.ndarray) -> list:
    """Every layer's value at one point, W @ v + b per affine layer."""
    outs = [x]
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            outs.append(layer.weight @ outs[-1] + layer.bias)
        elif isinstance(layer, ActivationLayer):
            assert layer.kind == "relu", "oracle only covers relu"
            outs.append(np.maximum(outs[-1], 0.0))
    return outs


def _point_gradient(net: Network, x: np.ndarray, a_y) -> np.ndarray:
    outs = _point_outputs(net, x)
    g = np.asarray(a_y, dtype=np.float64)
    for layer, out in zip(reversed(net.layers), reversed(outs[1:])):
        if isinstance(layer, AffineLayer):
            g = layer.weight.T @ g
        elif isinstance(layer, ActivationLayer):
            g = g * (out > 0.0)
    return g


def reference_falsify(net: Network, spec: NormalizedSpec, budget):
    """Sampling then sign-gradient PGD, one point and one restart at a time.

    Same random stream, order and acceptance rule as ``verifier.falsify``;
    the wall clock is ignored.  ReLU networks only.
    """
    rng = np.random.default_rng(budget.seed)
    for conj in spec.disjuncts:
        lo, hi = conj.input_lower, conj.input_upper

        def sample(count):
            return lo + rng.random((count, lo.size)) * (hi - lo)

        def slacks(x, y):
            rows = zip(conj.a_y, conj.b_x, conj.rhs)
            return np.array([r - (np.dot(a, y) + np.dot(b, x)) for a, b, r in rows])

        def accepted(x):
            y = _point_outputs(net, x)[-1]
            if not conjunct_satisfied(conj, x, y):
                return None
            w = Witness(tuple(float(v) for v in x), tuple(float(v) for v in y))
            return w if validate_witness(net, spec, w) else None

        best_x, best_slack = None, -np.inf
        for x in sample(budget.falsifier_samples):
            w = accepted(x)
            if w is not None:
                return w
            if conj.rhs.size:
                s = float(np.min(slacks(x, _point_outputs(net, x)[-1])))
                if s > best_slack:
                    best_slack, best_x = s, x
        if not conj.rhs.size:
            continue

        step = verifier.PGD_STEP_SCALE * (hi - lo)
        for restart in range(budget.pgd_restarts):
            x = best_x.copy() if restart == 0 else sample(1)[0]
            for _ in range(budget.pgd_steps):
                s = slacks(x, _point_outputs(net, x)[-1])
                j = int(np.argmin(s))
                if s[j] >= 0.0:
                    break
                g = _point_gradient(net, x, conj.a_y[j]) + conj.b_x[j]
                x = np.clip(x - step * np.sign(g), lo, hi)
            w = accepted(x)
            if w is not None:
                return w
    return None


# ---------------------------------------------------------------------------
# Sequential reference branch-and-bound


def _accepted(net, spec, conj, x):
    """A validated witness at x, or None; one point per forward pass."""
    y = _point_outputs(net, x)[-1]
    if not conjunct_satisfied(conj, x, y):
        return None
    w = Witness(tuple(float(v) for v in x), tuple(float(v) for v in y))
    return w if validate_witness(net, spec, w) else None


def reference_search(net: Network, spec: NormalizedSpec):
    """Depth-first branch-and-bound, one box at a time, with no budget.

    Per node: probe the midpoint, bound the box with ``affine_bounds`` and
    meet the result with the parent's output box, prune when a constraint's
    ``constraint_lower_bound`` exceeds its rhs, probe the corners minimizing
    the first 8 rows' back-substituted lower forms, split the widest
    dimension and visit the left child first; a cell too narrow to split is
    dropped undecided.  Disjuncts are searched one after another.  Returns
    (status, witness, nodes) with status one of "violated", "holds" and
    "unknown" (no witness, but some cell too narrow to split).  ReLU
    networks only.
    """
    nodes, undecided = 0, False
    for conj in spec.disjuncts:
        a_y, b_x, rhs = conj.a_y, conj.b_x, conj.rhs
        stack = [(Box(conj.input_lower, conj.input_upper), None)]
        while stack:
            box, inherited = stack.pop()
            nodes += 1
            w = _accepted(net, spec, conj, 0.5 * (box.lower + box.upper))
            if w is not None:
                return "violated", w, nodes
            ab = affine_bounds(net, box)
            out_lo, out_hi = ab.output_box.lower, ab.output_box.upper
            if inherited is not None:
                out_lo = np.maximum(out_lo, inherited[0])
                out_hi = np.minimum(out_hi, inherited[1])
                bad = out_lo > out_hi  # rounding noise: collapse to the middle
                mid = 0.5 * (out_lo + out_hi)
                out_lo, out_hi = np.where(bad, mid, out_lo), np.where(bad, mid, out_hi)
            out_box = Box(out_lo, out_hi)
            if any(
                constraint_lower_bound(ab, a, b, out_box) > r
                for a, b, r in zip(a_y, b_x, rhs)
            ):
                continue
            _, coef = _box_rows(ab, a_y[:8], b_x[:8], out_box)
            for row in coef:
                w = _accepted(net, spec, conj, np.where(row > 0, box.lower, box.upper))
                if w is not None:
                    return "violated", w, nodes
            width = box.upper - box.lower
            dim = int(np.argmax(width))
            if width[dim] < MIN_SPLIT_WIDTH:
                undecided = True  # this cell is undecided; the search goes on
                continue
            mid = 0.5 * (box.lower[dim] + box.upper[dim])
            left_hi, right_lo = box.upper.copy(), box.lower.copy()
            left_hi[dim] = right_lo[dim] = mid
            stack.append((Box(right_lo, box.upper), (out_lo, out_hi)))
            stack.append((Box(box.lower, left_hi), (out_lo, out_hi)))
    return ("unknown" if undecided else "holds"), None, nodes
