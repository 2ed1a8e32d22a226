import time

import numpy as np
import pytest

from veribench.network import ActivationLayer, AffineLayer, Network, forward
from veribench.speclang import (
    Conjunct,
    MixedConstraint,
    NormalizedSpec,
    parse_vnnlib,
    to_dnf,
)
from veribench.verifier import (
    Budget,
    EASY_VIOLATED_BUDGET,
    falsify,
    output_combination_gradient,
    validate_witness,
)

from conftest import make_random_network


def _spec(text: str) -> NormalizedSpec:
    return to_dnf(parse_vnnlib(text))


IDENTITY = Network((AffineLayer(np.eye(1), np.zeros(1)),), 1, 1)
RELU_NET = Network(
    (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("relu")), 1, 1
)


def test_no_witness_when_property_holds():
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 2.0))"
    )
    assert falsify(IDENTITY, spec, Budget(seed=0)) is None


def test_witness_found_by_random_sampling():
    # a quarter of the box satisfies, so 100 samples find it essentially surely
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))(assert (>= Y_0 0.5))"
    )
    w = falsify(RELU_NET, spec, Budget(seed=0))
    assert w is not None
    assert 0.5 <= w.x[0] <= 1.0
    assert validate_witness(RELU_NET, spec, w, 1e-6)


def test_falsify_deterministic_given_seed():
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))(assert (>= Y_0 0.5))"
    )
    a = falsify(RELU_NET, spec, Budget(seed=12))
    b = falsify(RELU_NET, spec, Budget(seed=12))
    assert a.x == b.x and a.y_claimed == b.y_claimed


def test_gradient_phase_reaches_narrow_satisfying_set():
    # satisfying set is a sliver near the box maximum that sampling misses
    rng = np.random.default_rng(31)
    net = make_random_network(rng, 3, [10], 1, weight_scale=1.5)
    box_lo = np.full(3, -1.0)
    box_hi = np.full(3, 1.0)
    # approximate the reachable maximum by dense sampling
    xs = box_lo + rng.random((200000, 3)) * (box_hi - box_lo)
    ys = xs @ net.layers[0].weight.T + net.layers[0].bias
    ys = np.maximum(ys, 0.0) @ net.layers[2].weight.T + net.layers[2].bias
    thr = float(np.quantile(ys[:, 0], 0.9999))
    spec = NormalizedSpec(
        3,
        1,
        (
            Conjunct(
                tuple(box_lo),
                tuple(box_hi),
                (MixedConstraint((-1.0,), (0.0, 0.0, 0.0), -thr),),
            ),
        ),
    )
    # few samples: phase 1 alone is very unlikely to hit the top 0.01%
    budget = Budget(falsifier_samples=20, pgd_restarts=3, pgd_steps=60, seed=5)
    w = falsify(net, spec, budget)
    assert w is not None
    assert validate_witness(net, spec, w, 1e-6)


def test_planted_violations_recall():
    # affine nets with specs built from a known interior point
    rng = np.random.default_rng(37)
    found = 0
    total = 20
    for _ in range(total):
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(1, 4))
        net = make_random_network(rng, n_in, [], n_out)
        lo = rng.uniform(-2, 0, n_in)
        box_hi = lo + rng.uniform(0.5, 2, n_in)
        x_star = lo + rng.random(n_in) * (box_hi - lo)
        y_star = forward(net, x_star)
        constraints = []
        for _ in range(int(rng.integers(1, 3))):
            a_y = rng.uniform(-1, 1, n_out)
            slack = rng.uniform(0.01, 0.1)
            constraints.append(
                MixedConstraint(
                    tuple(a_y), tuple(np.zeros(n_in)), float(a_y @ y_star + slack)
                )
            )
        spec = NormalizedSpec(
            n_in, n_out, (Conjunct(tuple(lo), tuple(box_hi), tuple(constraints)),)
        )
        w = falsify(net, spec, EASY_VIOLATED_BUDGET)
        if w is not None and validate_witness(net, spec, w, 1e-6):
            found += 1
    assert found >= 19


def test_falsify_respects_wall_budget():
    rng = np.random.default_rng(41)
    net = make_random_network(rng, 4, [32, 32], 2)
    # unsatisfiable by a wide margin: outputs stay far below 1e6
    spec = NormalizedSpec(
        4,
        2,
        tuple(
            Conjunct(
                (-1.0,) * 4,
                (1.0,) * 4,
                (MixedConstraint((-1.0, 0.0), (0.0,) * 4, -1e6),),
            )
            for _ in range(50)
        ),
    )
    budget = Budget(
        wall_seconds=0.2, falsifier_samples=10000, pgd_restarts=10, pgd_steps=500
    )
    start = time.monotonic()
    assert falsify(net, spec, budget) is None
    assert time.monotonic() - start <= budget.wall_seconds + 1.0


def test_multiple_disjuncts_scanned_in_order():
    # first disjunct unsatisfiable, second trivially satisfiable
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (or (>= Y_0 5.0) (>= Y_0 0.25)))"
    )
    w = falsify(IDENTITY, spec, Budget(seed=0))
    assert w is not None
    assert forward(IDENTITY, np.array(w.x))[0] >= 0.25


def test_default_budget_shape():
    assert EASY_VIOLATED_BUDGET.falsifier_samples == 100
    assert EASY_VIOLATED_BUDGET.pgd_restarts == 3
    assert EASY_VIOLATED_BUDGET.pgd_steps == 50
    assert EASY_VIOLATED_BUDGET.pgd_step_scale == 0.1
    assert EASY_VIOLATED_BUDGET.wall_seconds == 10.0


# ---------------------------------------------------------------------------
# Gradient correctness


def _numeric_gradient(net, x, a_y, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        hi = float(a_y @ forward(net, x + e))
        lo = float(a_y @ forward(net, x - e))
        g[i] = (hi - lo) / (2 * h)
    return g


def _preactivations(net, x):
    v = x
    pre = []
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            v = layer.weight @ v + layer.bias
        elif isinstance(layer, ActivationLayer):
            pre.append(v.copy())
            from veribench.network import apply_activation

            v = apply_activation(layer.kind, v)
    return pre


@pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
def test_gradient_matches_central_differences(activation):
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 10:
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(1, 4))
        net = make_random_network(rng, n_in, [8, 6], n_out, activation=activation)
        x = rng.uniform(-1, 1, n_in)
        if activation == "relu":
            # keep away from kinks where the derivative is not defined
            if any(np.min(np.abs(p)) < 1e-3 for p in _preactivations(net, x)):
                continue
        a_y = rng.uniform(-1, 1, n_out)
        g = output_combination_gradient(net, x, a_y)
        g_num = _numeric_gradient(net, x, a_y)
        scale = max(1.0, float(np.max(np.abs(g_num))))
        assert np.max(np.abs(g - g_num)) / scale < 1e-4
        checked += 1
