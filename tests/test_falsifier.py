import time
from collections import Counter

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
    Status,
    _SAMPLE_BLOCK,
    falsify,
    output_combination_gradient,
    validate_witness,
    verify,
)

from conftest import make_random_network
from oracles import batch_forward, reference_falsify


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
    assert validate_witness(RELU_NET, spec, w)


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
    assert validate_witness(net, spec, w)


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
        if w is not None and validate_witness(net, spec, w):
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


def _random_falsify_instance(rng, n_disjuncts=1, quantiles=(0.0005, 0.01, 0.2, -1.0)):
    """A ReLU net and a spec whose satisfying set is empty, a sliver or wide."""
    n_in = int(rng.integers(2, 6))
    n_out = int(rng.integers(1, 4))
    net = make_random_network(rng, n_in, [8, 8], n_out, weight_scale=1.5)
    disjuncts = []
    for _ in range(n_disjuncts):
        lo = rng.uniform(-1.0, 0.0, n_in)
        hi = lo + rng.uniform(0.2, 1.5, n_in)
        xs = lo + rng.random((512, n_in)) * (hi - lo)
        ys = batch_forward(net, xs)
        constraints = []
        for _ in range(int(rng.integers(1, 4))):
            a_y = rng.uniform(-1.0, 1.0, n_out)
            b_x = rng.uniform(-0.3, 0.3, n_in) if rng.random() < 0.3 else np.zeros(n_in)
            vals = ys @ a_y + xs @ b_x
            q = float(rng.choice(quantiles))
            rhs = np.min(vals) - 0.5 if q < 0 else np.quantile(vals, q)
            constraints.append(MixedConstraint(tuple(a_y), tuple(b_x), float(rhs)))
        disjuncts.append(Conjunct(tuple(lo), tuple(hi), tuple(constraints)))
    return net, NormalizedSpec(n_in, n_out, tuple(disjuncts))


def _same_answer(net, spec, budget):
    got = falsify(net, spec, budget)
    want = reference_falsify(net, spec, budget)
    assert (got is None) == (want is None)
    if got is not None:
        np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-9)
    return got


def test_batched_falsify_matches_sequential_reference():
    # 1-4 disjuncts: the lockstep climb over every disjunct must answer as
    # the reference does, climbing one disjunct after another
    rng = np.random.default_rng(47)
    found = Counter()
    for case in range(120):
        n_disjuncts = int(rng.integers(1, 5))
        net, spec = _random_falsify_instance(rng, n_disjuncts=n_disjuncts)
        budget = Budget(
            falsifier_samples=int(rng.choice([1, 5, 20, 100])),
            pgd_restarts=int(rng.integers(1, 5)),
            pgd_steps=int(rng.integers(1, 40)),
            seed=case,
        )
        found[n_disjuncts, _same_answer(net, spec, budget) is not None] += 1
    # both outcomes are exercised at every disjunct count
    assert all(found[d, hit] >= 3 for d in range(1, 5) for hit in (False, True))


def test_earlier_disjunct_climb_wins_over_later_sample_hit():
    # y = x on [0, 1]: no draw reaches 1 (draws are < 1), so disjunct 0
    # needs its climb, which clips to x = 1; disjunct 1's first draw hits
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (or (>= Y_0 1.0) (>= Y_0 0.0)))"
    )
    for seed in range(3):
        w = _same_answer(IDENTITY, spec, Budget(seed=seed))
        assert w.x == (1.0,)


def test_batched_falsify_matches_reference_across_sample_blocks():
    # two whole sample blocks and a partial one, with specs built from the
    # falsifier's own draws: the best draw, which one short PGD step turns
    # into a witness, and the first satisfying draw may lie past block one
    n = 2 * _SAMPLE_BLOCK + 3
    rng = np.random.default_rng(53)
    net = make_random_network(rng, 3, [8, 8], 2, weight_scale=1.5)
    lo, hi = np.full(3, -1.0), np.full(3, 1.0)
    a_y, b_x = (1.0, -1.0), (2.0, 2.0, 2.0)

    def spec_below(rhs):
        constraint = MixedConstraint(a_y, b_x, float(rhs))
        return NormalizedSpec(3, 2, (Conjunct(tuple(lo), tuple(hi), (constraint,)),))

    late = [0, 0]  # best draw, first hit: how often past the first block
    for seed in range(4):
        budget = Budget(
            falsifier_samples=n, pgd_restarts=3, pgd_steps=1, pgd_step_scale=0.001,
            seed=seed,
        )
        draws = lo + np.random.default_rng(seed).random((n, 3)) * (hi - lo)
        vals = batch_forward(net, draws) @ np.array(a_y) + draws @ np.array(b_x)
        assert _same_answer(net, spec_below(vals.min() - 0.001), budget) is not None
        late[0] += int(np.argmin(vals)) >= _SAMPLE_BLOCK
        first, rest = vals[:_SAMPLE_BLOCK].min(), vals[_SAMPLE_BLOCK:].min()
        if rest < first:
            w = _same_answer(net, spec_below(0.5 * (first + rest)), budget)
            assert np.flatnonzero((draws == w.x).all(axis=1))[0] >= _SAMPLE_BLOCK
            late[1] += 1
    assert all(late)


OVERFLOW_LAYERS = (
    AffineLayer(np.array([[1e308]]), np.zeros(1)),
    AffineLayer(np.array([[1e308]]), np.zeros(1)),
)
OVERFLOW_SPEC = (
    "(declare-const X_0 Real)(declare-const Y_0 Real)"
    "(assert (>= X_0 1.0))(assert (<= X_0 2.0))(assert (>= Y_0 0.0))"
)


def test_falsify_nonfinite_raises():
    net = Network(OVERFLOW_LAYERS, 1, 1)
    with pytest.raises(ArithmeticError, match="non-finite intermediate"):
        falsify(net, _spec(OVERFLOW_SPEC), Budget())


def test_falsify_overflow_in_a_sample_block_raises_despite_earlier_witness():
    # y = 1e400 * relu(x): 0, a witness, for x <= 0 and an overflow for x > 0
    net = Network(
        (
            AffineLayer(np.array([[1e200]]), np.zeros(1)),
            ActivationLayer("relu"),
            AffineLayer(np.array([[1e200]]), np.zeros(1)),
        ),
        1,
        1,
    )
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))(assert (<= Y_0 0.0))"
    )
    budget = Budget(seed=2)
    draws = np.random.default_rng(budget.seed).random(budget.falsifier_samples)
    assert draws[0] < 0.5 and (draws > 0.5).any()  # x = 2u - 1
    # the block is scored as a whole, so the later overflow wins
    with pytest.raises(ArithmeticError, match="non-finite intermediate"):
        falsify(net, spec, budget)


def _x_at_least(rhs, lo, hi):
    """A disjunct x >= rhs over the box [lo, hi], as its normalized row."""
    return Conjunct((lo,), (hi,), (MixedConstraint((0.0,), (-1.0,), -rhs),))


@pytest.mark.parametrize("where", ["samples", "restarts"])
def test_falsify_overflow_in_a_later_disjunct_raises_despite_earlier_climb(where):
    # y = 1e400 * relu(x): 0 for x <= 0 and an overflow for x > 0.  Disjunct
    # 0 wants x >= 0 on [-1, 0]: no draw hits, its climb reaches x = 0.
    # Disjunct 1 overflows in its samples (box [0.5, 1]), or in its restarts
    # and climb (box [-1, 1], one draw, below 0, and x >= 2 to climb to)
    net = Network(
        (
            AffineLayer(np.array([[1e200]]), np.zeros(1)),
            ActivationLayer("relu"),
            AffineLayer(np.array([[1e200]]), np.zeros(1)),
        ),
        1,
        1,
    )
    later = _x_at_least(0.75, 0.5, 1.0) if where == "samples" else _x_at_least(2.0, -1.0, 1.0)
    spec = NormalizedSpec(1, 1, (_x_at_least(0.0, -1.0, 0.0), later))
    budget = Budget(falsifier_samples=1, seed=0)
    # the draws: disjunct 0's sample and 2 restarts, then disjunct 1's sample
    assert np.random.default_rng(budget.seed).random(4)[3] < 0.5
    # one disjunct after another, disjunct 0's climb would answer first ...
    assert reference_falsify(net, spec, budget).x == (0.0,)
    # ... but all restarts climb as one batch, which fails as a whole
    with pytest.raises(ArithmeticError, match="non-finite intermediate"):
        falsify(net, spec, budget)


def test_verify_nonfinite_falsifier_only_path_is_error():
    # a sigmoid makes verify skip branch-and-bound and only falsify
    net = Network(OVERFLOW_LAYERS + (ActivationLayer("sigmoid"),), 1, 1)
    assert verify(net, _spec(OVERFLOW_SPEC), Budget()).status is Status.ERROR


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
        # batched: row i pairs x[i] with a_y[i] and matches the single call
        more = np.random.default_rng(checked)
        xs = np.vstack([x, more.uniform(-1, 1, (4, n_in))])
        a_ys = np.vstack([a_y, more.uniform(-1, 1, (4, n_out))])
        gs = output_combination_gradient(net, xs, a_ys)
        assert gs.shape == xs.shape
        for xi, ai, gi in zip(xs, a_ys, gs):
            np.testing.assert_allclose(
                gi, output_combination_gradient(net, xi, ai), rtol=1e-12, atol=1e-300
            )
        checked += 1
