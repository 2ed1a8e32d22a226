import hashlib
import time
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from veribench import verifier
from veribench.harness import CalibrationRequest, calibrate_epsilon, make_robustness_oracles
from veribench.network import ActivationLayer, AffineLayer, Network, forward
from veribench.speclang import (
    Conjunct,
    NormalizedSpec,
    load_spec,
    parse_vnnlib,
    to_dnf,
)
from veribench.verifier import (
    Budget,
    EASY_VIOLATED_BUDGET,
    Status,
    _SAMPLE_BLOCK,
    falsify,
    format_witness,
    output_combination_gradient,
    validate_witness,
    verify,
)

from conftest import NAN_GRADIENT_NET, NAN_GRADIENT_SPEC, make_random_network
from oracles import batch_forward, reference_climb, reference_falsify


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
            Conjunct(box_lo, box_hi, [[-1.0]], [[0.0, 0.0, 0.0]], [-thr]),
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
        a_rows, rhs = [], []
        for _ in range(int(rng.integers(1, 3))):
            a_y = rng.uniform(-1, 1, n_out)
            slack = rng.uniform(0.01, 0.1)
            a_rows.append(a_y)
            rhs.append(float(a_y @ y_star + slack))
        spec = NormalizedSpec(
            n_in, n_out, (Conjunct(lo, box_hi, a_rows, np.zeros((len(rhs), n_in)), rhs),)
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
            Conjunct((-1.0,) * 4, (1.0,) * 4, [[-1.0, 0.0]], [(0.0,) * 4], [-1e6])
            for _ in range(50)
        ),
    )
    budget = Budget(
        wall_seconds=0.2, falsifier_samples=10000, pgd_restarts=10, pgd_steps=500
    )
    start = time.monotonic()
    assert falsify(net, spec, budget) is None
    assert time.monotonic() - start <= budget.wall_seconds + 1.0


def test_clock_past_the_deadline_mid_climb_drops_the_climb(monkeypatch):
    # y = x >= 1 holds only at the box's upper corner, which no uniform draw
    # in [-1, 1) reaches and the climb's first steps do
    spec = NormalizedSpec(1, 1, (Conjunct((-1.0,), (1.0,), [[-1.0]], [[0.0]], [-1.0]),))
    budget = Budget(falsifier_samples=10, pgd_restarts=1, pgd_steps=50)
    assert falsify(IDENTITY, spec, budget).x == (1.0,)
    # the deadline, the one sample block and the first climb step read 0
    ticks = iter([0.0, 0.0, 0.0])
    monkeypatch.setattr(verifier, "time", SimpleNamespace(monotonic=lambda: next(ticks, 1e9)))
    assert falsify(IDENTITY, spec, budget) is None
    assert next(ticks, None) is None


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
        a_rows, b_rows, rhs_list = [], [], []
        for _ in range(int(rng.integers(1, 4))):
            a_y = rng.uniform(-1.0, 1.0, n_out)
            b_x = rng.uniform(-0.3, 0.3, n_in) if rng.random() < 0.3 else np.zeros(n_in)
            vals = ys @ a_y + xs @ b_x
            q = float(rng.choice(quantiles))
            rhs = np.min(vals) - 0.5 if q < 0 else np.quantile(vals, q)
            a_rows.append(a_y)
            b_rows.append(b_x)
            rhs_list.append(float(rhs))
        disjuncts.append(Conjunct(lo, hi, a_rows, b_rows, rhs_list))
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


def test_batched_falsify_matches_reference_across_sample_blocks(monkeypatch):
    # two whole sample blocks and a partial one, with specs built from the
    # falsifier's own draws: the best draw, which one short PGD step turns
    # into a witness, and the first satisfying draw may lie past block one
    n = 2 * _SAMPLE_BLOCK + 3
    rng = np.random.default_rng(53)
    net = make_random_network(rng, 3, [8, 8], 2, weight_scale=1.5)
    lo, hi = np.full(3, -1.0), np.full(3, 1.0)
    a_y, b_x = (1.0, -1.0), (2.0, 2.0, 2.0)

    def spec_below(rhs):
        return NormalizedSpec(3, 2, (Conjunct(lo, hi, [a_y], [b_x], [float(rhs)]),))

    late = [0, 0]  # best draw, first hit: how often past the first block
    monkeypatch.setattr(verifier, "PGD_STEP_SCALE", 0.001)
    for seed in range(4):
        budget = Budget(falsifier_samples=n, pgd_restarts=3, pgd_steps=1, seed=seed)
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


def _watch_climb(monkeypatch):
    """Record the points of every PGD pass, read off the gradient pass that
    each climb step makes, and of the final probe."""
    passes, probed = [], []
    backprop, probe = verifier._backprop, verifier._probe

    def watched_pass(net, outs, a_y):
        passes.append(outs[0].copy())
        return backprop(net, outs, a_y)

    def watched_probe(net, spec, points, d):
        probed.append((points.copy(), d))
        return probe(net, spec, points, d)

    monkeypatch.setattr(verifier, "_backprop", watched_pass)
    monkeypatch.setattr(verifier, "_probe", watched_probe)
    return passes, probed


def test_stopped_climb_probes_the_points_of_the_full_climb(monkeypatch):
    # a climb stops once its live points repeat with period 1 or 2; what it
    # probes must be the full climb's points, byte for byte, for odd and
    # even step counts, which covers the pick of a 2-cycle's point
    passes, probed = _watch_climb(monkeypatch)
    rng = np.random.default_rng(59)
    stopped = Counter()
    for case in range(150):
        net, spec = _random_falsify_instance(rng, n_disjuncts=int(rng.integers(1, 4)))
        budget = Budget(
            falsifier_samples=int(rng.choice([1, 5, 20])),
            pgd_restarts=int(rng.integers(1, 5)),
            pgd_steps=int(rng.integers(1, 80)),
            seed=case,
        )
        passes.clear()
        probed.clear()
        falsify(net, spec, budget)
        if not probed:
            continue  # a sample hit on disjunct 0 queues no climb
        [(points, d)] = probed
        want, full = reference_climb(net, spec, passes[0], d, budget.pgd_steps)
        assert points.tobytes() == want.tobytes()
        stopped[budget.pgd_steps % 2] += len(passes) < full
    assert min(stopped.values()) >= 10


ABS_NET = Network(  # y = |x|
    (
        AffineLayer(np.array([[1.0], [-1.0]]), np.zeros(2)),
        ActivationLayer("relu"),
        AffineLayer(np.ones((1, 2)), np.zeros(1)),
    ),
    1,
    1,
)


@pytest.mark.parametrize("steps", [50, 51])
def test_climb_that_settles_stops_early(monkeypatch, steps):
    # y = |x| on [-1, 1] never reaches -0.5, and each step moves x by 0.2
    # toward 0, so within a few steps every restart swings around 0.  The
    # full climb ends on the 2-cycle's point that the step count picks, a
    # point of one of the climb's last two walks, with no slack of 0 or
    # more, so no walk follows the break
    passes, probed = _watch_climb(monkeypatch)
    walked, walk = [], verifier._layer_walk

    def watched_walk(net, v):
        walked.append(v.copy())
        return walk(net, v)

    monkeypatch.setattr(verifier, "_layer_walk", watched_walk)
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))(assert (<= Y_0 -0.5))"
    )
    assert falsify(ABS_NET, spec, Budget(pgd_steps=steps)) is None
    assert len(passes) < 15
    # one sample block, then one walk per climb step, and none after it
    assert not probed
    assert [v.tobytes() for v in walked[1:]] == [v.tobytes() for v in passes]
    d = np.zeros(len(passes[0]), dtype=int)
    # an even count ends on the cycle's point of the next-to-last walk
    kept = -2 if steps % 2 == 0 else -1
    want, full = reference_climb(ABS_NET, spec, passes[0], d, steps)
    assert full == steps
    assert want.tobytes() == passes[kept].tobytes()


# ---------------------------------------------------------------------------
# Pinned answers on ACAS-shaped nets

PROPS = Path(__file__).resolve().parent / "fixtures" / "acasxu" / "props"
STRONG_BUDGET = Budget(falsifier_samples=1000, pgd_restarts=10, pgd_steps=200, seed=3)
_NONE = hashlib.sha256(b"none").hexdigest()
# per net seed and prop: SHA-256 of format_witness(w), or of "none", at
# EASY_VIOLATED_BUDGET and at STRONG_BUDGET
FALSIFY_SHA256 = {
    0: {
        "prop_1": (_NONE, _NONE),
        "prop_2": (_NONE, _NONE),
        "prop_3": (_NONE, _NONE),
        "prop_4": (_NONE, _NONE),
        "prop_5": (
            "9af81d65840458dc9105d19df7c9588870508f4cb56189d76743997d7674f736",
            "d304aa63e41f44c685aa3c104516710a47ca1c9c1dcbe60758966205acbdc4a6",
        ),
        "prop_6": (
            "bc2000953d25ad1117a16075470df03bbb4a536e2501fadf0e4d22e7263fca3d",
            "53ed22efed3a05dc0207cc3651503d2a7790af776beeb82c7dfc09a7907d0f00",
        ),
        "prop_7": (_NONE, _NONE),
        "prop_8": (
            "a41c42ae4f19590ac376b220e78ed5dd6cb78153a2e0276c839fd46d961ec205",
            "188b95861c4e87a555fd135e2680b51edd4b83cfc40da280fce9d3885cc55001",
        ),
        "prop_9": (
            "8a46b966ddc1d8480c8dac24f7e6652e856abb6c40da1a3ffcaf9f09be3c4437",
            "6b981f37541c92f0d58aa0c20f6d99c439533cd54ce002dc713741ec4b8cf060",
        ),
        "prop_10": (
            "2b568ad50c63d643efc9c81b4b154aa5ab0505addf1cdf8bf8a1a6a17f5008cc",
            "03559a6167f528f6f446624a837e4b52b6745f5544487394efa77a3d3fd23a24",
        ),
    },
    1: {
        "prop_1": (_NONE, _NONE),
        "prop_2": (
            "d58a86c20344716cbc3af6beb3220c06350a59d64b62fa550935c6cb792dbb56",
            "9c9b8a02dcabad90eeb30555d80323b51e5f4f47e7d2342dc5a3628254f471e5",
        ),
        "prop_3": (_NONE, _NONE),
        "prop_4": (_NONE, _NONE),
        "prop_5": (
            "cbe3ca348f05dcdd81c66bb3d672b0a87c8ee6860eba80daa8903ffd9896241b",
            "96ca6db4a59a92463e19d1ea0a3505d2f16e5e40dcec0e95d08e6386a40ca6b4",
        ),
        "prop_6": (
            "d072a6c3c3e7419a9835795d194f2ce1da793a2669fba62dc654a107fa526dad",
            "fd4fa4b8d5632779ca686d33de533647676b96ed0d8737ffce8975941d1c7e18",
        ),
        "prop_7": (_NONE, _NONE),
        "prop_8": (_NONE, _NONE),
        "prop_9": (
            "c5c3bb3860a942ed1e4c5e06da59dd0eb9d05d7842135074d7c1d8b31de7a391",
            "f92646ee0f0a7bf8b7eebc4cc96a8e3cc12e5b3ae6a77b47b9f15dd58f0e693e",
        ),
        "prop_10": (
            "9a789c352c1d2d5898a85109e058fe9ceb9ce2061ef55fd50c66e6e149e21751",
            "29d7f362b7093eddedb9c631a5a979f5dca16a2daca046b3b40578979409a34a",
        ),
    },
    2: {
        "prop_1": (_NONE, _NONE),
        "prop_2": (
            "68a570501964eb1b84e9279d5549a3e2d0f9e883c771ecfa48358eccb761d7c9",
            "64b2154cc9b0d5cfa442398ce76d66b193eee73210cc8551b169aa0b56e99529",
        ),
        "prop_3": (_NONE, _NONE),
        "prop_4": (_NONE, _NONE),
        "prop_5": (
            "5e70d64baefa249720e2b3c582c059b1d9007beff46d61d15c4717075bf35a27",
            "c5cde224921f3989611b8d74e41b06fd72c0ac0897f6b11d0691ceee2b206516",
        ),
        "prop_6": (
            "8d97be65c07056e7fd40d41a61e547b4040f9f3aa4b8a61b87f46e720e637f6a",
            "ec03f0921cb7ca3355689a41648b63894e490deb65c157368dd65e5557386c0d",
        ),
        "prop_7": (
            _NONE,
            "76ce4ed11e6a5d9551fa39cd5292585a4b1af960a5d085cf3b2749f714e67292",
        ),
        "prop_8": (_NONE, _NONE),
        "prop_9": (
            "933dbadba581f1a484cb29f1c7f6d5c4206f02299be62514d086964e3c25b255",
            "26adbfc099ee1b0d21f5459f0d1be7cc3570a66a59acaf44d1e0ded66f9eb3bf",
        ),
        "prop_10": (
            "3574cee8a725ea85a6e545ea04b0ef659bc1e68f057c424ca3afd62399c78c41",
            "368e1b9eea8eda9278f5969d2f4c7fe3a1b8caecd9591276faacb46a975dcd8c",
        ),
    },
    3: {
        "prop_1": (_NONE, _NONE),
        "prop_2": (_NONE, _NONE),
        "prop_3": (_NONE, _NONE),
        "prop_4": (_NONE, _NONE),
        "prop_5": (_NONE, _NONE),
        "prop_6": (
            "ee02faa1b7d5e9a8d20d4d33cf368ea64b840282fa258d3b9fd250ab6053d473",
            "ef0e2d3a6bd2fa6721185c7bdedb330933fef6174624b77924171252e2207fb2",
        ),
        "prop_7": (
            "d4e91717ae5346e1a7338f97fbec7f5dba161b7e8805fde328df04dec09f536a",
            "6801453cd265d96dfdabdc1bde3af95591fca89bfe4ae90019492741b6090143",
        ),
        "prop_8": (
            "f31aa1a16b302902d80bc07acdc61cd4a5993fcb20d73b109a6ede298649111c",
            "4deffd4292bc770a1d0a40cc7f56bfe7d14ca0491fe47137c37aae6b2dde77fc",
        ),
        "prop_9": (
            "7d7c7273f4ceccecbf5fb20bae89c9332af11de9492f014c9f663a2e6ee1ad7f",
            "64ef73bb66c29e980b8a1555cbd0889d4cc77ca564191df795364c4311686076",
        ),
        "prop_10": (
            "0ddebfad308b7deca5fd5ebde3f19b4998519fc6efa0c26a71bd9493c5e2c517",
            "e4991c52a69d4d6100e180b3a941070df973d18980dbbb9eda724591e12ebb33",
        ),
    },
    4: {
        "prop_1": (_NONE, _NONE),
        "prop_2": (_NONE, _NONE),
        "prop_3": (_NONE, _NONE),
        "prop_4": (_NONE, _NONE),
        "prop_5": (
            "efbe27f104100f15548903b44fbc28d0997d0e05d38a1677cb897bf34f5be702",
            "d6e433d8bcf9a21b2f5bd21f601e70a41028f7dd1305306b0a8695970a8fbbd0",
        ),
        "prop_6": (
            "e8ef9b84de3042b0c405f24eb50a6354dab970211321677db4d47492d158a896",
            "c459684fbc6ae9f80d3abb2a0cce49d4b685fabcbe76765f6eed6ab66abf6ad8",
        ),
        "prop_7": (
            "be364c53479b0c2a0631096c9594a17bf6355ec815ad56a5c018e4411046c176",
            "dcf6d59cd6877298fc2be0ac19e87eced5f78869f626603065437e4b55a084b6",
        ),
        "prop_8": (
            "86d739274f0af5867326795f7c6096f262b2528172032dd2a61d3af075845cf0",
            "bcb72ccc855a299f27391dbc94d2c5d0951287ec54c96279ec5cc0d42591f305",
        ),
        "prop_9": (_NONE, _NONE),
        "prop_10": (
            "f70e5742149e99f8ce78da59cb85cdea05b4dae729a42cb04efc5b10dc66c468",
            "a4e8fcd0ac66e732b106f66f0722348384353dc13f992c5202b248bbeb1338eb",
        ),
    },
}


@pytest.mark.parametrize("seed", sorted(FALSIFY_SHA256))
def test_acas_falsify_answers_pinned(seed):
    net = make_random_network(np.random.default_rng(seed), 5, [50] * 6, 5)
    got = {}
    for name in FALSIFY_SHA256[seed]:
        spec = load_spec(PROPS / f"{name}.vnnlib")
        got[name] = tuple(
            _NONE if w is None else hashlib.sha256(format_witness(w).encode()).hexdigest()
            for w in (falsify(net, spec, b) for b in (EASY_VIOLATED_BUDGET, STRONG_BUDGET))
        )
    assert got == FALSIFY_SHA256[seed]


# SHA-256 of "<eps.hex()> <oracle calls>" per line, for three seeded centres
# on each of nets 0-2, at eps_max 0.05, 0.5 and 2.0 with eps_tol eps_max / 64
CALIBRATE_SHA256 = "a57ca4b2dca07bfbab0a485e79b105b01958fbd0dd81dcc3056eee04d1ab3b7c"


def test_acas_calibration_answers_pinned():
    lines = []
    for seed in range(3):
        net = make_random_network(np.random.default_rng(seed), 5, [50] * 6, 5)
        rng = np.random.default_rng([seed, 0xCA1])
        for eps_max in (0.05, 0.5, 2.0):
            req = CalibrationRequest(net, rng.uniform(-0.5, 0.5, 5), eps_max, eps_max / 64)
            oracles = make_robustness_oracles(req, EASY_VIOLATED_BUDGET)
            calls = []

            def counted(oracle):
                return lambda eps: calls.append(eps) or oracle(eps)

            eps = calibrate_epsilon(req, *map(counted, oracles))
            lines.append(f"{eps.hex()} {len(calls)}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CALIBRATE_SHA256


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
    return Conjunct((lo,), (hi,), [[0.0]], [[-1.0]], [-rhs])


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


WIDE_BOX = "(declare-const X_0 Real)(declare-const Y_0 Real)(assert (>= X_0 -1e308))(assert (<= X_0 1e308))"


def test_falsify_box_too_wide_to_sample_raises_arithmetic_error():
    # the box [-1e308, 1e308] is finite, its width 2e308 is not
    net = make_random_network(np.random.default_rng(0), 1, [4], 1)
    spec = _spec(WIDE_BOX + "(assert (>= Y_0 0.0))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="disjunct 0's box is too wide to sample"):
            falsify(net, spec, Budget())


@pytest.mark.parametrize("row", ["(assert (<= Y_0 X_0))", "(assert (>= Y_0 0.0))"])
def test_box_too_wide_to_sample_is_an_error_before_a_tanh(row):
    # tanh maps an infinite draw to 1.0, so no affine output would show it
    net = Network((ActivationLayer("tanh"), AffineLayer(np.eye(1), np.zeros(1))), 1, 1)
    spec = _spec(WIDE_BOX + row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="too wide to sample"):
            falsify(net, spec, Budget())
        # verify draws nothing: its first probe, the midpoint 0, is a witness
        out = verify(net, spec, Budget())
    assert out.status is Status.VIOLATED and out.witness.x == (0.0,)
    assert validate_witness(net, spec, out.witness)


def test_climb_point_of_a_nan_gradient_is_an_error():
    with pytest.raises(ArithmeticError, match="after layer 0"):
        falsify(NAN_GRADIENT_NET, _spec(NAN_GRADIENT_SPEC), Budget())


def test_gradient_returns_its_nan_with_no_warning():
    # the public gradient is not checked; its overflow is NaN by design
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = output_combination_gradient(NAN_GRADIENT_NET, [[1.5], [1.25]], [-1.0])
    assert g.shape == (2, 1) and np.isnan(g).all()


def test_verify_nonfinite_falsifier_only_path_is_error():
    # the search's first probe overflows, whatever activation follows
    net = Network(OVERFLOW_LAYERS + (ActivationLayer("sigmoid"),), 1, 1)
    with pytest.raises(ArithmeticError):
        verify(net, _spec(OVERFLOW_SPEC), Budget())


def test_default_budget_shape():
    assert EASY_VIOLATED_BUDGET.falsifier_samples == 100
    assert EASY_VIOLATED_BUDGET.pgd_restarts == 3
    assert EASY_VIOLATED_BUDGET.pgd_steps == 50
    assert verifier.PGD_STEP_SCALE == 0.1
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


# SHA-256 of the gradient bits on nets 0-2 with each activation: a batch of
# nine rows, then its first three rows one at a time
GRADIENT_SHA256 = "b3e0cd50be96132083a75d065fdbfa4182c251e59ec6e2102371af6a4482d987"


def test_gradient_bits_pinned():
    digest = hashlib.sha256()
    for seed in range(3):
        for activation in ("relu", "sigmoid", "tanh"):
            rng = np.random.default_rng(seed)
            net = make_random_network(rng, 5, [50] * 6, 5, activation=activation)
            rng = np.random.default_rng([seed, 7])
            xs, a_ys = rng.uniform(-1, 1, (9, 5)), rng.uniform(-1, 1, (9, 5))
            digest.update(output_combination_gradient(net, xs, a_ys).tobytes())
            for x, a_y in zip(xs[:3], a_ys[:3]):
                digest.update(output_combination_gradient(net, x, a_y).tobytes())
    assert digest.hexdigest() == GRADIENT_SHA256


def test_gradient_leaves_the_callers_weights_unchanged():
    # RELU_NET ends in a ReLU, so the walk back starts with its mask
    acas = make_random_network(np.random.default_rng(0), 5, [50] * 6, 5)
    rng = np.random.default_rng(11)
    for net, x in ((RELU_NET, np.array([-1.0, 2.0, -3.0])[:, None]),
                   (acas, rng.uniform(-1, 1, (4, 5)))):
        a_y = rng.uniform(-1, 1, (len(x), net.n_outputs))
        for xi, ai in ((x, a_y), (x[0], a_y[0])):
            kept = ai.copy()
            g = output_combination_gradient(net, xi, ai)
            assert ai.tobytes() == kept.tobytes()
            assert not np.shares_memory(g, ai)


def test_gradient_weighs_every_row_with_one_a_y():
    net = make_random_network(np.random.default_rng(0), 3, [4], 2)
    xs = np.random.default_rng(1).uniform(-1, 1, (4, 3))
    a_y = np.array([0.5, -2.0])
    g = output_combination_gradient(net, xs, a_y)
    assert g.tobytes() == output_combination_gradient(net, xs, np.tile(a_y, (4, 1))).tobytes()
    assert a_y.tolist() == [0.5, -2.0]
