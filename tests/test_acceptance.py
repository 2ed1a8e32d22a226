"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test is summarized as a PASS/FAIL line at the end of the pytest run
(see conftest).  Runtime limits are asserted where a criterion carries one.
"""

import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import make_random_network
from oracles import SAT, batch_forward, make_decidable_instance

from veribench.bounds import affine_bounds, interval_bounds
from veribench.cli import main
from veribench.harness import (
    CalibrationRequest,
    calibrate_epsilon,
    emit_report,
    load_manifest,
    make_robustness_oracles,
)
from veribench.network import Box, forward
from veribench.scoring import (
    Label,
    RunRecord,
    measure_overhead,
    read_results_dir,
    render_report,
    score_instance,
    score_records,
    time_bonus,
)
from veribench.speclang import Conjunct, NormalizedSpec
from veribench.verifier import (
    Budget,
    EASY_VIOLATED_BUDGET,
    Status,
    falsify,
    output_combination_gradient,
    validate_witness,
    verify,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_criterion_01_worked_log_points():
    start = time.monotonic()
    adjusted = {
        "nnenum": 6.4,
        "venus2": 10.5,
        "VeriNet": 41.1,
        "a-b-CROWN": 62.5,
        "oval": 64.8,
    }
    timed_out = ["ERAN", "Marabou", "NV.jl", "RPM", "randgen"]

    points = {}
    bonuses = time_bonus(adjusted, eligible=set(adjusted))
    for tool in adjusted:
        points[tool] = score_instance(Label.CORRECT, Status.VIOLATED) + bonuses[tool]
    for tool in timed_out:
        points[tool] = score_instance(Label.UNSOLVED, Status.TIMEOUT)

    assert points == {
        "nnenum": 12,
        "venus2": 11,
        "VeriNet": 10,
        "a-b-CROWN": 10,
        "oval": 10,
        "ERAN": 0,
        "Marabou": 0,
        "NV.jl": 0,
        "RPM": 0,
        "randgen": 0,
    }
    assert time.monotonic() - start < 1.0


def test_criterion_02_fixture_replay_bytes(tmp_path):
    start = time.monotonic()
    golden_dir = FIXTURES / "golden"
    golden = {p.name: p.read_bytes() for p in golden_dir.iterdir()}
    assert len(golden) == 8

    records = read_results_dir(FIXTURES / "results")
    ledger = score_records(records, adjudication="odd-one-out", overhead_mode="multi")
    paths = emit_report(ledger, tmp_path / "direct")
    assert sorted(p.name for p in paths) == sorted(golden)
    for p in paths:
        assert p.read_bytes() == golden[p.name], "mismatch in %s" % p.name

    code = main(
        [
            "score",
            str(FIXTURES / "results"),
            "--overhead",
            "multi",
            "--adjudication",
            "odd-one-out",
            "--out",
            str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    for name, blob in golden.items():
        assert (tmp_path / "cli" / name).read_bytes() == blob
    assert time.monotonic() - start < 10.0


def test_criterion_03_overhead_values():
    records = read_results_dir(FIXTURES / "results")

    def rows(tool, mode=None):
        return [
            r
            for r in records
            if r.tool == tool and (mode is None or r.mode == mode)
        ]

    assert abs(measure_overhead(rows("Marabou")) - 0.2) <= 0.1
    assert abs(measure_overhead(rows("nnenum")) - 1.0) <= 0.1
    assert abs(measure_overhead(rows("ERAN", "gpu")) - 7.1) <= 0.1
    assert abs(measure_overhead(rows("ERAN", "cpu")) - 3.7) <= 0.1


def test_criterion_04_manifest_inventory():
    instances = load_manifest(FIXTURES / "acasxu" / "instances.csv")
    assert len(instances) == 186
    assert all(inst.timeout == 116.0 for inst in instances)
    assert all(inst.benchmark == "acasxu" for inst in instances)
    assert len({inst.instance_id for inst in instances}) == 186


def test_criterion_05_verifier_matches_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(12345)
    for _ in range(100):
        net, spec, verdict = make_decidable_instance(rng)
        budget = Budget(wall_seconds=20.0, seed=int(rng.integers(2**31)))
        outcome = verify(net, spec, budget)
        expected = Status.VIOLATED if verdict == SAT else Status.HOLDS
        assert outcome.status is expected, (
            "oracle says %s but verify returned %s" % (verdict, outcome.status)
        )
    assert time.monotonic() - start < 300.0


def test_criterion_06_bound_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(777)
    for _ in range(100):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        hidden = [int(rng.integers(2, 7)), int(rng.integers(2, 7))]
        net = make_random_network(rng, n_in, hidden, n_out)
        lower = rng.uniform(-2.0, 0.0, n_in)
        upper = lower + rng.uniform(0.5, 2.5, n_in)
        box = Box(lower, upper)

        ib = interval_bounds(net, box)[-1]
        ab = affine_bounds(net, box).output_box
        xs = rng.uniform(lower, upper, size=(10_000, n_in))
        ys = batch_forward(net, xs)

        slack = 1e-9
        assert np.all(ys >= ib.lower - slack) and np.all(ys <= ib.upper + slack)
        assert np.all(ys >= ab.lower - slack) and np.all(ys <= ab.upper + slack)
        # nestedness, exact by construction
        assert np.all(ab.lower >= ib.lower) and np.all(ab.upper <= ib.upper)
    assert time.monotonic() - start < 120.0


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(4242)
    checked = 0
    while checked < 50:
        n_in = int(rng.integers(1, 5))
        n_out = int(rng.integers(1, 4))
        kind = ["relu", "sigmoid", "tanh"][checked % 3]
        net = make_random_network(rng, n_in, [int(rng.integers(3, 8))], n_out, activation=kind)
        a_y = rng.normal(size=n_out)
        x = rng.uniform(-1.0, 1.0, n_in)
        if kind == "relu" and _near_relu_kink(net, x):
            continue  # finite differences are meaningless across a kink
        h = 1e-6
        grad = output_combination_gradient(net, x, a_y)
        fd = np.empty(n_in)
        for i in range(n_in):
            step = np.zeros(n_in)
            step[i] = h
            hi = float(a_y @ forward(net, x + step))
            lo = float(a_y @ forward(net, x - step))
            fd[i] = (hi - lo) / (2.0 * h)
        denom = max(float(np.max(np.abs(grad))), 1e-6)
        assert float(np.max(np.abs(fd - grad))) / denom < 1e-4
        checked += 1


def _near_relu_kink(net, x, margin=1e-4):
    from veribench.network import ActivationLayer, AffineLayer

    v = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        if isinstance(layer, AffineLayer):
            v = layer.weight @ v + layer.bias
        elif isinstance(layer, ActivationLayer):
            if layer.kind == "relu":
                if np.any(np.abs(v) < margin):
                    return True
                v = np.maximum(v, 0.0)
    return False


def test_criterion_08_falsifier_recall():
    rng = np.random.default_rng(31337)
    found = 0
    for k in range(100):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        net = make_random_network(rng, n_in, [int(rng.integers(2, 9))], n_out)
        lower = rng.uniform(-1.5, 0.5, n_in)
        upper = lower + rng.uniform(0.4, 1.5, n_in)
        x_star = rng.uniform(lower, upper)
        y_star = forward(net, x_star)
        a_y = rng.normal(size=n_out)
        planted = float(a_y @ y_star)
        rhs = planted + 0.05 + 0.1 * abs(planted)
        spec = NormalizedSpec(
            n_in,
            n_out,
            (
                Conjunct(lower, upper, [a_y], np.zeros((1, n_in)), [rhs]),
            ),
        )
        witness = falsify(net, spec, replace(EASY_VIOLATED_BUDGET, seed=k))
        if witness is not None:
            assert validate_witness(net, spec, witness)
            found += 1
    assert found >= 95, "recall %d/100" % found


def _synthetic_records(seed=7):
    rnd = random.Random(seed)
    tools = ["tool_a", "tool_b", "tool_c", "tool_d", "tool_e"]
    records = []
    for b in range(5):
        bench = "bench%d" % b
        for i in range(20):
            inst = "inst%02d" % i
            for tool in tools:
                status = rnd.choices(
                    [
                        Status.HOLDS,
                        Status.VIOLATED,
                        Status.TIMEOUT,
                        Status.ERROR,
                        Status.UNKNOWN,
                    ],
                    weights=[5, 4, 2, 1, 1],
                )[0]
                seconds = (
                    120.0 if status is Status.TIMEOUT else round(rnd.uniform(0.5, 110.0), 3)
                )
                witness = (
                    "w/%s-%s.txt" % (bench, inst)
                    if status is Status.VIOLATED and rnd.random() < 0.5
                    else ""
                )
                records.append(
                    RunRecord(tool, inst, bench, status, seconds, witness_path=witness)
                )
    assert len(records) == 500
    return records


def test_criterion_09_order_independence():
    records = _synthetic_records()
    baseline = render_report(score_records(records))
    for i in range(20):
        shuffled = list(records)
        random.Random(i).shuffle(shuffled)
        assert render_report(score_records(shuffled)) == baseline


def test_criterion_10_eps_calibration():
    req = CalibrationRequest(
        network=make_random_network(np.random.default_rng(5), 2, [4], 2),
        center=np.zeros(2),
        eps_max=0.04,
        eps_tol=0.005,
    )
    result = calibrate_epsilon(req, lambda eps: False, lambda eps: eps < 0.0099)
    assert result == 0.03

    rng = np.random.default_rng(21)
    net = make_random_network(rng, 2, [4], 2)
    live = CalibrationRequest(
        network=net, center=rng.normal(size=2) * 0.1, eps_max=0.5, eps_tol=0.02
    )
    attack, certify = make_robustness_oracles(live)
    calls = {"attack": 0, "certify": 0}

    def counted_attack(eps):
        calls["attack"] += 1
        return attack(eps)

    def counted_certify(eps):
        calls["certify"] += 1
        return certify(eps)

    eps = calibrate_epsilon(live, counted_attack, counted_certify)
    bound = math.ceil(math.log2(live.eps_max / live.eps_tol)) + 1
    assert calls["attack"] <= bound
    assert calls["certify"] <= bound

    from veribench.harness import _bisect

    r_attack, _ = _bisect(attack, live.eps_max, live.eps_tol)
    _, r_certify = _bisect(lambda e: not certify(e), live.eps_max, live.eps_tol)
    assert min(r_attack, r_certify) <= eps <= max(r_attack, r_certify)
