import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veribench.network import ActivationLayer, AffineLayer, Network, forward
from veribench.speclang import (
    Conjunct,
    NormalizedSpec,
    Witness,
    parse_vnnlib,
    to_dnf,
)
from veribench.verifier import (
    _FRONTIER,
    Budget,
    Outcome,
    Status,
    format_witness,
    parse_witness,
    read_witness,
    validate_witness,
    verify,
    write_witness,
)

import oracles


def _spec(text: str) -> NormalizedSpec:
    return to_dnf(parse_vnnlib(text))


IDENTITY = Network((AffineLayer(np.eye(1), np.zeros(1)),), 1, 1)
RELU_NET = Network(
    (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("relu")), 1, 1
)

HOLDS_SPEC = _spec(
    "(declare-const X_0 Real)(declare-const Y_0 Real)"
    "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 2.0))"
)
VIOLATED_SPEC = _spec(
    "(declare-const X_0 Real)(declare-const Y_0 Real)"
    "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))(assert (>= Y_0 0.5))"
)


def test_verify_holds_identity():
    out = verify(IDENTITY, HOLDS_SPEC, Budget())
    assert out.status is Status.HOLDS
    assert out.witness is None
    assert out.stats.subproblems >= 1


def test_verify_violated_relu():
    out = verify(RELU_NET, VIOLATED_SPEC, Budget())
    assert out.status is Status.VIOLATED
    assert out.witness is not None
    assert 0.5 <= out.witness.x[0] <= 1.0
    assert validate_witness(RELU_NET, VIOLATED_SPEC, out.witness)


def test_verify_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        verify(Network((AffineLayer(np.eye(2), np.zeros(2)),), 2, 2), HOLDS_SPEC, Budget())


def test_violated_outcome_requires_witness():
    with pytest.raises(ValueError, match="requires a witness"):
        Outcome(Status.VIOLATED, None)


def test_verify_boundary_satisfiable():
    # satisfying set is exactly the point x = 1
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 1.0))"
    )
    out = verify(IDENTITY, spec, Budget())
    assert out.status is Status.VIOLATED
    assert out.witness.x[0] == pytest.approx(1.0)


def _needs_splits():
    # the reachable maximum is 0.7; a threshold just above it is unsat but
    # needs 91 nodes before the relaxation can prove that
    text = (
        "(declare-const X_0 Real)(declare-const X_1 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))"
        "(assert (>= X_1 -1.0))(assert (<= X_1 1.0))"
        "(assert (>= Y_0 0.701))"
    )
    w = np.array([[0.5, 0.5], [-0.5, 0.5]])
    net = Network(
        (
            AffineLayer(w, np.zeros(2)),
            ActivationLayer("relu"),
            AffineLayer(np.array([[0.7, 0.7]]), np.zeros(1)),
        ),
        2,
        1,
    )
    return net, _spec(text)


def test_verify_subproblem_budget_timeout():
    net, spec = _needs_splits()
    out = verify(net, spec, Budget(max_subproblems=3))
    assert out.status is Status.TIMEOUT
    assert out.stats.subproblems <= 3
    # with room to split, the same instance is proved to hold
    out = verify(net, spec, Budget())
    assert out.status is Status.HOLDS
    assert out.stats.subproblems == 91


@pytest.mark.parametrize("cap", [1, 2, 3, 40, 90])
def test_verify_subproblem_cap_is_visited_exactly(cap):
    # a capped run visits exactly the cap, even where it cuts a frontier
    # step short
    net, spec = _needs_splits()
    out = verify(net, spec, Budget(max_subproblems=cap))
    assert out.status is Status.TIMEOUT
    assert out.stats.subproblems == cap


@pytest.mark.parametrize(
    "y_lo, y_hi, cap, status, x",
    [
        (0.9, 1.1, 1, Status.TIMEOUT, None),
        (0.9, 1.1, 2, Status.VIOLATED, 1.0),  # the left child's midpoint
        (2.9, 3.1, 2, Status.TIMEOUT, None),  # the right child is not visited
        (2.9, 3.1, 3, Status.VIOLATED, 3.0),
    ],
)
def test_small_caps_visit_the_root_then_its_left_child(y_lo, y_hi, cap, status, x):
    # y = x on [0, 4]: the root's midpoint and corners miss [y_lo, y_hi], the
    # children [0, 2] and [2, 4] have their midpoints at 1 and 3
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 4.0))"
        f"(assert (>= Y_0 {y_lo}))(assert (<= Y_0 {y_hi}))"
    )
    out = verify(IDENTITY, spec, Budget(max_subproblems=cap))
    assert out.status is status
    assert out.stats.subproblems == cap
    if x is not None:
        assert out.witness.x == (x,)


def test_first_step_pops_every_root_disjunct_0_first():
    # y = x; disjunct 0 on [0, 4] needs its right child for a witness at 3,
    # disjunct 1's root midpoint 11 is one.  Both roots share the first
    # step, so two nodes find it; one node takes only disjunct 0's root
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (or"
        " (and (>= X_0 0.0) (<= X_0 4.0) (>= Y_0 2.9) (<= Y_0 3.1))"
        " (and (>= X_0 10.0) (<= X_0 12.0) (>= Y_0 10.5) (<= Y_0 11.5))))"
    )
    out = verify(IDENTITY, spec, Budget(max_subproblems=2))
    assert out.status is Status.VIOLATED
    assert out.witness.x == (11.0,)
    assert out.stats.subproblems == 2
    out = verify(IDENTITY, spec, Budget(max_subproblems=1))
    assert out.status is Status.TIMEOUT


@pytest.mark.parametrize("spike, status", [(1e-3, Status.VIOLATED), (0.0, Status.UNKNOWN)])
def test_unsplittable_cells_leave_the_search_undecided(spike, status):
    # y = g(x) on [0, 1] must reach p + 1e-13.  g has 40 tent peaks of
    # height p in [0, 0.5), each unprunable until its cell is too narrow to
    # split, then a narrow spike to p + spike near 0.7.  The peaks fill the
    # frontier, so their unsplittable cells come first; they leave the spec
    # undecided, and the search goes on to the spike's witness, if any
    p, at, half = 1 / 240, 0.7 + 1 / 3000, 1e-4
    peaks = p + np.arange(40) / 80
    knots = np.concatenate([[0.0], peaks, peaks + 1 / 160, [at - half, at, at + half]])
    rise = (1 / 160 + spike) / half if spike else 0.0
    slopes = np.concatenate(
        [[1.0], np.full(40, -2.0), np.full(39, 2.0), [1.0, rise, -2 * rise, rise]]
    )
    net = Network(
        (
            AffineLayer(np.ones((knots.size, 1)), -knots),
            ActivationLayer("relu"),
            AffineLayer(slopes[None], np.zeros(1)),
        ),
        1,
        1,
    )
    row = ([[-1.0]], [[0.0]], [-(p + 1e-13)])  # y >= p + 1e-13
    spec = NormalizedSpec(1, 1, (Conjunct((0.0,), (1.0,), *row),))
    out = verify(net, spec, Budget())
    assert out.status is status
    if spike:
        assert abs(out.witness.x[0] - at) < half
    assert oracles.reference_search(net, spec)[0] == status.value


def test_verify_wall_clock_budget():
    rng = np.random.default_rng(23)
    from conftest import make_random_network

    net = make_random_network(rng, 2, [12, 12], 1, weight_scale=2.0)
    # threshold just below the reachable maximum makes pruning hard
    box_lo, box_hi = np.full(2, -1.0), np.full(2, 1.0)
    ys = oracles.batch_forward(net, oracles._grid(box_lo, box_hi, 101))
    thr = float(np.max(ys)) - 1e-6
    spec = NormalizedSpec(
        2,
        1,
        (
            Conjunct(box_lo, box_hi, [[-1.0]], [[0.0, 0.0]], [-thr]),
        ),
    )
    budget = Budget(wall_seconds=0.3)
    start = time.monotonic()
    out = verify(net, spec, budget)
    elapsed = time.monotonic() - start
    assert elapsed <= budget.wall_seconds + 1.0
    assert out.status in (Status.TIMEOUT, Status.VIOLATED)


def test_verify_unsupported_activation_falls_back():
    sig = Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("sigmoid")), 1, 1
    )
    sat = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -4.0))(assert (<= X_0 4.0))(assert (>= Y_0 0.9))"
    )
    out = verify(sig, sat, Budget(seed=1))
    assert out.status is Status.VIOLATED
    unsat = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -4.0))(assert (<= X_0 4.0))(assert (>= Y_0 2.0))"
    )
    out = verify(sig, unsat, Budget(wall_seconds=5.0, seed=1))
    assert out.status is Status.UNKNOWN


def test_verify_nonfinite_is_error():
    net = Network(
        (
            AffineLayer(np.array([[1e308]]), np.zeros(1)),
            AffineLayer(np.array([[1e308]]), np.zeros(1)),
        ),
        1,
        1,
    )
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 1.0))(assert (<= X_0 2.0))(assert (>= Y_0 0.0))"
    )
    out = verify(net, spec, Budget())
    assert out.status is Status.ERROR


def test_verify_midpoint_witness_beats_overflowing_bounds():
    # the bounds on y = 1e400 * relu(x) overflow, but the midpoint x = 0
    # gives y = 0, a witness, and it is probed before any bound
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
    out = verify(net, spec, Budget())
    assert out.status is Status.VIOLATED
    assert out.witness.x == (0.0,)


@pytest.mark.parametrize(
    "x_lo, x_hi, status", [(0.25, 0.35, Status.VIOLATED), (0.4, 0.45, Status.ERROR)]
)
def test_verify_bound_overflow_fails_a_batch_after_its_midpoints(x_lo, x_hi, status):
    # y = 2.5e154 * relu(-1e154 * x) on [-0.6, 0.6]: the root's bounds are
    # finite, but its left child [-0.6, 0] is active and the bounds overflow.
    # The children form one batch, so the right child's midpoint 0.3 is
    # probed before that overflow: a witness when x_lo <= 0.3 <= x_hi
    net = Network(
        (
            AffineLayer(np.array([[-1e154]]), np.zeros(1)),
            ActivationLayer("relu"),
            AffineLayer(np.array([[2.5e154]]), np.zeros(1)),
        ),
        1,
        1,
    )
    rows = (
        [[0.0], [0.0], [1.0]],  # a_y
        [[-1.0], [1.0], [0.0]],  # b_x
        [-x_lo, x_hi, 1.0],  # rhs
    )
    spec = NormalizedSpec(1, 1, (Conjunct((-0.6,), (0.6,), *rows),))
    out = verify(net, spec, Budget())
    assert out.status is status
    assert out.stats.subproblems == 3
    if status is Status.VIOLATED:
        assert out.witness.x == (0.3,)


def test_verify_empty_disjunction_holds():
    # both branches have empty boxes, so nothing can satisfy the spec
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 2.0))(assert (<= X_0 1.0))(assert (>= Y_0 0.0))"
    )
    assert len(spec.disjuncts) == 0
    assert verify(IDENTITY, spec, Budget()).status is Status.HOLDS


def test_budget_fields_must_be_positive():
    with pytest.raises(ValueError, match="wall_seconds"):
        Budget(wall_seconds=0)
    with pytest.raises(ValueError, match="pgd_steps"):
        Budget(pgd_steps=-1)
    # nan <= 0 is false: a nan wall budget never timed out
    with pytest.raises(ValueError, match="wall_seconds"):
        Budget(wall_seconds=float("nan"))
    # a float count made falsify's range() raise TypeError inside run_batch
    with pytest.raises(ValueError, match="falsifier_samples"):
        Budget(falsifier_samples=2.5)
    with pytest.raises(ValueError, match="max_subproblems"):
        Budget(max_subproblems=3.0)
    assert Budget(falsifier_samples=np.int64(5)).falsifier_samples == 5


def test_verify_agrees_with_grid_oracle():
    rng = np.random.default_rng(20210711)
    verdicts = {"sat": 0, "unsat": 0}
    for _ in range(25):
        net, spec, truth = oracles.make_decidable_instance(rng)
        out = verify(net, spec, Budget(wall_seconds=30.0, seed=3))
        if truth == oracles.SAT:
            assert out.status is Status.VIOLATED
            assert validate_witness(net, spec, out.witness)
        else:
            assert out.status is Status.HOLDS
        verdicts[truth] += 1
    # the fixture generator must exercise both outcomes
    assert verdicts["sat"] > 0 and verdicts["unsat"] > 0


def _hard_instance(rng, n_disjuncts=1):
    """A ReLU net and conjuncts whose thresholds sit near the sampled optimum.

    Each conjunct has its own box and 1-2 rows, or 1-3 rows when there are
    several conjuncts, so that their row counts differ.
    """
    from conftest import make_random_network

    n_in, n_out = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    net = make_random_network(rng, n_in, [12, 12], n_out, weight_scale=1.5)
    conjs = []
    for _ in range(n_disjuncts):
        lower = rng.uniform(-1.5, -0.2, n_in)
        upper = lower + rng.uniform(0.5, 2.0, n_in)
        xs = oracles._grid(lower, upper, 9)
        ys = oracles.batch_forward(net, xs)
        a_rows, b_rows, rhs_list = [], [], []
        for _ in range(int(rng.integers(1, 3 if n_disjuncts == 1 else 4))):
            a_y = rng.uniform(-1, 1, n_out)
            b_x = rng.uniform(-0.3, 0.3, n_in) if rng.random() < 0.3 else np.zeros(n_in)
            vals = ys @ a_y + xs @ b_x
            spread = float(np.max(vals) - np.min(vals))
            rhs = float(np.min(vals)) + rng.uniform(-0.01, 0.01) * spread
            a_rows.append(a_y)
            b_rows.append(b_x)
            rhs_list.append(rhs)
        conjs.append(Conjunct(lower, upper, a_rows, b_rows, rhs_list))
    return net, NormalizedSpec(n_in, n_out, tuple(conjs))


def _matches_reference(net, spec):
    """verify's uncapped status equals the reference's, and so do holds nodes."""
    status, _, nodes = oracles.reference_search(net, spec)
    out = verify(net, spec, Budget(wall_seconds=60.0))
    assert out.status.value == status
    if out.status is Status.HOLDS:
        assert out.stats.subproblems == nodes
    if out.witness is not None:
        assert validate_witness(net, spec, out.witness)
    return status, nodes


def test_frontier_search_matches_sequential_reference():
    # uncapped, the status does not depend on exploration order, and a spec
    # that holds has the same pruned tree, so the same node count
    rng = np.random.default_rng(11)
    statuses = []
    for _ in range(120):
        status, nodes = _matches_reference(*_hard_instance(rng))
        statuses.append((status, nodes > 2 * _FRONTIER))
    # both outcomes, and holds whose trees span several frontier steps
    assert sum(s == "violated" for s, _ in statuses) >= 5
    assert sum(s == ("holds", True) for s in statuses) >= 5


def test_one_frontier_over_disjuncts_matches_sequential_reference():
    # 2-3 disjuncts of 1-3 rows share one frontier, the shorter ones padded
    # with inert rows; the reference searches them one after another
    rng = np.random.default_rng(12)
    statuses, unequal = [], 0
    for _ in range(40):
        net, spec = _hard_instance(rng, int(rng.integers(2, 4)))
        unequal += len({c.rhs.size for c in spec.disjuncts}) > 1
        statuses.append(_matches_reference(net, spec)[0])
    assert statuses.count("violated") >= 5 and statuses.count("holds") >= 5
    assert unequal >= 20


def test_prop_2_holds_within_a_node_budget():
    # ACAS prop_2 on an ACAS-shaped net: the forward-substituted bound
    # timed out past 70k nodes, back-substituted rows prune it in ~7.4k
    from conftest import make_random_network

    prop = Path(__file__).parent / "fixtures" / "acasxu" / "props" / "prop_2.vnnlib"
    net = make_random_network(np.random.default_rng(0), 5, [50] * 6, 5)
    budget = Budget(max_subproblems=10_000, wall_seconds=60)
    out = verify(net, _spec(prop.read_text()), budget)
    assert out.status is Status.HOLDS


def test_verify_multiconstraint_conjunct_holds():
    # AND of two output constraints that are individually satisfiable but
    # jointly unsatisfiable: y in [0, 1] cannot be both >= 0.8 and <= 0.2
    spec = NormalizedSpec(
        1,
        1,
        (
            Conjunct(
                (0.0,),
                (1.0,),
                [[-1.0], [1.0]],  # y >= 0.8, y <= 0.2
                [[0.0], [0.0]],
                [-0.8, 0.2],
            ),
        ),
    )
    out = verify(IDENTITY, spec, Budget())
    assert out.status is Status.HOLDS


def test_verify_deterministic_outcome():
    a = verify(RELU_NET, VIOLATED_SPEC, Budget(seed=7))
    b = verify(RELU_NET, VIOLATED_SPEC, Budget(seed=7))
    assert a.status == b.status
    assert a.witness.x == b.witness.x
    assert a.stats.subproblems == b.stats.subproblems


# ---------------------------------------------------------------------------
# Witness validation and file format


def test_validate_witness_examples():
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))(assert (>= Y_0 0.5))"
    )
    assert validate_witness(RELU_NET, spec, Witness((0.75,))) is True
    assert validate_witness(RELU_NET, spec, Witness((0.4,))) is False


def test_validate_witness_claimed_output_mismatch():
    spec = VIOLATED_SPEC
    w = Witness((0.75,), (0.75 + 1e-3,))
    with pytest.warns(UserWarning, match="claimed-output mismatch"):
        assert validate_witness(RELU_NET, spec, w) is False
    # matching claim passes silently
    assert validate_witness(RELU_NET, spec, Witness((0.75,), (0.75,)))


def test_validate_witness_dimension_mismatch():
    with pytest.raises(ValueError, match="witness has 2 inputs"):
        validate_witness(RELU_NET, VIOLATED_SPEC, Witness((0.5, 0.5)))
    with pytest.raises(ValueError, match="claims 2 outputs"):
        validate_witness(RELU_NET, VIOLATED_SPEC, Witness((0.5,), (0.5, 0.5)))


def test_validate_witness_relative_tolerance_scales():
    big = Network((AffineLayer(np.array([[1e6]]), np.zeros(1)),), 1, 1)
    spec = _spec(
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 500000.0))"
    )
    # y = 5e5 - 0.2: absolute miss of 0.2 but within 1e-6 relative
    x = (5e5 - 0.2) / 1e6
    assert validate_witness(big, spec, Witness((x,))) is True


def test_validate_witness_matches_scalar_reference():
    # every disjunct at once on the padded rows, against the scalar loop, on
    # specs with no disjuncts or disjuncts with no rows, magnitudes from 1e-3
    # to 1e6, and a bound or row missed by 0.5-1.5 slacks
    slack = oracles._relative_slack
    rng = np.random.default_rng(61)
    seen = set()  # (disjuncts, rows of the last, what is near its edge, answer)
    for _ in range(10_000):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        scale = 10.0 ** rng.uniform(-3, 6)
        net = Network(
            (AffineLayer(rng.uniform(-1, 1, (m, n)), scale * rng.uniform(-1, 1, m)),), n, m
        )
        x = scale * rng.uniform(-1, 1, n)
        y = forward(net, x)
        disjuncts, edge = [], None
        for _ in range(int(rng.integers(0, 4))):
            lo = x - scale * rng.uniform(0, 1, n)
            hi = x + scale * rng.uniform(0, 1, n)
            edge, i, t = None, int(rng.integers(n)), rng.uniform(0.5, 1.5)
            if rng.random() < 0.2:  # x_i just under lo or just over hi
                edge = "box"
                # the far bound follows where needed: a spec's box is never inverted
                if rng.random() < 0.5:
                    lo[i] = x[i] + t * slack(x[i], hi[i])
                    hi[i] = max(hi[i], lo[i])
                else:
                    hi[i] = x[i] - t * slack(x[i], lo[i])
                    lo[i] = min(lo[i], hi[i])
            a_rows, b_rows, rhs_list = [], [], []
            for _ in range(int(rng.integers(0, 3))):
                a_y = rng.uniform(-1, 1, m)
                b_x = rng.uniform(-1, 1, n) if rng.random() < 0.5 else np.zeros(n)
                lhs = float(a_y @ y + b_x @ x)
                if edge is None and rng.random() < 0.3:  # lhs just over rhs
                    edge, rhs = "row", lhs - t * slack(lhs)
                else:
                    rhs = lhs + scale * rng.uniform(-0.1, 1)
                a_rows.append(a_y)
                b_rows.append(b_x)
                rhs_list.append(rhs)
            a_rows, b_rows = np.reshape(a_rows, (-1, m)), np.reshape(b_rows, (-1, n))
            disjuncts.append(Conjunct(lo, hi, a_rows, b_rows, rhs_list))
        spec = NormalizedSpec(n, m, tuple(disjuncts))
        want = oracles.witness_rule_reference(spec, x, y)
        assert validate_witness(net, spec, Witness(tuple(x))) == want
        seen.add((len(disjuncts), len(rhs_list) if disjuncts else None, edge, want))
    assert (0, None, None, False) in seen
    # a lone disjunct without rows, then with a row, held or missed at its edge
    for shape in ((1, 0, "box"), (1, 1, "box"), (1, 1, "row"), (1, 2, "row")):
        assert {shape + (True,), shape + (False,)} <= seen, shape


def test_witness_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = tuple(float(v) for v in rng.standard_normal(3) * 10.0 ** rng.integers(-8, 8))
        y = tuple(float(v) for v in rng.standard_normal(2))
        w = Witness(x, y)
        path = tmp_path / "w.txt"
        write_witness(w, path)
        back = read_witness(path)
        assert back.x == w.x  # bit-exact through 17 significant digits
        assert back.y_claimed == w.y_claimed


def test_witness_format_layout():
    text = format_witness(Witness((0.5, -1.0), (2.0,)))
    assert text == "X_0 0.5\nX_1 -1\nY_0 2\n"
    w = parse_witness(text)
    assert w.x == (0.5, -1.0)
    assert w.y_claimed == (2.0,)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.tuples(
            st.sampled_from(["X", "Y", "Z", "x", "", "X_", "Y_"]),
            st.sampled_from(["_0", "_1", "_2", "_", "_-1", "_a", "_1_0", "_\u0663", ""]),
            st.sampled_from([" ", "\t", "  ", ""]),
            st.text(max_size=6) | st.sampled_from(["1.5", "-0", "nan", "1e999", "0x1p3"]),
        ).map("".join),
        max_size=6,
    ),
    noise=st.text(max_size=8),
)
def test_witness_parse_raises_only_value_error(lines, noise):
    try:
        w = parse_witness("\n".join(lines) + noise)
    except ValueError:
        return
    assert w.x and all(isinstance(v, float) for v in w.x)


def test_witness_parse_errors():
    with pytest.raises(ValueError, match="bad witness line"):
        parse_witness("X_0 1.0 extra\n")
    with pytest.raises(ValueError, match="expected index 1"):
        parse_witness("X_0 1.0\nX_2 2.0\n")
    with pytest.raises(ValueError, match="no input values"):
        parse_witness("\n")
