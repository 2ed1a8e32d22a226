import numpy as np
import pytest

from veribench.bounds import (
    UnsupportedActivationError,
    affine_bounds,
    constraint_lower_bound,
    interval_bounds,
)
from veribench.network import (
    ActivationLayer,
    AffineLayer,
    Box,
    Network,
    forward,
)
from veribench.verifier import refine_output_box

from conftest import make_random_network


def _identity_relu() -> Network:
    return Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("relu")), 1, 1
    )


def test_interval_identity_relu():
    out = interval_bounds(_identity_relu(), Box([-1.0], [2.0]))[-1]
    assert out.lower[0] == 0.0
    assert out.upper[0] == 2.0


def test_interval_affine_2x_plus_1():
    net = Network((AffineLayer(np.array([[2.0]]), np.array([1.0])),), 1, 1)
    out = interval_bounds(net, Box([0.0], [1.0]))[-1]
    assert out.lower[0] == 1.0
    assert out.upper[0] == 3.0


def test_interval_dimension_mismatch():
    with pytest.raises(ValueError, match="box dimension"):
        interval_bounds(_identity_relu(), Box([0.0, 0.0], [1.0, 1.0]))


def test_interval_monotone_activations():
    net = Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("sigmoid")), 1, 1
    )
    out = interval_bounds(net, Box([-1.0], [1.0]))[-1]
    assert out.lower[0] == pytest.approx(1 / (1 + np.e))
    assert out.upper[0] == pytest.approx(np.e / (1 + np.e))


def test_interval_sampling_soundness():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_in = int(rng.integers(1, 5))
        n_out = int(rng.integers(1, 4))
        net = make_random_network(rng, n_in, [8, 6], n_out)
        lo = rng.uniform(-2, 0, n_in)
        box = Box(lo, lo + rng.uniform(0.1, 3, n_in))
        out = interval_bounds(net, box)[-1]
        for x in box.sample(rng, 500):
            y = forward(net, x)
            assert np.all(y >= out.lower - 1e-9)
            assert np.all(y <= out.upper + 1e-9)


# -- affine relaxation --------------------------------------------------------


def test_chord_on_symmetric_preactivation():
    # pre-activation range [-1, 1]: upper chord z/2 + 1/2
    ab = affine_bounds(_identity_relu(), Box([-1.0], [1.0]))
    assert ab.upper_weight[0, 0] == pytest.approx(0.5)
    assert ab.upper_const[0] == pytest.approx(0.5)
    assert (ab.upper_weight @ [1.0] + ab.upper_const)[0] == pytest.approx(1.0)
    # |l| >= u picks the zero lower relaxation
    assert ab.lower_weight[0, 0] == 0.0
    assert ab.lower_const[0] == 0.0


def test_identity_lower_kept_when_positive_side_dominates():
    ab = affine_bounds(_identity_relu(), Box([-0.5], [1.0]))
    assert ab.lower_weight[0, 0] == 1.0
    assert ab.lower_const[0] == 0.0


def test_purely_affine_network_is_exact():
    rng = np.random.default_rng(5)
    w1 = rng.standard_normal((3, 2))
    b1 = rng.standard_normal(3)
    w2 = rng.standard_normal((2, 3))
    b2 = rng.standard_normal(2)
    net = Network((AffineLayer(w1, b1), AffineLayer(w2, b2)), 2, 2)
    box = Box([-1.0, 0.0], [1.0, 2.0])
    ab = affine_bounds(net, box)
    np.testing.assert_allclose(ab.lower_weight, ab.upper_weight)
    np.testing.assert_allclose(ab.lower_const, ab.upper_const)
    np.testing.assert_allclose(ab.lower_weight, w2 @ w1)
    for x in box.sample(rng, 50):
        lower_at = ab.lower_weight @ x + ab.lower_const
        np.testing.assert_allclose(lower_at, forward(net, x), rtol=1e-12)


def test_affine_bounds_sound_and_nested():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n_in = int(rng.integers(1, 4))
        net = make_random_network(rng, n_in, [6], int(rng.integers(1, 3)))
        lo = rng.uniform(-1, 0, n_in)
        box = Box(lo, lo + rng.uniform(0.1, 2, n_in))
        ab = affine_bounds(net, box)
        ib = interval_bounds(net, box)[-1]
        conc = ab.output_box
        # nested inside the interval result
        assert np.all(conc.lower >= ib.lower - 1e-12)
        assert np.all(conc.upper <= ib.upper + 1e-12)
        # sound for sampled points, both symbolically and concretely
        for x in box.sample(rng, 100):
            y = forward(net, x)
            assert np.all(ab.lower_weight @ x + ab.lower_const <= y + 1e-9)
            assert np.all(ab.upper_weight @ x + ab.upper_const >= y - 1e-9)
            assert np.all(y >= conc.lower - 1e-9)
            assert np.all(y <= conc.upper + 1e-9)


def test_degenerate_preactivation_range():
    # first layer collapses the box to the single pre-activation value 0
    net = Network(
        (
            AffineLayer(np.zeros((1, 1)), np.zeros(1)),
            ActivationLayer("relu"),
            AffineLayer(np.eye(1), np.zeros(1)),
        ),
        1,
        1,
    )
    ab = affine_bounds(net, Box([-1.0], [1.0]))
    conc = ab.output_box
    assert conc.lower[0] == pytest.approx(0.0, abs=1e-11)
    assert conc.upper[0] == pytest.approx(0.0, abs=1e-11)


def test_affine_bounds_reject_sigmoid():
    net = Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("sigmoid")), 1, 1
    )
    with pytest.raises(UnsupportedActivationError):
        affine_bounds(net, Box([0.0], [1.0]))


def test_constraint_lower_bound_sound():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n_in = int(rng.integers(1, 3))
        n_out = int(rng.integers(1, 3))
        net = make_random_network(rng, n_in, [5], n_out)
        lo = rng.uniform(-1, 0, n_in)
        box = Box(lo, lo + rng.uniform(0.5, 1.5, n_in))
        ab = affine_bounds(net, box)
        a_y = rng.uniform(-1, 1, n_out)
        b_x = rng.uniform(-1, 1, n_in)
        lb = constraint_lower_bound(ab, a_y, b_x)
        for x in box.sample(rng, 200):
            val = float(a_y @ forward(net, x) + b_x @ x)
            assert val >= lb - 1e-9


def test_split_bounds_monotone():
    # union of children's node bounds stays inside the parent's
    rng = np.random.default_rng(19)
    for _ in range(100):
        n_in = int(rng.integers(1, 3))
        net = make_random_network(rng, n_in, [6, 4], int(rng.integers(1, 3)))
        lo = rng.uniform(-1, 0, n_in)
        box = Box(lo, lo + rng.uniform(0.5, 2, n_in))
        _, parent = refine_output_box(net, box)
        dim = int(np.argmax(box.width))
        left, right = box.split(dim)
        _, lb = refine_output_box(net, left, parent)
        _, rb = refine_output_box(net, right, parent)
        union_lo = np.minimum(lb.lower, rb.lower)
        union_hi = np.maximum(lb.upper, rb.upper)
        assert np.all(union_lo >= parent.lower - 1e-12)
        assert np.all(union_hi <= parent.upper + 1e-12)
