import warnings

import numpy as np
import pytest

from veribench.bounds import (
    _bound,
    _meet,
    _plan,
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

from conftest import make_random_network


def _halves(y):
    """Stacked bounds [lo | -hi] (..., 2w) as the pair lo, hi."""
    lo, neg_hi = np.split(y, 2, axis=-1)
    return lo, -neg_hi


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
        for x in rng.uniform(box.lower, box.upper, size=(500, box.dim)):
            y = forward(net, x)
            assert np.all(y >= out.lower - 1e-9)
            assert np.all(y <= out.upper + 1e-9)


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
def test_interval_bounds_answer_on_a_point_box(kind):
    # the stacked product rounds lower and upper apart, so on a point box
    # lower may exceed upper by an ulp; that used to raise "box has lower > upper"
    rng = np.random.default_rng(11)
    w, x = rng.normal(size=(1, 3)), rng.normal(size=3)
    nets = [Network((AffineLayer(w, np.zeros(1)),), 3, 1)]  # one layer suffices
    points = [x]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        nets.append(make_random_network(rng, 3, [6, 6], 2, activation=kind))
        points.append(rng.normal(size=3))
    for net, x in zip(nets, points):
        out = interval_bounds(net, Box(x, x))[-1]
        y = forward(net, x)
        np.testing.assert_allclose(out.lower, y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.upper, y, rtol=1e-12, atol=1e-12)


def test_bounds_answer_through_a_layer_of_width_zero():
    # a crossing check over no neurons has no gap to reduce; the core's
    # reduction used to raise a bare ValueError there
    net = Network(
        (AffineLayer(np.zeros((0, 1)), np.zeros(0)), AffineLayer(np.zeros((1, 0)), [2.0])), 1, 1
    )
    box = Box([0.0], [1.0])
    for out in (interval_bounds(net, box)[-1], affine_bounds(net, box).output_box):
        assert (out.lower[0], out.upper[0]) == (2.0, 2.0)


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
    for x in rng.uniform(box.lower, box.upper, size=(50, box.dim)):
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
        for x in rng.uniform(box.lower, box.upper, size=(100, box.dim)):
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


def test_affine_bounds_of_a_sigmoid_is_its_interval_image():
    net = Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("sigmoid")), 1, 1
    )
    box = Box([0.0], [1.0])
    ab = affine_bounds(net, box)
    ib = interval_bounds(net, box)[-1]
    # the constant lines f(l) and f(u): no input coefficient
    assert (ab.lower_weight == 0.0).all() and (ab.upper_weight == 0.0).all()
    assert ab.lower_const[0] == ib.lower[0] == 0.5
    assert ab.upper_const[0] == ib.upper[0] == forward(net, [1.0])[0]
    assert (ab.output_box.lower == ib.lower).all() and (ab.output_box.upper == ib.upper).all()


@pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
def test_monotone_activation_bounds_sound_and_nested(kind):
    # criterion 06 on sigmoid and tanh nets, some with a ReLU layer after
    # them, over boxes whose pre-activation ranges lie in either tail, cross
    # 0 or have a width near 0; the rows are the core's, batched over boxes
    rng = np.random.default_rng(53)
    seen = set()
    for _ in range(40):
        n_in, n_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        net = make_random_network(rng, n_in, [5, 4], n_out, activation=kind)
        if rng.random() < 0.3:
            layers = list(net.layers)
            layers[3] = ActivationLayer("relu")
            net = Network(tuple(layers), n_in, n_out)
        centre = rng.uniform(-6.0, 6.0, (6, n_in))
        radius = np.array([1e-13, 0.2, 2.0])[rng.integers(0, 3, (6, 1))] * np.ones(n_in)
        lo, hi = centre - radius, centre + radius
        a_y, b_x = rng.uniform(-1, 1, (3, n_out)), rng.uniform(-1, 1, (3, n_in))
        _, _, lb, _ = _bound(_plan(net), lo, hi, a_y, b_x)
        for i in range(len(lo)):
            box = Box(lo[i], hi[i])
            pre = interval_bounds(net, box)[1]
            seen |= {
                "low tail" if (pre.upper < -4.0).any() else None,
                "high tail" if (pre.lower > 4.0).any() else None,
                "across 0" if ((pre.lower < 0.0) & (pre.upper > 0.0)).any() else None,
                "width near 0" if (pre.upper - pre.lower < 1e-11).any() else None,
            }
            ab = affine_bounds(net, box)
            ib = interval_bounds(net, box)[-1]
            out = ab.output_box
            # nested inside the interval result, exactly
            assert np.all(out.lower >= ib.lower) and np.all(out.upper <= ib.upper)
            xs = np.vstack([rng.uniform(lo[i], hi[i], size=(300, n_in)), lo[i], hi[i]])
            ys = forward(net, xs)
            assert np.all(ys >= out.lower - 1e-9) and np.all(ys <= out.upper + 1e-9)
            assert np.all(xs @ ab.lower_weight.T + ab.lower_const <= ys + 1e-9)
            assert np.all(xs @ ab.upper_weight.T + ab.upper_const >= ys - 1e-9)
            vals = ys @ a_y.T + xs @ b_x.T
            assert np.all(vals.min(axis=0) >= lb[i] - 1e-9)
    assert seen >= {"low tail", "high tail", "across 0", "width near 0"}


def test_affine_bounds_constant_that_overflows_is_an_error():
    # on the point box at 2**600, the forms (2**500, -2**500) and the
    # bounds are finite, but the constant (2**500 - 2**500) . 2**600 is not
    net = Network(
        (
            AffineLayer(np.array([[2.0**300, -(2.0**300)]]), np.zeros(1)),
            AffineLayer(np.array([[2.0**200]]), np.zeros(1)),
        ),
        2,
        1,
    )
    box = Box([2.0**600] * 2, [2.0**600] * 2)
    assert interval_bounds(net, box)[-1].upper[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="non-finite"):
            affine_bounds(net, box)


def test_affine_bounds_finite_where_the_centre_sum_or_the_width_overflows():
    # y = relu(1e-300 x) + 1e-3: lo + hi overflows on the first box and
    # hi - lo on the second, yet each box's centre and radius are finite
    net = Network(
        (
            AffineLayer(np.array([[1e-300]]), np.zeros(1)),
            ActivationLayer("relu"),
            AffineLayer(np.eye(1), np.array([1e-3])),
        ),
        1,
        1,
    )
    for lo, hi in ((1e308, 1.7e308), (-1e308, 1e308)):
        ab = affine_bounds(net, Box([lo], [hi]))
        for part in (ab.lower_weight, ab.lower_const, ab.upper_weight, ab.upper_const):
            assert np.isfinite(part).all()
        out = ab.output_box
        for x in (lo, 0.5 * lo + 0.5 * hi, hi):
            assert out.lower[0] <= forward(net, [x])[0] <= out.upper[0]


def test_chord_where_the_preactivation_gap_overflows():
    # pre-activation bounds -1e308 and 1e308 are finite, but l - u is not:
    # the chord's slope read 0 there, an upper bound of -0.0 for an output
    # that reaches 1e8 at x = 1
    net = Network(
        (
            AffineLayer(np.array([[1e308]]), np.zeros(1)),
            ActivationLayer("relu"),
            AffineLayer(np.array([[1e-300]]), np.zeros(1)),
        ),
        1,
        1,
    )
    ab = affine_bounds(net, Box([-1.0], [1.0]))
    assert ab.output_box.upper[0] == forward(net, [1.0])[0] == 1e8
    assert ab.upper_weight[0, 0] == ab.upper_const[0] == 5e7


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
        for x in rng.uniform(box.lower, box.upper, size=(200, box.dim)):
            val = float(a_y @ forward(net, x) + b_x @ x)
            assert val >= lb - 1e-9


def test_meet_collapses_crossings_and_rejects_non_finite_bounds():
    # stacked [lo | -hi]; the other operand -inf leaves y as it is.  Every
    # caller of the core runs under this error state, so overflow is not a
    # warning
    def meet(y):
        y = np.array(y)
        with np.errstate(over="ignore", invalid="ignore"):
            return _meet(y, np.full_like(y, -np.inf))

    # lo = 1.0 > hi = 0.9 is rounding noise: both become the midpoint
    np.testing.assert_array_equal(meet([[1.0, -0.9]]), [[0.95, -0.95]], strict=True)
    nan, inf = np.nan, np.inf
    for bad in ([[nan, 0.0]], [[0.0, nan]], [[inf, -inf]], [[-inf, 0.0]], [[0.0, -inf]]):
        with pytest.raises(ArithmeticError):
            meet(bad)
    # lo = -1e308, hi = 1e308: lo - hi overflows, yet every bound is finite
    wide = [[-1e308, -1e308]]
    np.testing.assert_array_equal(meet(wide), wide, strict=True)


def test_batched_rows_match_single_boxes():
    # the batched core gives every box the bounds it gets alone, which are
    # what affine_bounds and constraint_lower_bound return; with rows per
    # box, box i's rows (here the shared rows rolled by i) are its own
    def close(batched, single):
        np.testing.assert_array_equal(batched, single, strict=True)

    def rolled(rows, i):
        return np.roll(rows, i, axis=0)

    rng = np.random.default_rng(31)
    for _ in range(10):
        n_in, n_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        net = make_random_network(rng, n_in, [20, 20], n_out)
        plan = _plan(net)
        k, c = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        lo = rng.uniform(-1, 0, (k, n_in))
        hi = lo + rng.uniform(0.01, 1, (k, n_in)) ** 3
        a_y, b_x = rng.uniform(-1, 1, (c, n_out)), rng.uniform(-1, 1, (c, n_in))
        z, y, lb, coef = _bound(plan, lo, hi, a_y, b_x)
        per_box = (np.stack([rolled(r, i) for i in range(k)]) for r in (a_y, b_x))
        z_box, y_box, lb_box, coef_box = _bound(plan, lo, hi, *per_box)
        close(z_box, z)
        close(y_box, y)
        for i in range(k):
            one = slice(i, i + 1)
            z1, y1, lb1, coef1 = _bound(plan, lo[one], hi[one], a_y, b_x)
            close(z[one], z1)
            close(y[one], y1)
            close(lb[one], lb1)
            close(coef[one], coef1)
            _, _, lb1, coef1 = _bound(plan, lo[one], hi[one], rolled(a_y, i), rolled(b_x, i))
            close(lb_box[one], lb1)
            close(coef_box[one], coef1)

            ab = affine_bounds(net, Box(lo[i], hi[i]))
            weight = z[i, :, :n_in]
            const = z[i, :, n_in] - weight @ (0.5 * lo[i] + 0.5 * hi[i])
            close(weight, np.vstack([ab.lower_weight, -ab.upper_weight]))
            close(const, np.concatenate([ab.lower_const, -ab.upper_const]))
            close(_halves(y[i]), (ab.output_box.lower, ab.output_box.upper))
            for j in range(c):
                close(lb[i, j], constraint_lower_bound(ab, a_y[j], b_x[j]))


def _acas_rows(rng):
    """An ACAS-shaped 5->50x6->5 net, constraint rows and boxes in [-1, 1]^5.

    Half the boxes are full-sized, half are 1/64 as wide around a random
    centre, where the bounds are nearly tight.
    """
    net = make_random_network(rng, 5, [50] * 6, 5)
    a_y, b_x = rng.uniform(-1, 1, (3, 5)), rng.uniform(-0.2, 0.2, (3, 5))
    centre = rng.uniform(-0.5, 0.5, (8, 5))
    half = rng.uniform(0.1, 0.5, (8, 5))
    half[4:] /= 64
    return net, a_y, b_x, centre - half, centre + half


def test_back_substituted_rows_sound_by_sampling():
    rng = np.random.default_rng(41)
    for _ in range(4):
        net, a_y, b_x, lo, hi = _acas_rows(rng)
        _, _, lb, coef = _bound(_plan(net), lo, hi, a_y, b_x)
        assert coef.shape == (len(lo), len(a_y), 5)
        for i in range(len(lo)):
            xs = rng.uniform(lo[i], hi[i], size=(400, lo.shape[1]))
            xs = np.vstack([xs, lo[i], hi[i]])
            vals = forward(net, xs) @ a_y.T + xs @ b_x.T
            assert np.all(vals.min(axis=0) >= lb[i] - 1e-9)


def test_back_substitution_never_looser_than_forward_forms():
    # forward substitution: put the public forward forms into each row and
    # keep the better of that and the interval bound through the outputs
    rng = np.random.default_rng(43)
    tighter = 0
    for _ in range(3):
        net, a_y, b_x, lo, hi = _acas_rows(rng)
        for i in range(len(lo)):
            ab = affine_bounds(net, Box(lo[i], hi[i]))
            out = ab.output_box
            for a, b in zip(a_y, b_x):
                ap, an = np.maximum(a, 0.0), np.minimum(a, 0.0)
                row = ap @ ab.lower_weight + an @ ab.upper_weight + b
                const = ap @ ab.lower_const + an @ ab.upper_const
                forms = np.where(row > 0, lo[i], hi[i]) @ row + const
                bx = np.where(b > 0, lo[i], hi[i]) @ b
                forward_lb = max(forms, ap @ out.lower + an @ out.upper + bx)
                back_lb = constraint_lower_bound(ab, a, b)
                assert back_lb >= forward_lb - 1e-12 * max(1.0, abs(forward_lb))
                tighter += back_lb > forward_lb + 1e-9
    assert tighter > 0


def test_affine_bounds_refuses_a_box_of_another_dimension():
    with pytest.raises(ValueError, match="box dimension 2 != network inputs 1") as info:
        affine_bounds(_identity_relu(), Box([0.0, 0.0], [1.0, 1.0]))
    assert info.type is ValueError
