import struct

import numpy as np
import pytest

from veribench import _onnxproto as wire
from veribench.network import (
    ActivationLayer,
    AffineLayer,
    Network,
    NetworkError,
    ReshapeLayer,
    forward,
    gen_trivial_network,
    load_network,
    network_to_onnx_bytes,
    save_network,
)

# ---------------------------------------------------------------------------
# Wire codec against hand-assembled byte strings (independent of the writer)

GOLDEN_ATTR = b"\x0a\x05alpha\x15\x00\x00\x80\x3f\xa0\x01\x01"


def test_decode_attribute_golden_bytes():
    msg = wire.decode_message("Attribute", GOLDEN_ATTR)
    assert msg == {"name": "alpha", "f": 1.0, "type": wire.ATTR_FLOAT}


def test_encode_attribute_golden_bytes():
    out = wire.encode_message(
        "Attribute", {"name": "alpha", "f": 1.0, "type": wire.ATTR_FLOAT}
    )
    assert out == GOLDEN_ATTR


def test_dim_and_shape_golden_bytes():
    assert wire.encode_message("Dim", {"dim_value": 5}) == b"\x08\x05"
    shape = b"\x0a\x02\x08\x01\x0a\x02\x08\x02"
    assert wire.decode_message("Shape", shape) == {
        "dim": [{"dim_value": 1}, {"dim_value": 2}]
    }
    assert wire.encode_message("Shape", {"dim": [{"dim_value": 1}, {"dim_value": 2}]}) == shape


def test_tensor_golden_bytes():
    raw = struct.pack("<2f", 1.5, -2.0)
    golden = b"\x0a\x01\x02" + b"\x10\x01" + b"\x42\x01b" + b"\x4a\x08" + raw
    msg = wire.decode_message("Tensor", golden)
    assert msg == {"dims": [2], "data_type": 1, "name": "b", "raw_data": raw}
    assert wire.encode_message("Tensor", msg) == golden


def test_unpacked_repeated_ints_accepted():
    # dims written one varint record per entry instead of packed
    msg = wire.decode_message("Tensor", b"\x08\x01\x08\x03\x10\x01")
    assert msg == {"dims": [1, 3], "data_type": 1}


def test_unknown_fields_skipped():
    # GraphProto doc_string (field 10, length-delimited) is not in the subset
    body = b"\x12\x03net" + b"\x52\x05hello"
    assert wire.decode_message("Graph", body) == {"name": "net"}


def test_negative_int64_varint():
    enc = wire.encode_message("Dim", {"dim_value": -1})
    assert enc == b"\x08" + b"\xff" * 9 + b"\x01"
    assert wire.decode_message("Dim", enc) == {"dim_value": -1}


def test_truncated_payload_rejected():
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message("Attribute", GOLDEN_ATTR[:-6])


def _golden_gemm_model() -> bytes:
    """y = 2x + 1 as one Gemm node, assembled field by field."""
    w_tensor = (
        b"\x0a\x02\x01\x01" + b"\x10\x01" + b"\x42\x01W"
        + b"\x4a\x04" + struct.pack("<f", 2.0)
    )
    b_tensor = (
        b"\x0a\x01\x01" + b"\x10\x01" + b"\x42\x01B"
        + b"\x4a\x04" + struct.pack("<f", 1.0)
    )
    attr = b"\x0a\x06transB" + b"\x18\x01" + b"\xa0\x01\x02"
    node = (
        b"\x0a\x01x\x0a\x01W\x0a\x01B"
        + b"\x12\x01y"
        + b"\x22\x04Gemm"
        + b"\x2a" + bytes([len(attr)]) + attr
    )
    tensor_type = b"\x08\x01" + b"\x12\x08" + b"\x0a\x02\x08\x01\x0a\x02\x08\x01"
    vtype = b"\x0a" + bytes([len(tensor_type)]) + tensor_type
    vi_x = b"\x0a\x01x" + b"\x12" + bytes([len(vtype)]) + vtype
    vi_y = b"\x0a\x01y" + b"\x12" + bytes([len(vtype)]) + vtype
    graph = (
        b"\x0a" + bytes([len(node)]) + node
        + b"\x12\x03net"
        + b"\x2a" + bytes([len(w_tensor)]) + w_tensor
        + b"\x2a" + bytes([len(b_tensor)]) + b_tensor
        + b"\x5a" + bytes([len(vi_x)]) + vi_x
        + b"\x62" + bytes([len(vi_y)]) + vi_y
    )
    return (
        b"\x08\x07"
        + b"\x3a" + bytes([len(graph)]) + graph
        + b"\x42\x02\x10\x0d"
    )


def test_golden_model_roundtrips_through_codec():
    golden = _golden_gemm_model()
    model = wire.decode_model(golden)
    assert model["ir_version"] == 7
    assert model["opset_import"] == [{"version": 13}]
    assert model["graph"]["node"][0]["op_type"] == "Gemm"
    assert wire.encode_model(model) == golden


def test_load_golden_model_computes_2x_plus_1():
    net = load_network(_golden_gemm_model())
    assert net.n_inputs == 1 and net.n_outputs == 1
    assert net.precision == "float32"
    assert forward(net, [0.5])[0] == 2.0
    assert forward(net, [1.0])[0] == 3.0


# ---------------------------------------------------------------------------
# Loader behavior


def _simple_net() -> Network:
    w1 = np.array([[1.0, -2.0], [0.5, 0.25]])
    b1 = np.array([0.125, -1.0])
    w2 = np.array([[3.0, -1.0]])
    b2 = np.array([0.5])
    return Network(
        (AffineLayer(w1, b1), ActivationLayer("relu"), AffineLayer(w2, b2)),
        2,
        1,
    )


def _affine_layers(net) -> list:
    return [l for l in net.layers if isinstance(l, AffineLayer)]


@pytest.mark.parametrize("style", ["gemm", "matmul"])
def test_roundtrip_both_styles(style):
    net = _simple_net()
    loaded = load_network(network_to_onnx_bytes(net, style=style))
    assert loaded.n_inputs == 2 and loaded.n_outputs == 1
    assert len(_affine_layers(loaded)) == 2  # MatMul+Add fused into one Affine
    for a, b in zip(_affine_layers(net), _affine_layers(loaded)):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-2, 2, size=(20, 2)):
        np.testing.assert_array_equal(forward(net, x), forward(loaded, x))


def test_float64_weights_roundtrip_exactly(net_factory):
    rng = np.random.default_rng(42)
    net = net_factory(rng, 3, [7, 5], 2, precision="float64")
    loaded = load_network(network_to_onnx_bytes(net))
    assert loaded.precision == "float64"
    for a, b in zip(_affine_layers(net), _affine_layers(loaded)):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_float32_precision_recorded(net_factory):
    rng = np.random.default_rng(43)
    net = net_factory(rng, 2, [4], 2, precision="float32")
    loaded = load_network(network_to_onnx_bytes(net))
    assert loaded.precision == "float32"


def test_acasxu_shaped_network_structure(tmp_path, net_factory):
    rng = np.random.default_rng(1)
    net = net_factory(rng, 5, [50] * 6, 5)
    path = tmp_path / "acas_like.onnx"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.n_inputs == 5
    assert loaded.n_outputs == 5
    assert sum(isinstance(l, ActivationLayer) for l in loaded.layers) == 6
    hidden_neurons = sum(a.out_width for a in _affine_layers(loaded)[:-1])
    assert hidden_neurons == 300
    assert loaded.name == "acas_like"


def test_unsupported_operator_conv():
    model = wire.decode_model(_golden_gemm_model())
    model["graph"]["node"][0]["op_type"] = "Conv"
    with pytest.raises(NetworkError, match="unsupported operator Conv"):
        load_network(wire.encode_model(model))


def test_residual_add_rejected():
    # y = relu(x) + x joins two computed values
    net = _simple_net()
    model = wire.decode_model(network_to_onnx_bytes(net))
    nodes = model["graph"]["node"]
    nodes.append(
        {
            "input": [nodes[-1]["output"][0], "input"],
            "output": ["res"],
            "op_type": "Add",
        }
    )
    model["graph"]["output"][0]["name"] = "res"
    with pytest.raises(NetworkError, match="branching graphs are unsupported"):
        load_network(wire.encode_model(model))


def test_two_consumers_rejected():
    net = _simple_net()
    model = wire.decode_model(network_to_onnx_bytes(net))
    nodes = model["graph"]["node"]
    # second branch reading the graph input after the path has moved on
    nodes.append({"input": ["input"], "output": ["side"], "op_type": "Relu"})
    model["graph"]["output"][0]["name"] = "side"
    with pytest.raises(NetworkError, match="unsupported|off the single data path"):
        load_network(wire.encode_model(model))


def test_shape_mismatch_rejected():
    model = wire.decode_model(_golden_gemm_model())
    # declared output claims width 3
    dims = model["graph"]["output"][0]["type"]["tensor_type"]["shape"]["dim"]
    dims[1]["dim_value"] = 3
    with pytest.raises(NetworkError, match="declared output width 3"):
        load_network(wire.encode_model(model))


def test_nonfloat_weight_rejected():
    model = wire.decode_model(_golden_gemm_model())
    w = model["graph"]["initializer"][0]
    w["data_type"] = wire.INT64
    w["raw_data"] = struct.pack("<q", 2)
    with pytest.raises(NetworkError, match="non-float tensor 'W'"):
        load_network(wire.encode_model(model))


def _invalid_utf8_name(model):
    model["producer_name"] = b"\xff"


def _ragged_raw_data(model):
    w = model["graph"]["initializer"][0]
    w["raw_data"] = w["raw_data"][:-1]


@pytest.mark.parametrize("corrupt", [_invalid_utf8_name, _ragged_raw_data])
def test_malformed_field_is_network_error(corrupt):
    model = wire.decode_model(_golden_gemm_model())
    corrupt(model)
    with pytest.raises(NetworkError):
        load_network(wire.encode_model(model))


@pytest.mark.parametrize("tail", [b"\x0a\x05", b"\x0a\x00"], ids=["overrun", "empty"])
def test_bad_packed_scalar_is_network_error(tail):
    # ir_version as a packed block: 5 bytes claimed where none follow, or empty
    with pytest.raises(NetworkError, match="packed block"):
        load_network(_golden_gemm_model() + tail)


def test_mutated_bytes_raise_only_network_error(net_factory):
    rng = np.random.default_rng(2021)
    data = network_to_onnx_bytes(net_factory(rng, 3, [4], 2))
    for _ in range(3000):
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 5))):
            buf[int(rng.integers(len(buf)))] = int(rng.integers(256))
        try:
            load_network(bytes(buf))
        except NetworkError:
            pass  # any other exception type escaping fails the test


def test_flatten_and_batch_dim_squeeze():
    # input declared [1, 2, 2] flattened before a Gemm over width 4
    w = np.eye(4)
    b = np.zeros(4)
    model = {
        "ir_version": 7,
        "opset_import": [{"domain": "", "version": 13}],
        "graph": {
            "name": "flat",
            "node": [
                {"input": ["input"], "output": ["f0"], "op_type": "Flatten"},
                {
                    "input": ["f0", "W", "B"],
                    "output": ["out"],
                    "op_type": "Gemm",
                    "attribute": [{"name": "transB", "i": 1, "type": wire.ATTR_INT}],
                },
            ],
            "initializer": [
                {
                    "name": "W",
                    "dims": [4, 4],
                    "data_type": wire.FLOAT32,
                    "raw_data": w.astype("<f4").tobytes(),
                },
                {
                    "name": "B",
                    "dims": [4],
                    "data_type": wire.FLOAT32,
                    "raw_data": b.astype("<f4").tobytes(),
                },
            ],
            "input": [
                {
                    "name": "input",
                    "type": {
                        "tensor_type": {
                            "elem_type": 1,
                            "shape": {
                                "dim": [
                                    {"dim_value": 1},
                                    {"dim_value": 2},
                                    {"dim_value": 2},
                                ]
                            },
                        }
                    },
                }
            ],
            "output": [{"name": "out"}],
        },
    }
    net = load_network(wire.encode_model(model))
    assert net.n_inputs == 4
    assert isinstance(net.layers[0], ReshapeLayer)


def test_symbolic_batch_dim_accepted():
    model = wire.decode_model(_golden_gemm_model())
    dims = model["graph"]["input"][0]["type"]["tensor_type"]["shape"]["dim"]
    dims[0] = {"dim_param": "N"}
    net = load_network(wire.encode_model(model))
    assert net.n_inputs == 1


def test_constant_node_used_as_bias():
    # x -> MatMul(W) -> Add(const) with the addend from a Constant node
    const = {
        "name": "c",
        "dims": [1],
        "data_type": wire.FLOAT32,
        "raw_data": struct.pack("<f", 5.0),
    }
    model = wire.decode_model(_golden_gemm_model())
    graph = model["graph"]
    graph["node"] = [
        {"output": ["cv"], "op_type": "Constant",
         "attribute": [{"name": "value", "t": const, "type": wire.ATTR_TENSOR}]},
        {"input": ["x", "Wt"], "output": ["m"], "op_type": "MatMul"},
        {"input": ["m", "cv"], "output": ["y"], "op_type": "Add"},
    ]
    graph["initializer"] = [
        {
            "name": "Wt",
            "dims": [1, 1],
            "data_type": wire.FLOAT32,
            "raw_data": struct.pack("<f", 2.0),
        }
    ]
    net = load_network(wire.encode_model(model))
    assert forward(net, [1.0])[0] == 7.0  # 2*1 + 5
    assert len(_affine_layers(net)) == 1  # fused


def test_sub_both_orders():
    base = wire.decode_model(_golden_gemm_model())

    def with_sub(inputs):
        model = {k: v for k, v in base.items()}
        graph = dict(model["graph"])
        graph["node"] = [
            {"input": inputs, "output": ["y"], "op_type": "Sub"},
        ]
        graph["initializer"] = [
            {
                "name": "c",
                "dims": [1],
                "data_type": wire.FLOAT32,
                "raw_data": struct.pack("<f", 3.0),
            }
        ]
        model["graph"] = graph
        return load_network(wire.encode_model(model))

    net = with_sub(["x", "c"])  # x - 3
    assert forward(net, [10.0])[0] == 7.0
    net = with_sub(["c", "x"])  # 3 - x
    assert forward(net, [10.0])[0] == -7.0


# ---------------------------------------------------------------------------
# forward / gen_trivial_network


def test_relu_clamps_negative():
    net = Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("relu")), 1, 1
    )
    assert forward(net, [-3.0])[0] == 0.0


def test_forward_is_bit_deterministic(net_factory):
    rng = np.random.default_rng(3)
    net = net_factory(rng, 4, [16, 16], 3)
    x = rng.uniform(-1, 1, 4)
    a = forward(net, x)
    b = forward(net, x)
    assert a.tobytes() == b.tobytes()
    # rows of a batch match single points, for every activation
    for activation in ("relu", "sigmoid", "tanh"):
        net = net_factory(rng, 4, [16, 16], 3, activation=activation)
        xs = rng.uniform(-2, 2, (9, 4))
        ys = forward(net, xs)
        assert ys.shape == (9, 3)
        for x, y in zip(xs, ys):
            np.testing.assert_allclose(y, forward(net, x), rtol=1e-12, atol=1e-300)
        assert forward(net, xs[:0]).shape == (0, 3)


def test_forward_dimension_mismatch():
    net = gen_trivial_network(2)
    with pytest.raises(ValueError, match="expected 2 inputs"):
        forward(net, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="expected 2 inputs"):
        forward(net, np.zeros((4, 3)))


def test_forward_rejects_nonfinite_input():
    net = gen_trivial_network(1)
    with pytest.raises(ValueError, match="non-finite input"):
        forward(net, [np.nan])
    with pytest.raises(ValueError, match="non-finite input"):
        forward(net, [[0.0], [np.inf]])


def test_forward_reports_nonfinite_intermediate():
    net = Network((AffineLayer(np.array([[1e308]]), np.zeros(1)),), 1, 1)
    with pytest.raises(ArithmeticError, match="non-finite intermediate after layer 0"):
        forward(net, [100.0])
    # one overflowing row fails the whole batch
    with pytest.raises(ArithmeticError, match="non-finite intermediate after layer 0"):
        forward(net, [[1.0], [100.0]])


@pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
def test_nonfinite_affine_output_masked_by_activation_still_raises(activation):
    # -1e308 * 2 = -inf, which relu maps to 0, sigmoid to 0 and tanh to -1:
    # the pass ends finite, but layer 0 overflowed
    net = Network(
        (
            AffineLayer(np.array([[-1e308]]), np.zeros(1)),
            ActivationLayer(activation),
            AffineLayer(np.array([[1.0]]), np.zeros(1)),
        ),
        1,
        1,
    )
    for x in ([2.0], [[0.5], [2.0]]):
        with pytest.raises(ArithmeticError, match="non-finite intermediate after layer 0$"):
            forward(net, x)
    assert np.isfinite(forward(net, [0.5])).all()


def test_nonfinite_intermediate_names_the_first_bad_affine_layer():
    # layer 0 gives 1e200, finite; layer 2 gives 1e400 = inf, layer 4 nan
    net = Network(
        (
            AffineLayer(np.array([[1e200]]), np.zeros(1)),
            ActivationLayer("relu"),
            AffineLayer(np.array([[1e200]]), np.zeros(1)),
            ReshapeLayer(1),
            AffineLayer(np.array([[1.0], [-1.0]]), np.zeros(2)),
            AffineLayer(np.array([[1.0, 1.0]]), np.zeros(1)),
        ),
        1,
        1,
    )
    with pytest.raises(ArithmeticError, match="non-finite intermediate after layer 2$"):
        forward(net, [1.0])
    assert forward(net, [-1.0])[0] == 0.0


def test_trivial_network_identity():
    net1 = gen_trivial_network(1)
    assert forward(net1, [7.0])[0] == 7.0
    net5 = gen_trivial_network(5)
    assert net5.n_inputs == 5 and net5.n_outputs == 5
    x = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    np.testing.assert_array_equal(forward(net5, x), x)


def test_trivial_network_rejects_zero():
    with pytest.raises(ValueError):
        gen_trivial_network(0)


def test_width_chain_enforced():
    with pytest.raises(NetworkError, match="expects width"):
        Network(
            (
                AffineLayer(np.ones((3, 2)), np.zeros(3)),
                AffineLayer(np.ones((2, 4)), np.zeros(2)),
            ),
            2,
            2,
        )


def test_nonfinite_weights_rejected():
    with pytest.raises(NetworkError, match="non-finite weights"):
        Network((AffineLayer(np.array([[np.inf]]), np.zeros(1)),), 1, 1)


def test_sigmoid_tanh_forward_values():
    net = Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("sigmoid")), 1, 1
    )
    assert forward(net, [0.0])[0] == 0.5
    # stable at extreme pre-activations
    assert forward(net, [-1000.0])[0] == 0.0
    assert forward(net, [1000.0])[0] == 1.0
    net = Network(
        (AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("tanh")), 1, 1
    )
    assert forward(net, [0.0])[0] == 0.0
