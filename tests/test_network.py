import copy
import hashlib
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import constant_node, make_random_network
from veribench import _onnxproto as wire
from veribench import network
from veribench.network import (
    ActivationLayer,
    AffineLayer,
    Network,
    NetworkError,
    UnsupportedNetworkError,
    _layer_walk,
    apply_activation,
    forward,
    gen_trivial_network,
    layer_outputs,
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


def test_two_byte_key_and_long_string_roundtrip():
    # Attribute.type (field 20) has a two-byte key, and a string of 128 bytes
    # or more a two-byte length: both take the decoder's varint path
    attr = {"name": "n" * 200, "f": 1.0, "type": wire.ATTR_FLOAT}
    data = wire.encode_message("Attribute", attr)
    assert data[:3] == b"\x0a\xc8\x01" and data[-3:] == b"\xa0\x01\x01"
    assert wire.decode_message("Attribute", data) == attr
    graph = {"node": [{"name": "x" * 300, "op_type": "Relu"}], "name": "g"}
    assert wire.decode_message("Graph", wire.encode_message("Graph", graph)) == graph


@pytest.mark.parametrize(
    "body, error",
    [
        (b"\x0a", "truncated varint"),  # a one-byte key, then nothing
        (b"\x0a\x05al", "Attribute.name overruns message"),  # a one-byte length
        (b"\xa0", "truncated varint"),  # half of a two-byte key
        (b"\x22\x05ab", "Attribute.s overruns message"),  # bytes, a one-byte length
        (b"\x22\x80\x01ab", "Attribute.s overruns message"),  # bytes, a two-byte length
    ],
    ids=["after-key", "at-length", "in-key", "bytes-at-length", "bytes-at-long-length"],
)
def test_truncated_field_rejected_at_its_own_message_end(body, error):
    # alone the read ends at the end of the bytes; nested in a Node, at the
    # end of the attribute, with the Node's op_type field after it
    with pytest.raises(wire.WireDecodeError, match=error):
        wire.decode_message("Attribute", body)
    node = b"\x2a" + bytes([len(body)]) + body + b"\x22\x04Relu"
    with pytest.raises(wire.WireDecodeError, match=error):
        wire.decode_message("Node", node)


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


def _assert_same_affine_layers(net, loaded):
    assert loaded.n_inputs == net.n_inputs and loaded.n_outputs == net.n_outputs
    assert len(_affine_layers(loaded)) == len(_affine_layers(net))
    for a, b in zip(_affine_layers(net), _affine_layers(loaded)):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-2, 2, size=(20, net.n_inputs)):
        np.testing.assert_array_equal(forward(net, x), forward(loaded, x))


def test_gemm_roundtrip_is_bit_exact():
    net = _simple_net()
    _assert_same_affine_layers(net, load_network(network_to_onnx_bytes(net)))


def _f64_tensor(name, arr) -> dict:
    arr = np.asarray(arr, dtype="<f8")
    return {"name": name, "dims": list(arr.shape), "data_type": wire.DOUBLE,
            "raw_data": arr.tobytes()}


def test_matmul_add_model_fuses_into_affine_layers():
    # _simple_net by hand as MatMul+Add pairs, x . W.T + b; the first
    # MatMul carries Gemm attributes, which a MatMul ignores
    net = _simple_net()
    w1, w2 = (l.weight for l in _affine_layers(net))
    b1, b2 = (l.bias for l in _affine_layers(net))
    gemm_attrs = [{"name": "alpha", "f": 2.0, "type": wire.ATTR_FLOAT},
                  {"name": "transB", "i": 1, "type": wire.ATTR_INT}]
    model = {
        "ir_version": 7,
        "opset_import": [{"domain": "", "version": 13}],
        "graph": {
            "name": "mm",
            "node": [
                {"input": ["x", "W1"], "output": ["m1"], "op_type": "MatMul",
                 "attribute": gemm_attrs},
                {"input": ["m1", "B1"], "output": ["a1"], "op_type": "Add"},
                {"input": ["a1"], "output": ["r1"], "op_type": "Relu"},
                {"input": ["r1", "W2"], "output": ["m2"], "op_type": "MatMul"},
                {"input": ["B2", "m2"], "output": ["y"], "op_type": "Add"},
            ],
            "initializer": [
                _f64_tensor("W1", w1.T), _f64_tensor("B1", b1),
                _f64_tensor("W2", w2.T), _f64_tensor("B2", b2),
            ],
            "input": [{"name": "x", "type": {"tensor_type": {
                "elem_type": wire.DOUBLE, "shape": {"dim": [{"dim_value": 2}]}}}}],
            "output": [{"name": "y"}],
        },
    }
    loaded = load_network(wire.encode_model(model))
    assert len(loaded.layers) == 3  # each MatMul+Add fused into one Affine
    assert loaded.precision == "float64"
    _assert_same_affine_layers(net, loaded)


def _pinned_net(precision) -> Network:
    """3-2-2-3 with every activation; its first weight holds six values."""
    w1 = np.arange(6.0).reshape(2, 3) / 7 - 0.75
    w2 = np.array([[1.0, -1 / 3], [1e-3, 2.5]])
    w3 = np.arange(6.0).reshape(3, 2) / -3 + 1
    layers = (
        AffineLayer(w1, np.array([0.5, 1 / 3])),
        ActivationLayer("relu"),
        AffineLayer(w2, np.array([0.1, -0.1])),
        ActivationLayer("sigmoid"),
        AffineLayer(w3, np.array([0.0, 1.0, -2.0])),
        ActivationLayer("tanh"),
    )
    return Network(layers, 3, 3, precision=precision, name="pinned")


def _pinned_model() -> dict:
    return wire.decode_model(network_to_onnx_bytes(_pinned_net("float32")))


# The bench writes its networks with save_network, so the writer's bytes
# are pinned: any change to them is a change to every benchmark input.
WRITER_SHA256 = {
    "float32": "4811851db5a12992625ecdfc773bd84e5ccb853dd4b84cb799e8456029cfea74",
    "float64": "64c9044b6b5dba6299f2821590a1b62f4620bfb7ddb64f08178aba63a0c1a8bb",
}


@pytest.mark.parametrize("precision", sorted(WRITER_SHA256))
def test_writer_bytes_pinned(precision, tmp_path):
    data = network_to_onnx_bytes(_pinned_net(precision))
    assert hashlib.sha256(data).hexdigest() == WRITER_SHA256[precision]
    save_network(_pinned_net(precision), tmp_path / "n.onnx")
    assert (tmp_path / "n.onnx").read_bytes() == data
    assert load_network(data).precision == precision


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


_SUPPORTED_OPS = ("Gemm", "MatMul", "Add", "Sub", "Relu", "Sigmoid", "Tanh",
                  "Flatten", "Identity", "Reshape", "Constant")


def test_structured_mutations_raise_only_network_error():
    base = _pinned_model()
    graph = base["graph"]
    outcomes = []

    def check(edit):
        model = copy.deepcopy(base)
        edit(model["graph"])
        try:
            load_network(wire.encode_model(model))
            outcomes.append("loaded")
        except NetworkError:  # any other exception type fails the test
            outcomes.append("refused")

    for i, node in enumerate(graph["node"]):
        for key, value in node.items():
            check(lambda g: g["node"][i].pop(key))
            if isinstance(value, list):
                check(lambda g: g["node"][i].update({key: []}))
        for op in _SUPPORTED_OPS:
            check(lambda g: g["node"][i].update(op_type=op))
    for i, tensor in enumerate(graph["initializer"]):
        for dims in ([], [-1], [-2, -3], [0], [1, 1, 1]):
            check(lambda g: g["initializer"][i].update(dims=dims))
        for data_type in (0, 2, 7, 10, 16):
            check(lambda g: g["initializer"][i].update(data_type=data_type))
        for key in tensor:
            check(lambda g: g["initializer"][i].pop(key))
    for outputs in ([], ["c"]):
        check(lambda g: g["node"].insert(0, constant_node(outputs)))
    odd_shapes = (
        [], [{"dim_value": 0}], [{"dim_value": -1}, {"dim_value": 3}],
        [{"dim_param": "N"}], [{"dim_param": "N"}, {"dim_param": "M"}],
        [{"dim_value": 1}, {}], [{"dim_value": 2**40}],
        [{"dim_value": 1}, {"dim_value": 1}, {"dim_value": 3}],
    )
    for io in ("input", "output"):
        check(lambda g: g[io][0].pop("type"))
        for dims in odd_shapes:
            check(lambda g: g[io][0]["type"]["tensor_type"]["shape"].update(dim=dims))
    assert "loaded" in outcomes and "refused" in outcomes


def test_constant_without_output_is_network_error():
    model = _pinned_model()
    model["graph"]["node"].insert(0, constant_node([]))
    with pytest.raises(NetworkError, match="'Constant' \\(Constant\\) has no output"):
        load_network(wire.encode_model(model))


def test_negative_dims_are_network_error():
    # [-2, -3] multiplies to the weight's six values, which numpy refuses
    model = _pinned_model()
    model["graph"]["initializer"][0]["dims"] = [-2, -3]
    with pytest.raises(NetworkError, match="negative dim"):
        load_network(wire.encode_model(model))


def test_empty_tensor_with_overflowing_dims_is_network_error():
    model = _pinned_model()
    model["graph"]["initializer"][0].update(dims=[2**62, 2**62, 0], raw_data=b"")
    with pytest.raises(NetworkError, match="dims too large"):
        load_network(wire.encode_model(model))


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
    # the Flatten is checked and dropped: only the Gemm is left
    assert len(net.layers) == 1 and isinstance(net.layers[0], AffineLayer)


def _with_shape_op(op, shape=None) -> bytes:
    """The golden y = 2x + 1 model with a shape op on x before the Gemm."""
    model = wire.decode_model(_golden_gemm_model())
    graph = model["graph"]
    node = {"input": ["x"], "output": ["x2"], "op_type": op}
    if shape is not None:
        node["input"].append("S")
        graph["initializer"].append(
            {"name": "S", "dims": [len(shape)], "data_type": wire.INT64,
             "raw_data": np.array(shape, dtype="<i8").tobytes()}
        )
    graph["node"][0]["input"][0] = "x2"
    graph["node"].insert(0, node)
    return wire.encode_model(model)


@pytest.mark.parametrize("op, shape", [("Identity", None), ("Flatten", None),
                                       ("Reshape", [1, 1]), ("Reshape", [-1])])
def test_shape_no_ops_checked_and_dropped(op, shape):
    net = load_network(_with_shape_op(op, shape))
    assert len(net.layers) == 1 and isinstance(net.layers[0], AffineLayer)
    assert forward(net, [3.0])[0] == 7.0


def test_reshape_shape_must_be_int64():
    # an infinite float shape once escaped as OverflowError
    model = wire.decode_model(_with_shape_op("Reshape", [1]))
    shape = model["graph"]["initializer"][-1]
    shape.update(data_type=wire.DOUBLE, raw_data=struct.pack("<d", float("inf")))
    with pytest.raises(NetworkError, match="shape 'S' is not int64"):
        load_network(wire.encode_model(model))


def test_reshape_changing_element_count_rejected():
    with pytest.raises(NetworkError, match="changes element count 1 -> 2"):
        load_network(_with_shape_op("Reshape", [1, 2]))


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


_M = np.array([[1.0, -2.0], [0.5, 0.25], [3.0, 1.0]])  # (out 3, in 2)
_C = np.array([0.125, -1.0, 2.0])


def _path_model(nodes, tensors, n_in=2) -> bytes:
    """x of width n_in, the nodes, and their output "y"; float64 tensors."""
    vtype = {"tensor_type": {"elem_type": wire.DOUBLE,
                             "shape": {"dim": [{"dim_value": 1}, {"dim_value": n_in}]}}}
    graph = {
        "node": nodes,
        "initializer": [_f64_tensor(name, arr) for name, arr in tensors.items()],
        "input": [{"name": "x", "type": vtype}],
        "output": [{"name": "y"}],
    }
    return wire.encode_model({"ir_version": 7, "graph": graph})


def _gemm(ins, trans_a=0, trans_b=0) -> dict:
    attrs = [{"name": "transA", "i": trans_a, "type": wire.ATTR_INT},
             {"name": "transB", "i": trans_b, "type": wire.ATTR_INT}]
    return {"input": ins, "output": ["y"], "op_type": "Gemm", "attribute": attrs}


@pytest.mark.parametrize(
    "nodes, tensors, error, message",
    [
        ([{"input": ["x", "x"], "output": ["y"], "op_type": "Add"}], {"c": _C},
         UnsupportedNetworkError, "consumes the data path twice"),
        ([_gemm(["x", "M"], trans_a=1)], {"M": _M},
         NetworkError, "transA on the data input"),
        ([_gemm(["M", "x"], trans_b=1)], {"M": _M},
         NetworkError, "transB on the data input"),
        ([_gemm(["M", "C", "x"])], {"M": _M, "C": _C},
         NetworkError, "data path must be input A or B"),
        ([{"input": ["x", "c"], "output": ["y"], "op_type": "Add"}], {"c": _C},
         NetworkError, "'Add' operand has 3 entries, expected 2"),
    ],
    ids=["data-path-twice", "transA-on-A", "transB-on-B", "data-as-C", "add-operand-size"],
)
def test_loader_refusals(nodes, tensors, error, message):
    with pytest.raises(NetworkError, match=message) as excinfo:
        load_network(_path_model(nodes, tensors))
    assert type(excinfo.value) is error


@pytest.mark.parametrize(
    "gemm, matrix",
    [(_gemm(["M", "x", "C"]), _M), (_gemm(["Mt", "x", "C"], trans_a=1), _M.T)],
    ids=["A.x", "A.T.x"],
)
def test_data_path_as_gemm_input_b(gemm, matrix):
    # A . x + C (or A.T . x + C) is the Gemm-only layer x -> M x + C
    loaded = load_network(_path_model([gemm], {"M": matrix, "Mt": matrix, "C": _C}))
    _assert_same_affine_layers(Network((AffineLayer(_M, _C),), 2, 3), loaded)


def test_standalone_add_loads_as_an_identity_layer():
    c = _C[:2]
    loaded = load_network(
        _path_model([{"input": ["c", "x"], "output": ["y"], "op_type": "Add"}], {"c": c})
    )
    _assert_same_affine_layers(Network((AffineLayer(np.eye(2), c),), 2, 2), loaded)


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


def _add_scalar_model(width: int) -> bytes:
    """x of declared shape [1, width], then Add of a one-value tensor."""
    shape = {"dim": [{"dim_value": 1}, {"dim_value": width}]}
    vtype = {"tensor_type": {"elem_type": wire.FLOAT32, "shape": shape}}
    graph = {
        "node": [{"input": ["x", "c"], "output": ["y"], "op_type": "Add"}],
        "initializer": [{"name": "c", "dims": [1], "data_type": wire.FLOAT32,
                         "raw_data": struct.pack("<f", 1.0)}],
        "input": [{"name": "x", "type": vtype}],
        "output": [{"name": "y", "type": vtype}],
    }
    return wire.encode_model({"ir_version": 7, "graph": graph})


def test_addsub_width_beyond_the_file_is_refused():
    # numpy's "array is too big" ValueError used to escape from np.full
    with pytest.raises(NetworkError, match="largest tensor"):
        load_network(_add_scalar_model(2**62))


def test_addsub_width_is_refused_before_allocating():
    data = _add_scalar_model(3000)
    assert len(data) < 100
    tracemalloc.start()
    try:
        with pytest.raises(NetworkError, match="width 3000"):
            load_network(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # np.eye(3000) alone is 72 MB


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
            AffineLayer(np.array([[1.0], [-1.0]]), np.zeros(2)),
            AffineLayer(np.array([[1.0, 1.0]]), np.zeros(1)),
        ),
        1,
        1,
    )
    with pytest.raises(ArithmeticError, match="non-finite intermediate after layer 2$"):
        forward(net, [1.0])
    assert forward(net, [-1.0])[0] == 0.0


# ---------------------------------------------------------------------------
# The layer walk's finiteness proof


def _checked_walk(net, x):
    """The layer walk with an exact finiteness check after every affine
    layer: the outputs and errors the walk must give."""
    outs = [np.asarray(x, dtype=np.float64)]
    for idx, layer in enumerate(net.layers):
        if isinstance(layer, AffineLayer):
            v = outs[-1] @ layer.weight.T + layer.bias
            if not np.isfinite(v).all():
                raise ArithmeticError(f"non-finite intermediate after layer {idx}")
        else:
            v = apply_activation(layer.kind, outs[-1])
        outs.append(v)
    return outs


def _outcome(walk, net, x):
    """The walk's outputs as bytes, or its error's message."""
    x = np.asarray(x, dtype=np.float64)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return [v.tobytes() for v in walk(net, x)]
    except ArithmeticError as exc:
        return str(exc)


@pytest.fixture
def concatenations(monkeypatch):
    """The arrays the walk concatenates to check it exactly: one list per
    call of the ``np.concatenate`` that ``veribench.network`` resolves, made
    from that module (numpy's own calls, as in seeding, are not counted)."""
    calls, concatenate = [], network.np.concatenate

    def spy(arrays, *args, **kwargs):
        if sys._getframe(1).f_globals is vars(network):
            calls.append(list(arrays))
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(network.np, "concatenate", spy)
    return calls


def _affine(w, b) -> AffineLayer:
    return AffineLayer(np.array(w, dtype=np.float64), np.array(b, dtype=np.float64))


def _net(*layers) -> Network:
    layers = [ActivationLayer(l) if isinstance(l, str) else l for l in layers]
    affine = [l for l in layers if isinstance(l, AffineLayer)]
    return Network(tuple(layers), affine[0].in_width, affine[-1].out_width)


ACAS_SHAPED = make_random_network(np.random.default_rng(0), 5, [50] * 6, 5)
ZERO_NET = _net(_affine([[0.0]], [1.0]))
# no input is proven: tanh leaves up to 1, and 1 * 2e300 is beyond the proof
TANH_NET = _net(_affine([[1.0]], [0.0]), "tanh", _affine([[2e300]], [0.0]))
# layer 0 gives 1e200 x, layer 2 1e400 x^+, layer 4 0 for x >= 0
HUGE_NET = _net(
    _affine([[1e200]], [0.0]), "relu", _affine([[1e200]], [0.0]),
    _affine([[1.0], [-1.0]], [0.0, 0.0]), _affine([[1.0, 1.0]], [0.0]),
)
SIGMOID_NET = _net(_affine([[-1e308]], [0.0]), "sigmoid", _affine([[1.0]], [0.0]))


@pytest.mark.parametrize(
    "layers, radius",
    [
        # (1e300 - 1e299) / (2 * 1e100)
        ([_affine([[1e100, -1e100]], [1e299])], 4.5e199),
        # ReLU passes on 1e300 / 3 as the room layer 0 leaves
        ([_affine([[1e100, -1e100]], [1e299]), "relu", _affine([[3.0]], [0.0])],
         (1e300 / 3.0 - 1e299) / 2e100),
        # sigmoid bounds its output by 1, so layer 2 asks nothing of layer 0
        ([_affine([[1e100, -1e100]], [1e299]), "sigmoid", _affine([[10.0]], [0.0])],
         4.5e199),
        (TANH_NET.layers, -np.inf),
        # a product that is 0 whatever the input proves every finite input
        (ZERO_NET.layers, np.finfo(np.float64).max),
        # 2 * 1e308 overflows: only the input 0 is proven
        ([_affine([[1e308, 1e308]], [0.0])], 0.0),
        ([_affine([[1.0]], [1e300]), "relu", _affine([[1.0]], [0.0])], 0.0),
        ([_affine([[1.0]], [2e300])], -np.inf),
    ],
)
def test_finite_radius_bounds_every_affine_output(layers, radius):
    net = _net(*layers)
    assert net._finite_radius == pytest.approx(radius, rel=1e-15)


def test_proven_walk_makes_no_concatenated_copy(concatenations):
    X = np.random.default_rng(1).uniform(-1.0, 1.0, (20_000, 5))
    assert _outcome(_layer_walk, ACAS_SHAPED, X) == _outcome(_checked_walk, ACAS_SHAPED, X)
    assert _outcome(layer_outputs, ACAS_SHAPED, X) == _outcome(_checked_walk, ACAS_SHAPED, X)
    assert concatenations == []
    # an input of magnitude exactly the radius is proven too
    x = np.zeros(5)
    x[2] = -ACAS_SHAPED._finite_radius
    assert _outcome(_layer_walk, ACAS_SHAPED, x) == _outcome(_checked_walk, ACAS_SHAPED, x)
    assert _outcome(_layer_walk, HUGE_NET, [1e-150]) == _outcome(_checked_walk, HUGE_NET, [1e-150])
    assert concatenations == []


def _just_above_radius():
    x = np.zeros(5)
    x[2] = -np.nextafter(ACAS_SHAPED._finite_radius, np.inf)
    return x


@pytest.mark.parametrize(
    "net, x",
    [
        (ACAS_SHAPED, _just_above_radius()),  # the outputs stay finite
        (ACAS_SHAPED, np.full((3, 5), np.nan)),
        (ZERO_NET, [np.nan]),
        (ZERO_NET, [np.inf]),  # 0 * inf is NaN
        (TANH_NET, [0.0]),
        (TANH_NET, [[1.0], [-3.0]]),
        (SIGMOID_NET, [0.5]),
        (SIGMOID_NET, [[0.5], [2.0]]),  # masked by the sigmoid, still an error
        (HUGE_NET, [1e-100]),  # 1e300 - 1e300 = 0 at layer 4
        (HUGE_NET, [1.0]),
        (HUGE_NET, [-1.0]),
    ],
)
def test_unproven_walk_takes_the_exact_check(concatenations, net, x):
    assert _outcome(_layer_walk, net, x) == _outcome(_checked_walk, net, x)
    assert len(concatenations) == 1
    assert len(concatenations[0]) == len(net._affine_at)


def test_non_finite_input_is_refused_before_any_walk(concatenations):
    for x in ([np.nan], [[0.0], [np.inf]]):
        with pytest.raises(ValueError, match="non-finite input"):
            layer_outputs(ZERO_NET, x)
    assert concatenations == []


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


def test_unknown_layer_rejected():
    # every evaluator knows only these two kinds; anything else must not load
    with pytest.raises(NetworkError, match="layer 1 is neither affine nor an activation"):
        Network((AffineLayer(np.eye(1), np.zeros(1)), object()), 1, 1)


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
