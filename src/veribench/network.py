"""Feedforward networks: ONNX loading, exact evaluation, trivial generation.

Supported graphs are a single data path of fully connected layers and
elementwise activations, so a ``Network`` holds only ``AffineLayer`` and
``ActivationLayer`` objects.  A MatMul loads as a Gemm without bias, and an
Add right after it becomes that bias; the writer emits Gemm nodes only.  The
shape no-ops Flatten, Identity and Reshape are checked on load (a Reshape
shape must be int64 and keep the element count) and then dropped.  Convolution, pooling and
residual topologies are rejected with an error naming the offending node.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _onnxproto as wire


class NetworkError(ValueError):
    """Unsupported construct or inconsistent shapes in a network file."""


class UnsupportedNetworkError(NetworkError):
    """A well-formed network with an operator, element type or branching
    topology that the loader does not support."""


# The one error state: public numeric entries and searches run under it, as
# a decorator (reentrant, unlike a with statement); private walks set none.
_QUIET = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned input region with finite per-dimension bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=np.float64).ravel()
        hi = np.array(self.upper, dtype=np.float64).ravel()
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if (lo > hi).any():
            raise ValueError("box has lower > upper")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass(frozen=True, eq=False)
class AffineLayer:
    """x -> W x + b with W of shape (out_width, in_width)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        # C-ordered, so a transposed matrix evaluates bit for bit as its copy
        w = np.array(self.weight, dtype=np.float64, order="C")
        b = np.array(self.bias, dtype=np.float64).ravel()
        if w.ndim != 2:
            raise NetworkError(f"weight must be 2-D, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise NetworkError(
                f"bias shape {b.shape} does not match weight rows {w.shape[0]}"
            )
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_width(self) -> int:
        return self.weight.shape[1]

    @property
    def out_width(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class ActivationLayer:
    kind: str  # a key of _ACTIVATIONS; the ONNX op is kind.capitalize()

    def __post_init__(self):
        if self.kind not in _ACTIVATIONS:
            raise NetworkError(f"unknown activation '{self.kind}'")


@dataclass(frozen=True, eq=False)
class Network:
    layers: tuple
    n_inputs: int
    n_outputs: int
    precision: str = "float64"  # "float32" or "float64", as stored on disk
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.precision not in ("float32", "float64"):
            raise NetworkError(f"unknown precision '{self.precision}'")
        width = self.n_inputs
        gains = []  # per layer, (cols * max|W|, max|b|) or the activation kind
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, AffineLayer):
                if layer.in_width != width:
                    raise NetworkError(
                        f"layer {idx} expects width {layer.in_width}, got {width}"
                    )
                w_max = float(np.abs(layer.weight).max(initial=0.0))
                b_max = float(np.abs(layer.bias).max(initial=0.0))
                if not (math.isfinite(w_max) and math.isfinite(b_max)):
                    raise NetworkError(f"layer {idx} has non-finite weights")
                gains.append((width * w_max, b_max))
                width = layer.out_width
            elif isinstance(layer, ActivationLayer):
                gains.append(layer.kind)
            else:
                raise NetworkError(
                    f"layer {idx} is neither affine nor an activation: "
                    f"{type(layer).__name__}"
                )
        if width != self.n_outputs:
            raise NetworkError(
                f"final width {width} does not match declared outputs {self.n_outputs}"
            )
        object.__setattr__(self, "_walk", tuple(map(_walk_step, self.layers)))
        object.__setattr__(self, "_affine_at", tuple(
            i for i, l in enumerate(self.layers) if isinstance(l, AffineLayer)
        ))
        object.__setattr__(self, "_finite_radius", _finite_radius(gains))


# An affine output proven below this magnitude is finite, with a margin of
# about 1e8 over the largest float for the rounding of its sums.
_PROVEN_BELOW = 1e300


def _finite_radius(gains) -> float:
    """The largest input magnitude R for which every affine output is
    provably finite: a walk whose input has no entry above R in magnitude
    has no affine output above ``_PROVEN_BELOW``.

    ``gains`` holds, per layer, ``(cols * max|W|, max|b|)`` for an affine
    layer, as ``|W x + b| <= cols * max|W| * max|x| + max|b|``, and the
    kind of an activation: ReLU keeps a bound, and sigmoid and tanh bound
    their output by 1.  Walking the layers backward turns the bound on each
    affine output into the largest input magnitude the rest of the net
    takes.  The arithmetic is in Python floats, so a gain that overflows is
    inf, without a warning, and the radius it leaves is 0.  A net that no
    input can prove gets -inf, and the radius is never infinite, so an
    infinite or NaN input never passes.
    """
    r = math.inf
    for step in reversed(gains):
        if step == "relu":
            continue
        if isinstance(step, str):
            r = math.inf if r >= 1.0 else -math.inf
            continue
        gain, b_max = step
        room = min(r, _PROVEN_BELOW) - b_max
        r = -math.inf if room < 0.0 else room / gain if gain else math.inf
    return min(r, sys.float_info.max)


# ---------------------------------------------------------------------------
# Evaluation


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


# Each activation with its reverse derivative: the incoming gradient g times
# f'(v), read off the output s = f(v); ReLU's masks g in place, so g must be
# the gradient walk's own array.  All three map finite values to finite
# values.
_ACTIVATIONS = {
    "relu": (_relu, lambda g, s: np.multiply(g, s > 0.0, g)),
    "sigmoid": (_stable_sigmoid, lambda g, s: g * s * (1.0 - s)),
    "tanh": (np.tanh, lambda g, s: g * (1.0 - s * s)),
}


def _walk_step(layer) -> tuple:
    """What the layer walk and the gradient walk take per layer, as
    (W, b, f, f'): an affine layer's weight and bias, or an activation's
    function and reverse derivative."""
    if isinstance(layer, AffineLayer):
        return layer.weight, layer.bias, None, None
    return (None, None) + _ACTIVATIONS[layer.kind]


def apply_activation(kind: str, v: np.ndarray) -> np.ndarray:
    return _ACTIVATIONS[kind][0](v)


def _layer_walk(net: Network, v: np.ndarray) -> list[np.ndarray]:
    """The input ``v``, a float64 point ``(n,)`` or batch ``(N, n)``, followed
    by every layer's output.

    An affine layer computes ``v @ W.T`` and adds ``b`` to that fresh product
    in place.  The pass is proven finite from its input: when no entry of
    ``v`` exceeds the network's radius (``_finite_radius``) in magnitude,
    every affine output is finite, and activations map finite values to
    finite values, so nothing more is checked.  The test is one reduction,
    false for a NaN or infinite input.  Only when the proof fails are the
    affine outputs checked exactly, once over their concatenation after the
    pass, and the first non-finite one raises ``ArithmeticError`` naming its
    layer, even when a later activation maps it back to a finite value.  A
    NaN input fails there at the first affine layer, but an infinite one
    may not, as an activation before it can map it to a finite value; so
    the input should be finite: ``layer_outputs`` checks a caller's input,
    and the search's own points, which call this walk directly, are finite
    by construction, save a climb point that a NaN gradient makes NaN.  The
    walk sets no error state: its callers run under ``_QUIET``, so an
    overflow is reported by the exact check and not as a warning.
    """
    outs = [v]
    for w, b, f, _ in net._walk:
        if f is None:
            v = v @ w.T
            v += b
        else:
            v = f(v)
        outs.append(v)
    if np.abs(outs[0]).max(initial=0.0) <= net._finite_radius:
        return outs
    affine = [outs[i + 1] for i in net._affine_at]
    if affine and not np.isfinite(np.concatenate(affine, axis=-1)).all():
        idx = next(i for i in net._affine_at if not np.isfinite(outs[i + 1]).all())
        raise ArithmeticError(f"non-finite intermediate after layer {idx}")
    return outs


@_QUIET
def layer_outputs(net: Network, x) -> list[np.ndarray]:
    """The input followed by every layer's output, in float64.

    ``x`` is one point of shape ``(n,)`` or a batch of shape ``(N, n)``, one
    point per row.  A wrong width raises ``ValueError``, and so does a
    non-finite input, before any layer runs; the pass is then the private
    layer walk (``_layer_walk``), proven finite from its input when no entry
    exceeds the network's radius, and else checked exactly, its first
    non-finite affine output raising ``ArithmeticError`` naming its layer.
    The outputs are what reverse accumulation needs, so a gradient can
    reuse the pass that computed the network's value.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2:
        v = v.ravel()
    if v.shape[-1] != net.n_inputs:
        raise ValueError(f"expected {net.n_inputs} inputs, got {v.shape[-1]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input")
    return _layer_walk(net, v)


def forward(net: Network, x) -> np.ndarray:
    """Evaluate one point ``(n,)`` or a batch ``(N, n)`` in float64.

    Returns ``(m,)`` or ``(N, m)``; see ``layer_outputs`` for the input
    checks, the arithmetic and the errors.  A batch row may differ from the
    same point evaluated alone in the last bits, as matrix and vector
    products sum differently.
    """
    return layer_outputs(net, x)[-1]


def gen_trivial_network(n_inputs: int) -> Network:
    """Identity network (W = I, b = 0) used for overhead measurement."""
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")
    layer = AffineLayer(np.eye(n_inputs), np.zeros(n_inputs))
    return Network(
        (layer,), n_inputs, n_inputs, precision="float32", name=f"trivial-{n_inputs}"
    )


# ---------------------------------------------------------------------------
# ONNX loading

# The element types read and written: each one's little-endian dtype, as
# raw_data holds it, and the typed field that holds the values otherwise.
_ELEMENTS = {
    wire.FLOAT32: ("<f4", "float_data"),
    wire.DOUBLE: ("<f8", "double_data"),
    wire.INT64: ("<i8", "int64_data"),
}


def _tensor_to_array(t: dict) -> tuple[np.ndarray, int]:
    """Decode one tensor, floats as float64; returns (array, data_type)."""
    name = t.get("name", "<unnamed>")
    dims = t.get("dims", [])
    dt = t.get("data_type", 0)
    if dt not in _ELEMENTS:
        raise UnsupportedNetworkError(f"tensor '{name}' has unsupported element type {dt}")
    dtype, field = _ELEMENTS[dt]
    raw = t.get("raw_data", b"")
    if len(raw) % np.dtype(dtype).itemsize:
        raise NetworkError(f"tensor '{name}' raw data ends mid-element")
    arr = np.frombuffer(raw, dtype) if raw else np.asarray(t.get(field, []), dtype)
    arr = arr.astype(np.int64 if dt == wire.INT64 else np.float64)
    if any(d < 0 for d in dims):
        raise NetworkError(f"tensor '{name}' has a negative dim in {dims}")
    expected = math.prod(dims) if dims else arr.size
    if arr.size != expected:
        raise NetworkError(
            f"tensor '{name}' holds {arr.size} values but dims {dims} need {expected}"
        )
    try:
        return (arr.reshape(dims) if dims else arr), dt
    except ValueError as exc:  # an empty shape whose other dims overflow
        raise NetworkError(f"tensor '{name}' has dims too large: {dims}") from exc


def _shape_width(value_info: dict) -> int | None:
    t = value_info.get("type", {}).get("tensor_type")
    if t is None:
        return None
    dims = t.get("shape", {}).get("dim", [])
    if not dims:
        return None
    prod = 1
    saw_concrete = False
    for k, d in enumerate(dims):
        if "dim_value" in d and d["dim_value"] > 0:
            prod *= d["dim_value"]
            saw_concrete = True
        elif k == 0:
            continue  # symbolic batch dimension
        else:
            raise NetworkError(
                f"symbolic non-batch dimension in shape of '{value_info.get('name')}'"
            )
    return prod if saw_concrete else None


def _attr_map(node: dict) -> dict:
    return {a.get("name"): a for a in node.get("attribute", [])}


class _GraphWalker:
    """Consume a topologically ordered single-path graph into Layers."""

    def __init__(self, graph: dict):
        # name -> (array, data_type) of every initializer and Constant
        self.params: dict[str, tuple[np.ndarray, int]] = {
            t.get("name", ""): _tensor_to_array(t)
            for t in graph.get("initializer", [])
        }
        self.layers: list = []

    def float_param(self, name: str, node_label: str) -> np.ndarray:
        arr, dt = self.params[name]
        if dt not in (wire.FLOAT32, wire.DOUBLE):
            raise NetworkError(
                f"node '{node_label}' uses non-float tensor '{name}'"
            )
        return arr

    def walk(self, graph: dict, in_name: str, width: int) -> tuple[str, int]:
        cur = in_name
        prev = ""  # op of the last node on the data path
        for node in graph.get("node", []):
            op = node.get("op_type", "")
            label = node.get("name") or op
            ins = node.get("input", [])
            outs = node.get("output", [])
            if not outs:
                raise NetworkError(f"node '{label}' ({op}) has no output")
            if op == "Constant":
                attrs = _attr_map(node)
                if "value" not in attrs or "t" not in attrs["value"]:
                    raise NetworkError(f"Constant node '{label}' has no tensor value")
                self.params[outs[0]] = _tensor_to_array(attrs["value"]["t"])
                continue
            if cur not in ins:
                raise UnsupportedNetworkError(
                    f"node '{label}' ({op}) is off the single data path; "
                    "branching graphs are unsupported"
                )
            if ins.count(cur) > 1:
                raise UnsupportedNetworkError(
                    f"node '{label}' ({op}) consumes the data path twice; "
                    "branching graphs are unsupported"
                )
            for other in ins:
                if other != cur and other not in self.params:
                    raise UnsupportedNetworkError(
                        f"node '{label}' ({op}) joins two computed values; "
                        "branching graphs are unsupported"
                    )
            if op in ("Gemm", "MatMul"):
                width = self.on_gemm(op, label, node, ins, cur, width)
            elif op in ("Add", "Sub"):
                width = self.on_addsub(op, label, ins, cur, width, prev == "MatMul")
            elif op.lower() in _ACTIVATIONS and op == op.capitalize():
                self.layers.append(ActivationLayer(op.lower()))
            elif op == "Reshape":
                self.check_reshape(label, ins, cur, width)
            elif op not in ("Flatten", "Identity"):
                raise UnsupportedNetworkError(f"unsupported operator {op} (node '{label}')")
            cur, prev = outs[0], op
        return cur, width

    # -- per-op handling ----------------------------------------------------

    def on_gemm(self, op, label, node, ins, cur, width) -> int:
        """A Gemm, or a MatMul read as a Gemm with alpha 1, no transposes
        and no C; a MatMul's attributes are ignored."""
        matmul = op == "MatMul"
        if len(ins) not in ((2,) if matmul else (2, 3)):
            need = "two" if matmul else "two or three"
            raise NetworkError(f"{op} '{label}' needs {need} inputs")
        attrs = {} if matmul else _attr_map(node)
        alpha = attrs.get("alpha", {}).get("f", 1.0)
        beta = attrs.get("beta", {}).get("f", 1.0)
        trans_a = attrs.get("transA", {}).get("i", 0)
        trans_b = attrs.get("transB", {}).get("i", 0)
        # data as A computes x . B, data as B computes A . x
        if ins[0] == cur:
            if trans_a:
                raise NetworkError(f"Gemm '{label}': transA on the data input")
            mat = self.float_param(ins[1], label)
            w = mat if trans_b else mat.T
        elif ins[1] == cur:
            if trans_b:
                raise NetworkError(f"Gemm '{label}': transB on the data input")
            mat = self.float_param(ins[0], label)
            w = mat.T if trans_a else mat
        else:
            raise NetworkError(f"Gemm '{label}': data path must be input A or B")
        if mat.ndim != 2:
            raise NetworkError(f"{op} '{label}' weight must be 2-D")
        if w.shape[1] != width:
            raise NetworkError(
                f"{op} '{label}' expects width {w.shape[1]}, got {width}"
            )
        out_w = w.shape[0]
        bias = np.zeros(out_w)
        if len(ins) == 3 and ins[2]:
            c = self.float_param(ins[2], label).ravel()
            if c.size == 1:
                c = np.full(out_w, c[0])
            if c.size != out_w:
                raise NetworkError(
                    f"Gemm '{label}' bias has {c.size} entries, expected {out_w}"
                )
            bias = beta * c
        self.layers.append(AffineLayer(alpha * w, bias))
        return out_w

    def on_addsub(self, op, label, ins, cur, width, after_matmul) -> int:
        """Add or Sub of a constant; an Add right after a MatMul becomes its
        bias.

        The path width must not exceed the element count of the file's
        largest tensor, so a declared width that nothing in the file backs
        is refused before any width-sized array is built; an identity layer
        is then at most (largest tensor size)² values.
        """
        if len(ins) != 2:
            raise NetworkError(f"{op} '{label}' needs two inputs")
        largest = max(arr.size for arr, _ in self.params.values())
        if width > largest:
            raise NetworkError(
                f"{op} '{label}' acts on width {width}, more than the "
                f"{largest} values of the largest tensor in the file"
            )
        other = ins[1] if ins[0] == cur else ins[0]
        p = self.float_param(other, label).ravel()
        if p.size == 1:
            p = np.full(width, p[0])
        if p.size != width:
            raise NetworkError(
                f"{op} '{label}' operand has {p.size} entries, expected {width}"
            )
        if op == "Add" and after_matmul:
            prev = self.layers[-1]
            self.layers[-1] = AffineLayer(prev.weight, prev.bias + p)
        elif op == "Add":
            self.layers.append(AffineLayer(np.eye(width), p))
        elif ins[0] == cur:  # v - p
            self.layers.append(AffineLayer(np.eye(width), -p))
        else:  # p - v
            self.layers.append(AffineLayer(-np.eye(width), p))
        return width

    def check_reshape(self, label, ins, cur, width) -> None:
        other = [i for i in ins if i != cur]
        if other:
            target, dt = self.params[other[0]]
            if dt != wire.INT64:
                raise NetworkError(
                    f"Reshape '{label}' shape '{other[0]}' is not int64"
                )
            target = target.ravel()
            if -1 not in target and 0 not in target:
                prod = math.prod(int(v) for v in target if v > 1)
                if prod != width:
                    raise NetworkError(
                        f"Reshape '{label}' changes element count "
                        f"{width} -> {prod}"
                    )


def load_network(source) -> Network:
    """Load a network from ONNX bytes or a file path.

    A malformed file raises ``NetworkError``, and an unsupported one its
    subclass ``UnsupportedNetworkError``; an unreadable path raises
    ``OSError``.
    """
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
        name = ""
    else:
        path = Path(source)
        data = path.read_bytes()
        name = path.stem
    try:
        model = wire.decode_model(data)
    except wire.WireDecodeError as exc:
        raise NetworkError(f"not a readable network file: {exc}") from exc
    graph = model.get("graph")
    if graph is None:
        raise NetworkError("model has no graph")

    walker = _GraphWalker(graph)
    input_infos = [
        vi for vi in graph.get("input", []) if vi.get("name") not in walker.params
    ]
    if len(input_infos) != 1:
        raise NetworkError(f"expected exactly one graph input, found {len(input_infos)}")
    in_name = input_infos[0].get("name", "")
    n_inputs = _shape_width(input_infos[0])
    if n_inputs is None:
        raise NetworkError(f"input '{in_name}' has no concrete shape")
    outputs = graph.get("output", [])
    if len(outputs) != 1:
        raise NetworkError(f"expected exactly one graph output, found {len(outputs)}")

    cur, width = walker.walk(graph, in_name, n_inputs)
    out_name = outputs[0].get("name", "")
    if cur != out_name:
        raise NetworkError(f"graph output '{out_name}' is never produced")
    declared = _shape_width(outputs[0])
    if declared is not None and declared != width:
        raise NetworkError(
            f"declared output width {declared} does not match computed {width}"
        )

    precision = (
        "float64"
        if any(dt == wire.DOUBLE for _, dt in walker.params.values())
        else "float32"
    )
    return Network(tuple(walker.layers), n_inputs, width, precision, name or graph.get("name", ""))


# ---------------------------------------------------------------------------
# ONNX writing


def _tensor_dict(name: str, arr: np.ndarray, elem_type: int) -> dict:
    return {
        "name": name,
        "dims": list(arr.shape),
        "data_type": elem_type,
        "raw_data": np.ascontiguousarray(arr, dtype=_ELEMENTS[elem_type][0]).tobytes(),
    }


def _value_info(name: str, widths: list[int], elem_type: int) -> dict:
    return {
        "name": name,
        "type": {
            "tensor_type": {
                "elem_type": elem_type,
                "shape": {"dim": [{"dim_value": w} for w in widths]},
            }
        },
    }


def network_to_onnx_bytes(net: Network) -> bytes:
    """Serialize a network: a Gemm node per affine layer, an activation
    node per activation layer."""
    elem = wire.DOUBLE if net.precision == "float64" else wire.FLOAT32
    nodes: list[dict] = []
    inits: list[dict] = []
    cur = "input"
    for k, layer in enumerate(net.layers):
        out = f"v{k}"
        if isinstance(layer, AffineLayer):
            w_name, b_name = f"W{k}", f"B{k}"
            inits.append(_tensor_dict(w_name, layer.weight, elem))
            inits.append(_tensor_dict(b_name, layer.bias, elem))
            nodes.append(
                {
                    "input": [cur, w_name, b_name],
                    "output": [out],
                    "name": f"gemm{k}",
                    "op_type": "Gemm",
                    "attribute": [
                        {"name": "alpha", "f": 1.0, "type": wire.ATTR_FLOAT},
                        {"name": "beta", "f": 1.0, "type": wire.ATTR_FLOAT},
                        {"name": "transB", "i": 1, "type": wire.ATTR_INT},
                    ],
                }
            )
        else:
            nodes.append(
                {
                    "input": [cur],
                    "output": [out],
                    "name": f"act{k}",
                    "op_type": layer.kind.capitalize(),
                }
            )
        cur = out

    model = {
        "ir_version": 7,
        "producer_name": "veribench",
        "opset_import": [{"domain": "", "version": 13}],
        "graph": {
            "name": net.name or "net",
            "node": nodes,
            "initializer": inits,
            "input": [_value_info("input", [1, net.n_inputs], elem)],
            "output": [_value_info(cur, [1, net.n_outputs], elem)],
        },
    }
    return wire.encode_model(model)


def save_network(net: Network, path) -> None:
    Path(path).write_bytes(network_to_onnx_bytes(net))
