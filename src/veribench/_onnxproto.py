"""Self-contained protobuf wire codec for the ONNX message subset used here.

Covers exactly the fields needed for feedforward graphs: model/graph/node,
attributes, tensors (float32/float64/int64 payloads, raw or typed), value
infos with tensor shapes.  Unknown fields are skipped on decode so real
exported files with extra metadata still load.

Messages are plain dicts keyed by field name; repeated fields are lists.
"""

from __future__ import annotations

import struct

# TensorProto.DataType values
FLOAT32 = 1
INT64 = 7
DOUBLE = 11

# AttributeProto.AttributeType values
ATTR_FLOAT = 1
ATTR_INT = 2
ATTR_TENSOR = 4

_WIRE_VARINT = 0
_WIRE_FIXED64 = 1
_WIRE_LEN = 2
_WIRE_FIXED32 = 5

# field number -> (name, kind, repeated); kind is a scalar tag or message name
_SCHEMAS = {
    "Model": {
        1: ("ir_version", "int", False),
        2: ("producer_name", "string", False),
        3: ("producer_version", "string", False),
        7: ("graph", "Graph", False),
        8: ("opset_import", "OperatorSetId", True),
    },
    "OperatorSetId": {
        1: ("domain", "string", False),
        2: ("version", "int", False),
    },
    "Graph": {
        1: ("node", "Node", True),
        2: ("name", "string", False),
        5: ("initializer", "Tensor", True),
        11: ("input", "ValueInfo", True),
        12: ("output", "ValueInfo", True),
    },
    "Node": {
        1: ("input", "string", True),
        2: ("output", "string", True),
        3: ("name", "string", False),
        4: ("op_type", "string", False),
        5: ("attribute", "Attribute", True),
    },
    "Attribute": {
        1: ("name", "string", False),
        2: ("f", "float32", False),
        3: ("i", "int", False),
        4: ("s", "bytes", False),
        5: ("t", "Tensor", False),
        7: ("floats", "float32", True),
        8: ("ints", "int", True),
        20: ("type", "int", False),
    },
    "Tensor": {
        1: ("dims", "int", True),
        2: ("data_type", "int", False),
        4: ("float_data", "float32", True),
        7: ("int64_data", "int", True),
        8: ("name", "string", False),
        9: ("raw_data", "bytes", False),
        10: ("double_data", "float64", True),
    },
    "ValueInfo": {
        1: ("name", "string", False),
        2: ("type", "Type", False),
    },
    "Type": {
        1: ("tensor_type", "TypeTensor", False),
    },
    "TypeTensor": {
        1: ("elem_type", "int", False),
        2: ("shape", "Shape", False),
    },
    "Shape": {
        1: ("dim", "Dim", True),
    },
    "Dim": {
        1: ("dim_value", "int", False),
        2: ("dim_param", "string", False),
    },
}

_SCALAR_KINDS = {"int", "float32", "float64", "string", "bytes"}

# fixed-width kind -> (struct code, width, wire type, name in error texts)
_FIXED = {
    "float32": ("f", 4, _WIRE_FIXED32, "float"),
    "float64": ("d", 8, _WIRE_FIXED64, "double"),
}


class WireDecodeError(ValueError):
    """Payload is not valid protobuf wire data for the expected message."""


# ---------------------------------------------------------------------------
# Reading


def _read_varint(buf: bytes, pos: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise WireDecodeError("truncated varint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift >= 70:  # the 10th byte is the last one protobuf allows
            raise WireDecodeError("varint longer than 10 bytes")


def _to_signed64(u: int) -> int:
    return u - (1 << 64) if u >= (1 << 63) else u


def _skip_field(buf: bytes, pos: int, end: int, wire: int) -> int:
    if wire == _WIRE_VARINT:
        _, pos = _read_varint(buf, pos, end)
        return pos
    if wire == _WIRE_FIXED64:
        pos += 8
    elif wire == _WIRE_LEN:
        length, pos = _read_varint(buf, pos, end)
        pos += length
    elif wire == _WIRE_FIXED32:
        pos += 4
    else:
        raise WireDecodeError(f"unsupported wire type {wire}")
    if pos > end:
        raise WireDecodeError("field overruns message boundary")
    return pos


def _parse(msg_name: str, buf: bytes, pos: int, end: int) -> dict:
    # The common reads are inline: one-byte keys and lengths, nested messages,
    # strings and bytes.  Every other read goes through _read_varint or
    # _read_scalar, and every one stops at end, not at the end of buf.
    schema = _SCHEMAS[msg_name]
    out: dict = {}
    while pos < end:
        key = buf[pos]
        if key < 0x80:
            pos += 1
        else:
            key, pos = _read_varint(buf, pos, end)
        field_no, wire = key >> 3, key & 7
        spec = schema.get(field_no)
        if spec is None:
            pos = _skip_field(buf, pos, end, wire)
            continue
        name, kind, repeated = spec

        if (wire == _WIRE_LEN and kind in ("string", "bytes")) or kind not in _SCALAR_KINDS:
            if wire != _WIRE_LEN:
                raise WireDecodeError(f"{msg_name}.{name}: expected length-delimited")
            if pos < end and buf[pos] < 0x80:
                length = buf[pos]
                pos += 1
            else:
                length, pos = _read_varint(buf, pos, end)
            stop = pos + length
            if stop > end:
                raise WireDecodeError(f"{msg_name}.{name} overruns message")
            if kind == "bytes":
                value = bytes(buf[pos:stop])
            elif kind != "string":
                value = _parse(kind, buf, pos, stop)
            else:
                try:
                    value = str(buf[pos:stop], "utf-8")
                except UnicodeDecodeError as exc:
                    raise WireDecodeError(f"{msg_name}.{name}: invalid UTF-8") from exc
            pos = stop
            if repeated:
                out.setdefault(name, []).append(value)
            else:
                out[name] = value
            continue

        values, pos = _read_scalar(msg_name, name, kind, buf, pos, end, wire)
        if repeated:
            out.setdefault(name, []).extend(values)
        elif values:
            out[name] = values[-1]
        else:
            raise WireDecodeError(f"{msg_name}.{name}: empty packed block")
    return out


def _read_scalar(msg_name, name, kind, buf, pos, end, wire):
    if kind == "int":
        if wire == _WIRE_VARINT:
            v, pos = _read_varint(buf, pos, end)
            return [_to_signed64(v)], pos
        if wire == _WIRE_LEN:  # packed
            length, pos = _read_varint(buf, pos, end)
            stop = pos + length
            if stop > end:
                raise WireDecodeError(f"{msg_name}.{name}: packed block overruns")
            vals = []
            while pos < stop:
                v, pos = _read_varint(buf, pos, stop)
                vals.append(_to_signed64(v))
            return vals, pos
    elif kind in _FIXED:
        code, size, fixed_wire, label = _FIXED[kind]
        if wire == fixed_wire:
            if pos + size > end:
                raise WireDecodeError(f"truncated {label}")
            return [struct.unpack_from("<" + code, buf, pos)[0]], pos + size
        if wire == _WIRE_LEN:
            length, pos = _read_varint(buf, pos, end)
            if length % size or pos + length > end:
                raise WireDecodeError(f"{msg_name}.{name}: bad packed {label} block")
            vals = list(struct.unpack_from(f"<{length // size}{code}", buf, pos))
            return vals, pos + length
    raise WireDecodeError(f"{msg_name}.{name}: wire type {wire} does not fit {kind}")


def decode_message(msg_name: str, data: bytes) -> dict:
    return _parse(msg_name, data, 0, len(data))


def decode_model(data: bytes) -> dict:
    return decode_message("Model", data)


# ---------------------------------------------------------------------------
# Writing


def _emit_varint(out: bytearray, value: int) -> None:
    if value < 0:
        value += 1 << 64
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _emit_key(out: bytearray, field_no: int, wire: int) -> None:
    _emit_varint(out, (field_no << 3) | wire)


def _emit_scalar(out: bytearray, field_no: int, kind: str, value) -> None:
    if kind == "int":
        _emit_key(out, field_no, _WIRE_VARINT)
        _emit_varint(out, int(value))
    elif kind in _FIXED:
        code, _, fixed_wire, _ = _FIXED[kind]
        _emit_key(out, field_no, fixed_wire)
        out += struct.pack("<" + code, value)
    else:  # string or bytes
        raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        _emit_key(out, field_no, _WIRE_LEN)
        _emit_varint(out, len(raw))
        out += raw


def _emit_packed(out: bytearray, field_no: int, kind: str, values) -> None:
    body = bytearray()
    if kind == "int":
        for v in values:
            _emit_varint(body, int(v))
    else:
        body += struct.pack(f"<{len(values)}{_FIXED[kind][0]}", *values)
    _emit_key(out, field_no, _WIRE_LEN)
    _emit_varint(out, len(body))
    out += body


def _emit(msg_name: str, obj: dict) -> bytes:
    schema = _SCHEMAS[msg_name]
    out = bytearray()
    for field_no in sorted(schema):
        name, kind, repeated = schema[field_no]
        if name not in obj:
            continue
        value = obj[name]
        if kind not in _SCALAR_KINDS:
            items = value if repeated else [value]
            for item in items:
                body = _emit(kind, item)
                _emit_key(out, field_no, _WIRE_LEN)
                _emit_varint(out, len(body))
                out += body
        elif repeated:
            if not value:
                continue
            if kind in ("string", "bytes"):
                for item in value:
                    _emit_scalar(out, field_no, kind, item)
            else:
                _emit_packed(out, field_no, kind, value)
        else:
            _emit_scalar(out, field_no, kind, value)
    return bytes(out)


def encode_message(msg_name: str, obj: dict) -> bytes:
    return _emit(msg_name, obj)


def encode_model(model: dict) -> bytes:
    return _emit("Model", model)
