import struct

import numpy as np
import pytest

from veribench import _onnxproto as wire
from veribench.network import ActivationLayer, AffineLayer, Network

# One line per acceptance criterion at the end of the run, regardless of
# output capture.  Keyed by test name so the listing is ordered 01..10.
_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_acceptance_outcomes):
        word = "PASS" if _acceptance_outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line("  %s: %s" % (name, word))


def make_random_network(
    rng,
    n_in: int,
    hidden: list[int],
    n_out: int,
    activation: str = "relu",
    precision: str = "float64",
    weight_scale: float = 1.0,
) -> Network:
    widths = [n_in] + list(hidden) + [n_out]
    layers = []
    for k in range(len(widths) - 1):
        fan_in = widths[k]
        w = rng.standard_normal((widths[k + 1], fan_in)) * weight_scale / np.sqrt(fan_in)
        b = rng.standard_normal(widths[k + 1]) * 0.1
        layers.append(AffineLayer(w, b))
        if k < len(widths) - 2:
            layers.append(ActivationLayer(activation))
    return Network(tuple(layers), n_in, n_out, precision=precision)


# Its output 1e-200 * X_0 is finite, but on X_0 > 0 the inactive ReLU masks
# an overflowed gradient: a_y = -1 walks back to -1e400 * 0, NaN.
NAN_GRADIENT_NET = Network(
    (
        AffineLayer(np.array([[1.0], [-1.0]]), np.zeros(2)),
        ActivationLayer("relu"),
        AffineLayer(np.diag([1e-200, 1e200]), np.zeros(2)),
        AffineLayer(np.array([[1.0, 1e200]]), np.zeros(1)),
    ),
    1,
    1,
)
# a row that climbs on NAN_GRADIENT_NET's NaN gradient
NAN_GRADIENT_SPEC = (
    "(declare-const X_0 Real)(declare-const Y_0 Real)"
    "(assert (>= X_0 1.0))(assert (<= X_0 2.0))(assert (>= Y_0 1.0))"
)


def constant_node(outputs) -> dict:
    """An ONNX Constant node holding the float32 scalar 5.0."""
    const = {"name": "c", "dims": [1], "data_type": wire.FLOAT32,
             "raw_data": struct.pack("<f", 5.0)}
    return {"output": outputs, "op_type": "Constant",
            "attribute": [{"name": "value", "t": const, "type": wire.ATTR_TENSOR}]}


@pytest.fixture
def net_factory():
    return make_random_network


@pytest.fixture
def block_builds(monkeypatch):
    """The affine layers whose bound block gets built, one entry per build."""
    from veribench import bounds

    built = []
    stacked = bounds._stacked

    def counting(layer):
        built.append(layer)
        return stacked(layer)

    monkeypatch.setattr(bounds, "_stacked", counting)
    return built
