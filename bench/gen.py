"""Seeded workload generator and the benchmark's independent oracle.

The generator draws ACAS-Xu-shaped ReLU networks (5 -> 50x6 -> 5) from a
seed, writes them through ``veribench.network.save_network``, copies the
committed ACAS-Xu properties and writes a manifest in the acasxu layout:
props 1-4 on every network, props 5-10 once each.  The program under test
only ever sees those files.

The oracle never calls the program.  It evaluates the generator's own
weights with a numpy forward pass, reads the properties with its own small
VNNLIB reader, and samples every disjunct densely.  An instance where a
sample satisfies the property is known to be violated; the sample is kept
as a reference witness.  Nothing is ever known to hold.
"""

from __future__ import annotations

import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROPS_DIR = ROOT / "tests" / "fixtures" / "acasxu" / "props"

WIDTHS = (5, 50, 50, 50, 50, 50, 50, 5)
ALL_NET_PROPS = (1, 2, 3, 4)
ONCE_PROPS = (5, 6, 7, 8, 9, 10)
TIMEOUT_SECONDS = 116  # per-instance timeout of the acasxu benchmark

# Weight scale and the grid of y0 - max(other outputs) at the prop-2 box
# centre.  With these, prop 2 is violated on about half the nets and hits a
# node cap of 30 on the rest, and most prop 1, 3 and 4 instances hit it too.
SCALE = 1.0
GAPS = (-0.3, 0.3)

# Props 3 and 4 are violated where y0 is the smallest output in two small
# boxes.  On these nets that turns on y0 at the box centres, and only nets
# with a low prop-2 gap have it.  Left to chance, 0 to 11 of the 50 prop-3
# and prop-4 instances were violated from seed to seed, which moved a seed's
# bab work by a tenth.  So the nets with the MIN_SHARE lowest gaps are drawn
# again until y0 is the smallest output at both centres by at least
# MIN_MARGIN, and every other net until it is the smallest at neither.
# MIN_SHARE is about the share chance gives over the gap grid.
MIN_SHARE = 0.08
MIN_MARGIN = 0.02
MAX_DRAWS = 1000

# Props 5-10 run once each, on one net apiece, and several have many
# disjuncts (prop 8 has 16).  Whether the chosen net violates them moved a
# seed's attack time by up to a fifth, since falsify returns at the first
# witness.  So each goes to the first net, in seeded order, on which the
# oracle's verdict is the one chance gave most often over seeds 1-10:
# violated, except for prop 9, which was violated on half of them.
ONCE_VIOLATED = (5, 6, 7, 8, 10)

# Witness tolerance, as documented for veribench.verifier.validate_witness:
# relative 1e-6 with an absolute floor of 1e-9.
WITNESS_TOL = 1e-6
WITNESS_ABS_FLOOR = 1e-9

# Dense sampling per disjunct: uniform points, then rounds of local
# resampling around the best points in a shrinking box.
ORACLE_SAMPLES = 1024
ORACLE_ROUNDS = 3
ORACLE_KEEP = 8
ORACLE_LOCAL = 64


# ---------------------------------------------------------------------------
# networks


def make_weights(rng: np.random.Generator) -> list:
    """He-style weights, rounded to float32 because nets are stored so."""
    layers = []
    for fan_in, fan_out in zip(WIDTHS, WIDTHS[1:]):
        w = rng.standard_normal((fan_out, fan_in)) * SCALE / np.sqrt(fan_in)
        b = rng.standard_normal(fan_out) * 0.1
        layers.append(
            (w.astype(np.float32).astype(np.float64), b.astype(np.float32).astype(np.float64))
        )
    return layers


def oracle_forward(layers: list, xs: np.ndarray) -> np.ndarray:
    """Batched forward pass over rows of xs; ReLU after every hidden layer."""
    h = np.asarray(xs, dtype=np.float64)
    for k, (w, b) in enumerate(layers):
        h = h @ w.T + b
        if k < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def to_veribench_network(layers: list, name: str):
    from veribench.network import ActivationLayer, AffineLayer, Network

    out = []
    for k, (w, b) in enumerate(layers):
        out.append(AffineLayer(w, b))
        if k < len(layers) - 1:
            out.append(ActivationLayer("relu"))
    return Network(tuple(out), WIDTHS[0], WIDTHS[-1], precision="float32", name=name)


# ---------------------------------------------------------------------------
# the oracle's own reader for the acasxu property subset


@dataclass(frozen=True)
class Disjunct:
    """Input box plus rows meaning cx . x + cy . y + c0 <= 0."""

    lower: np.ndarray
    upper: np.ndarray
    cx: np.ndarray  # (k, n_in)
    cy: np.ndarray  # (k, n_out)
    c0: np.ndarray  # (k,)


def _sexprs(text: str) -> list:
    text = re.sub(r";[^\n]*", "", text)
    stack: list = [[]]
    for tok in re.findall(r"\(|\)|[^\s()]+", text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")
    return stack[0]


def _operand(tok, n_in: int, n_out: int):
    """(cx, cy, c) of a variable or a number."""
    cx, cy = np.zeros(n_in), np.zeros(n_out)
    if isinstance(tok, str) and re.fullmatch(r"[XY]_\d+", tok):
        (cx if tok[0] == "X" else cy)[int(tok[2:])] = 1.0
        return cx, cy, 0.0
    return cx, cy, float(tok)


def _term_dnf(term, n_in: int, n_out: int) -> list:
    """List of conjunctions, each a list of (cx, cy, c0) rows <= 0."""
    head = term[0]
    if head in (">=", "<="):
        ax, ay, ac = _operand(term[1], n_in, n_out)
        bx, by, bc = _operand(term[2], n_in, n_out)
        if head == ">=":  # a >= b  <=>  b - a <= 0
            return [[(bx - ax, by - ay, bc - ac)]]
        return [[(ax - bx, ay - by, ac - bc)]]
    parts = [_term_dnf(t, n_in, n_out) for t in term[1:]]
    if head == "or":
        return [conj for p in parts for conj in p]
    if head == "and":
        out = [[]]
        for p in parts:
            out = [a + b for a in out for b in p]
        return out
    raise ValueError(f"unsupported term {head!r}")


def read_property(text: str, n_in: int = WIDTHS[0], n_out: int = WIDTHS[-1]) -> list:
    asserts = [node[1] for node in _sexprs(text) if node and node[0] == "assert"]
    dnf = _term_dnf(["and"] + asserts, n_in, n_out)
    disjuncts = []
    for rows in dnf:
        lower, upper = np.full(n_in, -np.inf), np.full(n_in, np.inf)
        mixed = []
        for cx, cy, c0 in rows:
            nz = np.flatnonzero(cx)
            if not cy.any() and nz.size == 1:
                i = nz[0]
                bound = -c0 / cx[i]
                if cx[i] > 0:
                    upper[i] = min(upper[i], bound)
                else:
                    lower[i] = max(lower[i], bound)
            else:
                mixed.append((cx, cy, c0))
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("property leaves an input unbounded")
        if np.any(lower > upper):
            continue
        disjuncts.append(
            Disjunct(
                lower,
                upper,
                np.array([m[0] for m in mixed]).reshape(len(mixed), n_in),
                np.array([m[1] for m in mixed]).reshape(len(mixed), n_out),
                np.array([m[2] for m in mixed]),
            )
        )
    return disjuncts


def margins(d: Disjunct, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Largest row value per point; <= 0 means the point satisfies d."""
    if d.c0.size == 0:
        return np.full(len(xs), -np.inf)
    return np.max(xs @ d.cx.T + ys @ d.cy.T + d.c0, axis=1)


def witness_ok(layers: list, disjuncts: list, x) -> bool:
    """The benchmark's own witness check, at the documented tolerance."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (WIDTHS[0],) or not np.all(np.isfinite(x)):
        return False
    y = oracle_forward(layers, x[None, :])[0]
    for d in disjuncts:
        scale = np.maximum.reduce([np.ones_like(x), np.abs(x), np.abs(d.lower), np.abs(d.upper)])
        slack = np.maximum(WITNESS_ABS_FLOOR, WITNESS_TOL * scale)
        if np.any(x < d.lower - slack) or np.any(x > d.upper + slack):
            continue
        lhs = x @ d.cx.T + y @ d.cy.T  # row: lhs <= -c0
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(d.c0)))
        if np.all(lhs + d.c0 <= np.maximum(WITNESS_ABS_FLOOR, WITNESS_TOL * scale)):
            return True
    return False


def find_violation(layers: list, disjuncts: list, rng: np.random.Generator, cache: dict):
    """Densely sample each disjunct; a satisfying point or None.

    cache maps an input box to its uniform samples and their outputs, so
    properties sharing a box (props 1 and 2) share the samples.
    """
    for d in disjuncts:
        width = d.upper - d.lower
        key = (d.lower.tobytes(), d.upper.tobytes())
        if key not in cache:
            xs = d.lower + rng.random((ORACLE_SAMPLES, width.size)) * width
            cache[key] = (xs, oracle_forward(layers, xs))
        xs, ys = cache[key]
        for round_no in range(ORACLE_ROUNDS + 1):
            m = margins(d, xs, ys)
            hit = np.flatnonzero(m <= 0.0)
            if hit.size:
                return xs[hit[np.argmin(m[hit])]]
            if round_no == ORACLE_ROUNDS:
                break
            best = xs[np.argsort(m)[:ORACLE_KEEP]]
            radius = width / (4.0 ** (round_no + 1))
            step = (rng.random((ORACLE_KEEP, ORACLE_LOCAL, width.size)) - 0.5) * 2 * radius
            xs = np.clip((best[:, None, :] + step).reshape(-1, width.size), d.lower, d.upper)
            ys = oracle_forward(layers, xs)
    return None


def label_flip(layers: list, centre, radius: float, samples: int = ORACLE_SAMPLES) -> bool:
    """Whether sampling the L-inf ball finds an output overtaking the top class."""
    centre = np.asarray(centre, dtype=np.float64)
    top = int(np.argmax(oracle_forward(layers, centre[None, :])[0]))
    rng = np.random.default_rng(0)
    xs = centre + rng.uniform(-radius, radius, (samples, centre.size))
    ys = oracle_forward(layers, np.vstack([xs, centre - radius, centre + radius]))
    others = np.delete(ys, top, axis=1)
    return bool(np.any(others.max(axis=1) >= ys[:, top]))


# ---------------------------------------------------------------------------
# the workload on disk


@dataclass
class Instance:
    instance_id: str
    net_name: str
    prop: int
    witness: np.ndarray | None  # oracle's reference point when known violated


@dataclass
class Workload:
    manifest: Path
    nets: dict          # name -> weight list
    net_paths: dict     # name -> Path
    prop_paths: dict    # prop number -> Path
    props: dict         # prop number -> oracle disjuncts
    instances: list     # [Instance], manifest order


def set_gap(layers: list, centre: np.ndarray, gap: float) -> None:
    """Shift output 0's bias so y0 - max(other outputs) equals gap at centre."""
    y = oracle_forward(layers, centre[None, :])[0]
    w, b = layers[-1]
    b = b.copy()
    b[0] += gap - (y[0] - np.max(y[1:]))
    layers[-1] = (w, b.astype(np.float32).astype(np.float64))


def draw_net(rng: np.random.Generator, centres: dict, gap: float, y0_smallest: bool) -> list:
    """Weights with the prop-2 gap set, drawn until y0 is the smallest output
    at the prop-3 and prop-4 box centres (or at neither) by MIN_MARGIN."""
    for _ in range(MAX_DRAWS):
        layers = make_weights(rng)
        set_gap(layers, centres[2], gap)
        y = oracle_forward(layers, np.array([centres[3], centres[4]]))
        margin = y[:, 0] - y[:, 1:].min(axis=1)  # < 0: y0 is the smallest
        if np.all(-margin >= MIN_MARGIN if y0_smallest else margin >= MIN_MARGIN):
            return layers
    raise RuntimeError("no net with gap %g in %d draws" % (gap, MAX_DRAWS))


def generate(root: Path, seed: int, n_nets: int) -> Workload:
    """Write nets, props and manifest under root and build the oracle table.

    Each net gets one gap from a grid over GAPS, in seeded order, so every
    seed has the same spread of easy-violated, hard and holding prop-2
    instances.  The nets with the lowest gaps, and only they, have y0
    smallest at the prop-3 and prop-4 centres (see MIN_SHARE), so every seed
    has close to the same verdict mix overall.
    """
    from veribench.network import save_network

    rng = np.random.default_rng([seed, 0x5EED])
    (root / "nets").mkdir(parents=True, exist_ok=True)
    (root / "props").mkdir(exist_ok=True)
    nets, net_paths = {}, {}
    centres = {}
    for p in (2, 3, 4):
        d = read_property((PROPS_DIR / ("prop_%d.vnnlib" % p)).read_text(encoding="utf-8"))[0]
        centres[p] = 0.5 * (d.lower + d.upper)
    order = rng.permutation(n_nets)
    n_min = round(MIN_SHARE * n_nets)
    for k in range(n_nets):
        name = "synth_%02d" % (k + 1)
        nets[name] = draw_net(rng, centres, float(np.linspace(*GAPS, n_nets)[order[k]]),
                              y0_smallest=order[k] < n_min)
        net_paths[name] = root / "nets" / (name + ".onnx")
        save_network(to_veribench_network(nets[name], name), net_paths[name])
    prop_paths, props = {}, {}
    for p in ALL_NET_PROPS + ONCE_PROPS:
        src = PROPS_DIR / ("prop_%d.vnnlib" % p)
        prop_paths[p] = root / "props" / src.name
        shutil.copyfile(src, prop_paths[p])
        props[p] = read_property(src.read_text(encoding="utf-8"))

    names = sorted(nets)
    oracle_rng = np.random.default_rng([seed, 0x0AC1E])
    caches: dict = {name: {} for name in names}

    def instance(p, name):
        witness = find_violation(nets[name], props[p], oracle_rng, caches[name])
        return Instance("%s-prop_%d" % (name, p), name, p, witness)

    instances = [instance(p, n) for p in ALL_NET_PROPS for n in names]
    for p in ONCE_PROPS:
        tried = []
        for k in rng.permutation(len(names)):
            tried.append(instance(p, names[int(k)]))
            if (tried[-1].witness is not None) == (p in ONCE_VIOLATED):
                break
        else:
            tried.append(tried[0])  # no net gives the verdict: keep the first
        instances.append(tried[-1])
    lines = ["nets/%s.onnx,props/prop_%d.vnnlib,%d" % (i.net_name, i.prop, TIMEOUT_SECONDS)
             for i in instances]
    manifest = root / "instances.csv"
    manifest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return Workload(manifest, nets, net_paths, prop_paths, props, instances)
