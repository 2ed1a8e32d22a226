"""Outside-in tracing of veribench's public functions.

The tracer replaces module attributes that callers look up at call time
(for example ``veribench.verifier.affine_bounds``) with wrappers that record
one span per call: name, start, end and parent span.  Spans stay in memory
and are written out once, at the end.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute).  Every veribench module attribute that is
# the same object as the named one is replaced, so both
# ``veribench.network.forward`` and the ``forward`` that ``verifier`` imported
# from it go through the wrapper.
SPANS = (
    ("bounds.affine_bounds", "veribench.bounds", "affine_bounds"),
    ("bounds.constraint_lower_bound", "veribench.bounds", "constraint_lower_bound"),
    ("network.forward", "veribench.network", "forward"),
    ("network.load_network", "veribench.network", "load_network"),
    ("onnxproto.decode_model", "veribench._onnxproto", "decode_model"),
    ("speclang.parse_vnnlib", "veribench.speclang", "parse_vnnlib"),
    ("speclang.to_dnf", "veribench.speclang", "to_dnf"),
    ("verifier.verify", "veribench.verifier", "verify"),
    ("verifier.falsify", "veribench.verifier", "falsify"),
    ("verifier.output_combination_gradient", "veribench.verifier", "output_combination_gradient"),
    ("verifier.validate_witness", "veribench.verifier", "validate_witness"),
    ("harness.load_manifest", "veribench.harness", "load_manifest"),
    ("harness.run_batch", "veribench.harness", "run_batch"),
    ("harness.run_tool", "veribench.harness", "run_tool"),
    ("harness.run_baseline", "veribench.harness", "run_baseline"),
    ("harness.calibrate_epsilon", "veribench.harness", "calibrate_epsilon"),
    ("harness.emit_report", "veribench.harness", "emit_report"),
    ("scoring.read_results_dir", "veribench.scoring", "read_results_dir"),
    ("scoring.score_records", "veribench.scoring", "score_records"),
)

BOX_SPAN = "network.Box"

# Hooks keep one value per call of a hooked function, for ratios and counts.
HOOKS = {
    "verifier.verify": lambda a, k, r: (r.status.value, r.stats.subproblems),
    "verifier.falsify": lambda a, k, r: r is not None,
    "verifier.validate_witness": lambda a, k, r: bool(r),
    "speclang.to_dnf": lambda a, k, r: len(r.disjuncts),
    "onnxproto.decode_model": lambda a, k, r: len(a[0]),
    "harness.run_tool": lambda a, k, r: r.seconds,
    "scoring.score_records": lambda a, k, r: len(a[0]),
}


class Tracer:
    """In-memory span recorder; one process, one thread, nested calls."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = []
        self.results: dict = {}  # hooked span name -> [(duration, hook value)]

    def wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )
        hook = HOOKS.get(name)
        kept = self.results.setdefault(name, []) if hook else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                kept.append((ends[idx] - starts[idx], hook(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code (a pass, a set-up)."""
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """name -> {"durations": [...], "self": total self seconds}."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i in range(n):
            d = self.ends[i] - self.starts[i]
            entry = out.setdefault(self.names[i], {"durations": [], "self": 0.0})
            entry["durations"].append(d)
            entry["self"] += d - child[i]
        return out

    def write(self, path) -> None:
        """Spans as gzipped CSV: name,start_us,end_us,parent (row index)."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("name,start_us,end_us,parent\n")
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s,%.1f,%.1f,%d\n" % (name, (s - t0) * 1e6, (e - t0) * 1e6, p))


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through tracer while the block runs."""
    modules = [m for k, m in list(sys.modules.items()) if k.startswith("veribench") and m]
    undo = []
    for name, modname, attr in SPANS:
        mod = sys.modules.get(modname)
        if mod is None or not hasattr(mod, attr):
            continue  # a layer the code no longer has reads as zero
        current = getattr(mod, attr)
        wrapper = tracer.wrap(name, current)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is current:
                    undo.append((m, key, value))
                    setattr(m, key, wrapper)
    from veribench import network

    box_init = network.Box.__dict__.get("__post_init__")
    if box_init is not None:
        network.Box.__post_init__ = tracer.wrap(BOX_SPAN, box_init)
    try:
        yield
    finally:
        for m, key, value in reversed(undo):
            setattr(m, key, value)
        if box_init is not None:
            network.Box.__post_init__ = box_init


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def layer_metrics(tracer: Tracer, walls: dict, verdicts: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced passes.

    Counts are per traced pass, so they repeat exactly for a fixed seed.
    Shares are self time over the traced passes' wall time.  A layer the
    workload does not use reads 0.
    """
    s = tracer.summary()
    passes = len(walls["traced"])
    wall = sum(walls["traced"])

    def durations(name):
        return s.get(name, {"durations": []})["durations"]

    def calls(name):
        return len(durations(name)) / passes

    def share(name):
        return s[name]["self"] / wall if name in s else 0.0

    def ms(name):
        return 1e3 * _median(durations(name))

    def us(name):
        return 1e6 * _median(durations(name))

    def kept(name):
        return [v for _, v in tracer.results.get(name, [])]

    verify = kept("verifier.verify")
    nodes = sum(n for _, n in verify)
    decided = sum(1 for status, _ in verify if status in ("holds", "violated"))
    falsify = kept("verifier.falsify")
    accepted = kept("verifier.validate_witness")
    disjuncts = kept("speclang.to_dnf")
    decoded = kept("onnxproto.decode_model")
    skews = [d - sec for d, sec in tracer.results.get("harness.run_tool", [])]
    scored = kept("scoring.score_records")
    oracle_calls = verdicts.get("oracle_calls", [])
    run_tool = durations("harness.run_tool")
    return {
        "bounds.affine_bounds.calls": calls("bounds.affine_bounds"),
        "bounds.affine_bounds.ms_p50": ms("bounds.affine_bounds"),
        "bounds.affine_bounds.self_share": share("bounds.affine_bounds"),
        "bounds.constraint_lower_bound.calls": calls("bounds.constraint_lower_bound"),
        "bounds.constraint_lower_bound.us_p50": us("bounds.constraint_lower_bound"),
        "network.Box.constructions": calls(BOX_SPAN),
        "network.Box.self_share": share(BOX_SPAN),
        "verifier.nodes": nodes / passes,
        "verifier.nodes_per_s": nodes / sum(durations("verifier.verify")) if nodes else 0.0,
        "verifier.nodes_per_decided": nodes / decided if decided else 0.0,
        "network.forward.calls": calls("network.forward"),
        "network.forward.us_p50": us("network.forward"),
        "network.forward.self_share": share("network.forward"),
        "verifier.output_combination_gradient.calls": calls("verifier.output_combination_gradient"),
        "verifier.output_combination_gradient.us_p50": us("verifier.output_combination_gradient"),
        "verifier.falsify.calls": calls("verifier.falsify"),
        "verifier.falsify.ms_p50": ms("verifier.falsify"),
        "verifier.falsify.hit_ratio": sum(falsify) / len(falsify) if falsify else 0.0,
        "harness.calibrate_epsilon.calls": calls("harness.calibrate_epsilon"),
        "harness.calibrate_epsilon.ms_p50": ms("harness.calibrate_epsilon"),
        "harness.calibrate_epsilon.oracle_calls": _median(oracle_calls),
        "onnxproto.decode_model.ms_p50": ms("onnxproto.decode_model"),
        "onnxproto.decode_model.mb_per_s": (
            sum(decoded) / sum(durations("onnxproto.decode_model")) / 1e6 if decoded else 0.0
        ),
        "network.load_network.calls": calls("network.load_network"),
        "network.load_network.ms_p50": ms("network.load_network"),
        "speclang.parse_vnnlib.ms_p50": ms("speclang.parse_vnnlib"),
        "speclang.to_dnf.ms_p50": ms("speclang.to_dnf"),
        "speclang.to_dnf.disjuncts": sum(disjuncts) / len(disjuncts) if disjuncts else 0.0,
        "verifier.validate_witness.calls": calls("verifier.validate_witness"),
        "verifier.validate_witness.accept_ratio": (
            sum(accepted) / len(accepted) if accepted else 0.0
        ),
        "harness.run_tool.calls": calls("harness.run_tool"),
        "harness.run_tool.ms_p50": 1e3 * _median(run_tool),
        "harness.run_tool.ms_p90": 1e3 * _quantile(run_tool, 90),
        "harness.run_tool.timing_skew_ms": 1e3 * _median(skews),
        "harness.run_baseline.calls": calls("harness.run_baseline"),
        "harness.run_baseline.ms_p50": ms("harness.run_baseline"),
        "harness.load_manifest.ms": ms("harness.load_manifest"),
        "scoring.read_results_dir.ms": ms("scoring.read_results_dir"),
        "scoring.score_records.ms": ms("scoring.score_records"),
        "scoring.score_records.records_per_s": (
            sum(scored) / sum(durations("scoring.score_records")) if scored else 0.0
        ),
        "harness.emit_report.ms": ms("harness.emit_report"),
        "trace.overhead_frac": (
            statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1.0
        ),
    }


def self_time_table(tracer: Tracer, wall: float) -> list:
    """[(span name, self time / wall)], largest first."""
    rows = [(name, e["self"] / wall) for name, e in tracer.summary().items()]
    return sorted(rows, key=lambda r: -r[1])
