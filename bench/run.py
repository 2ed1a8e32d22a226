"""veribench benchmark: one workload, one seed, one JSON line.

Run from the repository root:

    python3 bench/run.py --workload bab --seed 1 --seconds 15 --trace 0

Workloads are ``bab``, ``attack`` and ``campaign`` (see workloads.py).  The
run generates its inputs from ``--seed`` under ``.bench_run/`` in the
repository and runs the workload in a closed loop, one item after another,
until ``--seconds`` have passed and every item ran at least twice.  Every
time is scaled to a reference host speed, probed just before the timed work
(see hostspeed.py), and an item's time is its median over the passes.
Set-up is repeated between passes, spread over the run, and ``setup_s`` is
the median.  The outputs of the first pass are checked against the
benchmark's own oracle.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, from spans recorded around veribench's public functions;
its times are raw, not scaled.
``--smoke`` runs the workload at minimal scale and for the shortest time,
for the benchmark's own tests.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A full record
(environment, verdict mix, sample counts) is written to
``.bench_run/result-<workload>-<seed>-trace<0|1>.json`` and, with
``--trace 1``, the spans to ``trace-<workload>-<seed>.csv.gz`` beside it.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small and the load is one closed loop.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import logging
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MODULES = ("_onnxproto", "network", "speclang", "bounds", "verifier", "scoring", "harness")


def load_veribench():
    """Import veribench from this checkout's src/, never from elsewhere."""
    if not (SRC / "veribench" / "__init__.py").is_file():
        raise SystemExit("bench: %s/veribench not found; run from a veribench checkout" % SRC)
    sys.path.insert(0, str(SRC))
    vb = importlib.import_module("veribench")
    if Path(vb.__file__).resolve().parent != SRC / "veribench":
        raise SystemExit("bench: imported veribench from %s, not %s" % (vb.__file__, SRC))
    for name in MODULES:
        importlib.import_module("veribench." + name)
    return vb


def environment() -> dict:
    import numpy

    uname = os.uname()
    ncpu = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else ncpu,
        "cpu_count": ncpu,
        "blas_threads": {v: os.environ.get(v, "") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": "%s-%s-%s-%dcpu" % (uname.sysname, uname.machine, uname.release, ncpu or 0),
    }


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if len(values) else 0.0


class Runner:
    """Closed-loop timing of one workload's items."""

    def __init__(self, workload, speed):
        self.w = workload
        self.speed = speed
        self.items = workload.items()
        self.samples = defaultdict(list)  # item index -> [seconds at reference speed]
        self.first: list = []
        self.mismatch: list = []
        self.passes = 0

    def run_pass(self, deadline=None) -> float:
        """One pass over the items; returns its wall time, less the time spent
        probing the host's speed.  With a deadline the pass stops early once
        it has passed.  An item's time is scaled to reference speed by the
        probes taken from just before it to its end."""
        speed = self.speed
        start, probing = time.perf_counter(), speed.spent
        for k, item in enumerate(self.items):
            self.w.prepare_item(item)
            since = len(speed.durations)
            speed.probe()
            inside = speed.spent
            t0 = time.perf_counter()
            try:
                result = self.w.run_item(item)
            except Exception as exc:  # a failing call is counted, never fatal
                traceback.print_exc(file=sys.stderr)
                result = exc
            elapsed = time.perf_counter() - t0 - (speed.spent - inside)
            self.samples[k].append(elapsed * speed.scale(since))
            if self.passes == 0:
                self.first.append(result)
            elif not _same(self.w, self.first[k], result):
                self.mismatch.append(k)
            if deadline is not None and time.perf_counter() >= deadline:
                break
        self.passes += 1
        return time.perf_counter() - start - (speed.spent - probing)

    def medians(self) -> list:
        return [statistics.median(self.samples[k]) for k in range(len(self.items))]


def _same(w, a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return w.same_result(a, b)


def measure(workload, seconds: float, trace: bool, speed, between=lambda elapsed: None):
    """Run passes until `seconds` have passed; in trace mode alternate an
    untraced and a traced full pass.  Every item runs at least twice.
    `between(elapsed)` runs after every pass, untimed."""
    import spans as tracing

    runner = Runner(workload, speed)
    tracer = tracing.Tracer() if trace else None
    walls = {"untraced": [], "traced": []}
    start = time.perf_counter()
    deadline = start + seconds
    with workload.measuring(speed):
        if not trace:
            # two full passes at least, so every item's repeat is checked
            for _ in range(2):
                walls["untraced"].append(runner.run_pass())
                between(time.perf_counter() - start)
            while time.perf_counter() < deadline:
                walls["untraced"].append(runner.run_pass(deadline))
                between(time.perf_counter() - start)
        else:
            while True:
                walls["untraced"].append(runner.run_pass())
                with tracing.installed(tracer), tracer.span("bench.pass"):
                    walls["traced"].append(runner.run_pass())
                between(time.perf_counter() - start)
                if time.perf_counter() >= deadline:
                    break
    return runner, tracer, walls


# Units of the end-to-end numbers printed; BENCHMARK.json declares those
# that are gated.  wrong_verdicts and error_frac must be 0, so they gate
# through "correct" and "failed" instead of a bound.
E2E_UNITS = {
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_p90_ms": "ms",
    "decided_frac": "1",
    "wrong_verdicts": "count",
    "error_frac": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def main(argv=None) -> int:
    import hostspeed
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal scale, shortest run")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_run")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    vb = load_veribench()
    logging.getLogger("veribench").addHandler(logging.NullHandler())
    import spans as tracing

    make = workloads.WORKLOADS[args.workload]
    seconds = 0.0 if args.smoke else args.seconds
    reps = 1 if args.smoke else SETUP_REPS

    args.out.mkdir(parents=True, exist_ok=True)
    work = args.out / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    setup_times = []
    # Traced runs report raw times: probes would land in the spans.
    speed = hostspeed.Unscaled() if args.trace else hostspeed.HostSpeed()

    def set_up(workload):
        root = work / ("setup-%d" % len(setup_times)) / "acasxu"  # the benchmark's name
        since = len(speed.durations)
        speed.probe()
        t0 = time.perf_counter()
        workload.setup(root, args.seed)
        elapsed = time.perf_counter() - t0
        speed.probe()
        setup_times.append(elapsed * speed.scale(since))
        return root.parent

    def set_up_again(elapsed):
        """Repeat set-up in a fresh workload at evenly spread times, so that
        setup_s samples the whole run, not one moment of the host's speed."""
        if len(setup_times) < reps and elapsed >= seconds * len(setup_times) / reps:
            shutil.rmtree(set_up(make(vb, args.smoke)))

    try:
        workload = make(vb, args.smoke)
        set_up(workload)
        runner, tracer, walls = measure(workload, seconds, bool(args.trace), speed, set_up_again)
        while len(setup_times) < reps:  # passes too long to fit every repeat in
            set_up_again(seconds)
        verdicts = workload.check(runner.first)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_units = sum(workload.units(r) for r in runner.first)
    medians = runner.medians()
    latencies = workload.latencies(runner.samples, runner.items)
    wrong = verdicts["wrong"] + ["item %d: result differs between passes" % k
                                 for k in sorted(set(runner.mismatch))]
    e2e = {
        "instances_per_s": n_units / sum(medians),
        "instance_p50_ms": 1e3 * percentile(latencies, 50),
        "instance_p90_ms": 1e3 * percentile(latencies, 90),
        "decided_frac": verdicts["decided"] / n_units,
        "wrong_verdicts": len(wrong),
        "error_frac": verdicts["failed"] / n_units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    info = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": environment(),
        "units": n_units,
        "items": len(runner.items),
        "passes": runner.passes,
        "samples": sum(len(s) for s in runner.samples.values()),
        "latency_samples": len(latencies),
        "latencies_ms": sorted(1e3 * x for x in latencies),
        "reference_seconds": hostspeed.REFERENCE_SECONDS if not args.trace else None,
        "probe_ms": [1e3 * k for k in speed.durations],
        "setup_times": setup_times,
        "pass_walls": walls,
        "verdict_mix": verdicts["mix"],
        "wrong": wrong,
        "planted_errors": verdicts.get("planted_errors", 0),
        "end_to_end": e2e,
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer, walls, verdicts)
        info["per_layer"] = layers
        info["self_time"] = tracing.self_time_table(tracer, sum(walls["traced"]))
        tracer.write(args.out / ("trace-%s-%d.csv.gz" % (args.workload, args.seed)))
        declared = spec["per_layer"]
        values = layers
    else:
        declared = spec["end_to_end"]
        values = e2e
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit("bench: metrics %s declared in BENCHMARK.json but not measured" % missing)
    (args.out / ("result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(info, indent=1, default=str), encoding="utf-8"
    )

    print("workload %s seed %d: %d units in %d items, %d passes, %d latency samples"
          % (args.workload, args.seed, n_units, len(runner.items), runner.passes, len(latencies)))
    print("verdicts %s; planted errors left out of error_frac: %d"
          % (json.dumps(verdicts["mix"], sort_keys=True), info["planted_errors"]))
    for line in wrong[:20]:
        print("  wrong: " + line)
    for name, value in e2e.items():
        print("  %-18s %.6g %s" % (name, value, E2E_UNITS[name]))
    if args.trace:
        for name, share in info["self_time"][:12]:
            print("  self %-40s %5.1f%%" % (name, 100 * share))
    print("environment " + json.dumps(info["environment"], sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": n_units,
        "failed": verdicts["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
