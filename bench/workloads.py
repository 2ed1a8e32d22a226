"""The benchmark's three workloads: bab, attack and campaign.

Every workload fixes its work through the public ``Budget`` fields
(``max_subproblems``, ``falsifier_samples``, ``pgd_restarts``,
``pgd_steps``) and gives a wall clock far above what any call needs, so the
timings measure speed and the verdicts and node counts repeat exactly.

A workload is a list of items.  The runner in ``run.py`` times
``run_item`` for each item in a closed loop, one process, no threads, and
hands the first pass's results to ``check``.

- bab: ``verify`` with a node cap on every instance.  Its time goes to the
  bound engine (``affine_bounds``, ``Box``) and the midpoint/corner probes.
- attack: ``falsify`` at the pinned ``EASY_VIOLATED_BUDGET`` on the same
  kind of instances, plus ``calibrate_epsilon`` around seeded centres.  Its
  time goes to ``forward`` and the gradient; the bound engine is idle.
- campaign: the competition loop, ``load_manifest`` -> ``run_batch`` (two
  ``sh`` replay adapters and the ``randgen`` baseline on a tiny budget) ->
  ``read_results_dir`` -> ``score_records`` -> ``emit_report``.  Its time
  goes to subprocesses, ONNX decode, VNNLIB parse, witness validation and
  scoring; branch-and-bound does almost nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shlex
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent

BAB_NETS = 25  # 4 * 25 + 6 = 106 instances
BAB_NODE_CAP = 30
ATTACK_NETS = 25
CALIBRATIONS = 3  # calibrate_epsilon requests per attack pass
EPS_MAX = 0.05
EPS_TOL = EPS_MAX / 8  # three bisection steps per frontier
CAMPAIGN_NETS = 25
SMOKE_NETS = 2  # 4 * 2 + 6 = 14 instances

# Clock limits far above any single call, so budgets end every call.
WALL_SECONDS = 600.0

# Campaign probes the host's speed before every PROBE_EVERY-th tool run.
PROBE_EVERY = 16


def _budget(veribench, **fields):
    return dataclasses.replace(
        veribench.verifier.EASY_VIOLATED_BUDGET, wall_seconds=WALL_SECONDS, **fields
    )


class Workload:
    """Items, a set-up that writes and loads them, and a correctness check."""

    name = ""
    why = ""

    def __init__(self, vb, smoke: bool):
        self.vb = vb  # the veribench package, submodules imported
        self.smoke = smoke

    def setup(self, root: Path, seed: int) -> None:
        raise NotImplementedError

    def items(self) -> list:
        raise NotImplementedError

    def prepare_item(self, item) -> None:
        """Untimed work before an item runs."""

    def run_item(self, item):
        raise NotImplementedError

    def same_result(self, a, b) -> bool:
        return a == b

    def units(self, result) -> int:
        """Instances a result completes; instances_per_s counts these."""
        return 1

    def latencies(self, samples: dict, items: list) -> list:
        """Per-instance seconds to a verdict: each instance's median."""
        return [statistics.median(samples[k]) for k, item in enumerate(items)
                if isinstance(item, gen.Instance)]

    def measuring(self, speed):
        """Context held while items are timed; `speed` is the run's HostSpeed."""
        return contextlib.nullcontext()

    def check(self, results: list) -> dict:
        """Verdict mix, wrong verdicts, unplanted errors of the first pass."""
        raise NotImplementedError


class _Instances(Workload):
    """Shared by bab and attack: every file is loaded once, in set-up."""

    n_nets = 0

    def setup(self, root, seed):
        vb = self.vb
        self.w = gen.generate(root, seed, SMOKE_NETS if self.smoke else self.n_nets)
        self.nets = {k: vb.network.load_network(p) for k, p in self.w.net_paths.items()}
        self.specs = {
            p: vb.speclang.to_dnf(vb.speclang.parse_vnnlib(path.read_text(encoding="utf-8")))
            for p, path in self.w.prop_paths.items()
        }

    def problem(self, inst):
        return self.nets[inst.net_name], self.specs[inst.prop]

    def witness_ok(self, inst, witness) -> bool:
        return gen.witness_ok(self.w.nets[inst.net_name], self.w.props[inst.prop], witness.x)


class Bab(_Instances):
    name = "bab"
    why = "branch-and-bound with a fixed node cap: the bound engine and probes dominate"
    n_nets = BAB_NETS

    def setup(self, root, seed):
        super().setup(root, seed)
        self.budget = _budget(self.vb, max_subproblems=BAB_NODE_CAP)

    def items(self):
        return self.w.instances

    def run_item(self, inst):
        net, spec = self.problem(inst)
        return self.vb.verifier.verify(net, spec, self.budget)

    def same_result(self, a, b):
        return (a.status, a.stats.subproblems) == (b.status, b.stats.subproblems)

    def check(self, results):
        vb = self.vb
        Status = vb.verifier.Status
        mix, wrong, failed = Counter(), [], 0
        holds = []
        for inst, out in zip(self.w.instances, results):
            if isinstance(out, Exception):
                mix["raised"] += 1
                failed += 1
                continue
            mix[out.status.value] += 1
            if out.status is Status.HOLDS:
                if inst.witness is not None:
                    wrong.append("%s: holds, oracle has a violation" % inst.instance_id)
                holds.append(inst)
            elif out.status is Status.VIOLATED:
                if not self.witness_ok(inst, out.witness):
                    wrong.append("%s: witness fails the oracle's check" % inst.instance_id)
            elif out.status is Status.ERROR:
                failed += 1
        # A holds verdict must survive the attack workload's falsifier.
        attack = _budget(vb)
        for inst in holds:
            net, spec = self.problem(inst)
            w = vb.verifier.falsify(net, spec, attack)
            if w is not None and self.witness_ok(inst, w):
                wrong.append("%s: holds, the falsifier found a witness" % inst.instance_id)
        wrong += self.unsound_bounds()
        decided = mix["holds"] + mix["violated"]
        return {"mix": dict(mix), "decided": decided, "wrong": wrong, "failed": failed}

    def unsound_bounds(self) -> list:
        """Spot-check the bound engine, whose pruning every holds rests on.

        Over each instance's first disjunct box, and over a box 1/64 as wide
        around its centre where the bounds are nearly tight, the lower bound
        of every constraint must not exceed the oracle's sampled minimum.
        Skipped when the public bound functions are gone.
        """
        vb = self.vb
        if not all(hasattr(vb.bounds, f) for f in ("affine_bounds", "constraint_lower_bound")):
            return []
        rng = np.random.default_rng(0)
        wrong = []
        for inst in self.w.instances:
            layers, d = self.w.nets[inst.net_name], self.w.props[inst.prop][0]
            mid, half = 0.5 * (d.lower + d.upper), 0.5 * (d.upper - d.lower)
            for lo, hi in ((d.lower, d.upper), (mid - half / 64, mid + half / 64)):
                ab = vb.bounds.affine_bounds(self.nets[inst.net_name], vb.network.Box(lo, hi))
                xs = lo + rng.random((256, lo.size)) * (hi - lo)
                ys = gen.oracle_forward(layers, xs)
                for cx, cy in zip(d.cx, d.cy):
                    lb = vb.bounds.constraint_lower_bound(ab, cy, cx)
                    low = float(np.min(xs @ cx + ys @ cy))
                    if lb > low + gen.WITNESS_TOL * max(1.0, abs(low)):
                        wrong.append("%s: constraint lower bound %.6g above sampled %.6g"
                                     % (inst.instance_id, lb, low))
        return wrong


class Attack(_Instances):
    name = "attack"
    why = "falsifier and eps calibration: forward and gradient dominate, bounds idle"
    n_nets = ATTACK_NETS

    def setup(self, root, seed):
        super().setup(root, seed)
        self.budget = _budget(self.vb)
        rng = np.random.default_rng([seed, 0xCA1])
        names = sorted(self.nets)
        self.requests = []
        for k in range(1 if self.smoke else CALIBRATIONS):
            name = names[k % len(names)]
            centre = rng.uniform(-0.5, 0.5, gen.WIDTHS[0])
            self.requests.append(
                (name, self.vb.harness.CalibrationRequest(self.nets[name], centre, EPS_MAX, EPS_TOL))
            )

    def items(self):
        return list(self.w.instances) + self.requests

    def run_item(self, item):
        vb = self.vb
        if isinstance(item, gen.Instance):
            net, spec = self.problem(item)
            return vb.verifier.falsify(net, spec, self.budget)
        _, req = item
        attack, certify = vb.harness.make_robustness_oracles(req, self.budget)
        calls, certified = [0], []

        def attack_counted(eps):
            calls[0] += 1
            return attack(eps)

        def certify_counted(eps):
            calls[0] += 1
            ok = certify(eps)
            if ok:
                certified.append(eps)
            return ok

        eps = vb.harness.calibrate_epsilon(req, attack_counted, certify_counted)
        return (eps, calls[0], max(certified, default=0.0))

    def units(self, result):
        return 0 if isinstance(result, tuple) else 1

    def same_result(self, a, b):
        if a is None or b is None or isinstance(a, tuple):
            return a == b
        return a.x == b.x

    def check(self, results):
        mix, wrong, failed = Counter(), [], 0
        n = len(self.w.instances)
        for inst, out in zip(self.w.instances, results[:n]):
            if isinstance(out, Exception):
                mix["raised"] += 1
                failed += 1
            elif out is None:
                mix["no witness"] += 1
            else:
                mix["witness"] += 1
                if not self.witness_ok(inst, out):
                    wrong.append("%s: witness fails the oracle's check" % inst.instance_id)
        oracle_calls = []
        for (name, req), out in zip(self.requests, results[n:]):
            if isinstance(out, Exception):
                failed += 1
                continue
            eps, calls, certified = out
            oracle_calls.append(calls)
            if not 0.0 <= eps <= EPS_MAX:
                wrong.append("calibration on %s: eps %r outside [0, eps_max]" % (name, eps))
            if certified > 0 and gen.label_flip(self.w.nets[name], req.center, certified):
                wrong.append("calibration on %s: radius %g certified, oracle flips the label"
                             % (name, certified))
        return {"mix": dict(mix), "decided": mix["witness"], "wrong": wrong, "failed": failed,
                "oracle_calls": oracle_calls}


class Campaign(Workload):
    name = "campaign"
    why = "manifest -> subprocess runs -> scoring: I/O, parsing and validation dominate"

    # tool ids: the two replay adapters and the baseline
    AGREE, DISSENT, BASELINE = "agree", "dissent", "randgen"
    N_TRIVIAL = 3

    def setup(self, root, seed):
        vb = self.vb
        self.root = root
        self.w = gen.generate(root, seed, SMOKE_NETS if self.smoke else CAMPAIGN_NETS)
        self.budget = _budget(vb, max_subproblems=2, falsifier_samples=8, pgd_restarts=1,
                              pgd_steps=4)
        rng = np.random.default_rng([seed, 0xCA3])
        known = [i for i in self.w.instances if i.witness is not None]
        unknown = [i for i in self.w.instances if i.witness is None]
        # the dissenter says holds on a quarter of the known violations and
        # claims violated with a corrupt witness on half of the rest
        self.planted_holds = {known[k].instance_id for k in
                              rng.choice(len(known), max(1, len(known) // 4), replace=False)}
        self.planted_corrupt = {unknown[k].instance_id for k in
                                rng.choice(len(unknown), max(1, len(unknown) // 2), replace=False)}
        tables = {t: root / ("replay-" + t) for t in (self.AGREE, self.DISSENT)}
        for d in tables.values():
            d.mkdir()
        wdir = root / "witnesses"
        wdir.mkdir()
        corrupt_kinds = (_corrupt_outside, _corrupt_short, _corrupt_garbage)
        for k, inst in enumerate(self.w.instances):
            if inst.witness is not None:
                path = wdir / (inst.instance_id + ".txt")
                path.write_text(_witness_text(inst.witness), encoding="utf-8")
                agree = "violated\n%s\n" % path
            else:
                agree = "holds\n"
            dissent = agree
            if inst.instance_id in self.planted_holds:
                dissent = "holds\n"
            elif inst.instance_id in self.planted_corrupt:
                path = wdir / (inst.instance_id + ".bad.txt")
                lower = self.w.props[inst.prop][0].lower
                path.write_text(corrupt_kinds[k % 3](lower), encoding="utf-8")
                dissent = "violated\n%s\n" % path
            (tables[self.AGREE] / inst.instance_id).write_text(agree, encoding="utf-8")
            (tables[self.DISSENT] / inst.instance_id).write_text(dissent, encoding="utf-8")
        for k in range(self.N_TRIVIAL):
            for d in tables.values():
                (d / ("trivial-%d-trivial-%d" % (k, k))).write_text("unknown\n", encoding="utf-8")
        script = shlex.quote(str(HERE / "replay.sh"))
        self.adapters = [
            vb.harness.ToolAdapter(
                tool, "sh %s %s {network} {spec} {result}" % (script, shlex.quote(str(d)))
            )
            for tool, d in sorted(tables.items())
        ]
        self.pass_no = 0
        self.latency: dict = {}  # (tool, instance_id) -> [seconds per pass]

    def items(self):
        return [None]  # one item is one whole campaign

    def prepare_item(self, item):
        # the first pass's output stays for check(); later passes reuse one dir
        self.out = self.root / ("run-%s" % ("first" if self.pass_no == 0 else "next"))
        if self.out.exists():
            shutil.rmtree(self.out)
        self.pass_no += 1

    def run_item(self, item):
        vb = self.vb
        instances = vb.harness.load_manifest(self.w.manifest, require_files=True)
        vb.harness.run_batch(
            instances,
            self.adapters,
            self.out,
            baseline=self.BASELINE,
            baseline_budget=self.budget,
            n_trivial=self.N_TRIVIAL,
        )
        records = vb.scoring.read_results_dir(self.out)
        ledger = vb.scoring.score_records(records)
        written = vb.harness.emit_report(ledger, self.out / "report")
        return {
            "records": {(r.tool, r.instance_id): (r.status.value, r.witness_path) for r in records},
            "labels": {
                (tool, s.instance_id): label.value
                for s in ledger.instance_scores.values()
                for tool, label in s.labels.items()
            },
            "written": len(written),
        }

    def same_result(self, a, b):
        strip = lambda r: {k: v[0] for k, v in r["records"].items()}
        return strip(a) == strip(b) and a["labels"] == b["labels"]

    def units(self, result) -> int:
        return 1 if isinstance(result, Exception) else len(result["records"])

    def latencies(self, samples, items):
        """Per instance, the summed median times of its three tools' runs."""
        per_instance: dict = {}
        for (tool, iid), times in self.latency.items():
            per_instance[iid] = per_instance.get(iid, 0.0) + statistics.median(times)
        return list(per_instance.values())

    @contextlib.contextmanager
    def measuring(self, speed):
        """Time every run_tool and run_baseline call run_batch makes, scaled
        by the latest probe of the host's speed."""
        harness = self.vb.harness
        originals = harness.run_tool, harness.run_baseline
        calls = [0]

        def timed(fn):
            def call(*args, **kwargs):
                if calls[0] % PROBE_EVERY == 0:
                    speed.probe()
                calls[0] += 1
                t0 = time.perf_counter()
                record = fn(*args, **kwargs)
                self.latency.setdefault((record.tool, record.instance_id), []).append(
                    (time.perf_counter() - t0) * speed.scale()
                )
                return record

            return call

        harness.run_tool, harness.run_baseline = (timed(f) for f in originals)
        try:
            yield
        finally:
            harness.run_tool, harness.run_baseline = originals

    def check(self, results):
        out = results[0]
        if isinstance(out, Exception):
            return {"mix": {"raised": 1}, "decided": 0, "wrong": [], "failed": 1}
        records, labels = out["records"], out["labels"]
        by_id = {i.instance_id: i for i in self.w.instances}
        mix, wrong, failed, planted = Counter(), [], 0, 0
        expected = 3 * len(self.w.instances) + 3 * self.N_TRIVIAL
        if len(records) != expected:
            wrong.append("%d records, expected %d" % (len(records), expected))
        for (tool, iid), (status, witness) in sorted(records.items()):
            mix[status] += 1
            inst = by_id.get(iid)
            if inst is None:  # trivial warm-up rows
                failed += status == "error"
                continue
            if status == "error":
                if tool == self.DISSENT and iid in self.planted_corrupt:
                    planted += 1
                else:
                    failed += 1
            elif status == "holds" and inst.witness is not None:
                if not (tool == self.DISSENT and iid in self.planted_holds):
                    wrong.append("%s on %s: holds, oracle has a violation" % (tool, iid))
            elif status == "violated":
                ok = False
                try:
                    text = Path(witness).read_text(encoding="utf-8")
                    ok = gen.witness_ok(self.w.nets[inst.net_name], self.w.props[inst.prop],
                                        _parse_witness_x(text))
                except (OSError, ValueError):
                    pass
                if not ok:
                    wrong.append("%s on %s: accepted witness fails the oracle's check"
                                 % (tool, iid))
            if tool == self.DISSENT and iid in self.planted_corrupt and status != "error":
                wrong.append("%s on %s: corrupt witness was not rejected" % (tool, iid))
        for (tool, iid), label in sorted(labels.items()):
            statuses = {t: records[(t, iid)][0] for t in (self.AGREE, self.DISSENT, self.BASELINE)}
            if label != _odd_one_out(statuses)[tool]:
                wrong.append("%s on %s: scored %s" % (tool, iid, label))
        if out["written"] < 4:
            wrong.append("emit_report wrote %d files" % out["written"])
        decided = mix["holds"] + mix["violated"]
        return {"mix": dict(mix), "decided": decided, "wrong": wrong, "failed": failed,
                "planted_errors": planted, "records": len(records)}


def _odd_one_out(statuses: dict) -> dict:
    """The documented odd-one-out labels, for records without validated witnesses."""
    solved = {t: s for t, s in statuses.items() if s in ("holds", "violated")}
    labels = {t: "unsolved" for t in statuses if t not in solved}
    counts = Counter(solved.values())
    verdict = None
    if len(counts) == 1:
        verdict = next(iter(counts))
    elif counts["holds"] == 1 and counts["violated"] > 1:
        verdict = "violated"
    elif counts["violated"] == 1 and counts["holds"] > 1:
        verdict = "holds"
    for t, s in solved.items():
        labels[t] = "ignored" if verdict is None else ("correct" if s == verdict else "incorrect")
    return labels


def _witness_text(x) -> str:
    return "".join("X_%d %r\n" % (i, float(v)) for i, v in enumerate(x))


def _parse_witness_x(text: str) -> np.ndarray:
    xs = []
    for line in text.split("\n"):
        if line.startswith("X_"):
            xs.append(float(line.split()[1]))
    return np.array(xs)


def _corrupt_outside(lower) -> str:
    return _witness_text(np.asarray(lower) - 0.25)


def _corrupt_short(lower) -> str:
    return _witness_text(np.asarray(lower)[:-1])


def _corrupt_garbage(lower) -> str:
    return "X_0 not-a-number\n"


WORKLOADS = {w.name: w for w in (Bab, Attack, Campaign)}
