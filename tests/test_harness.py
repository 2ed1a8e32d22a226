"""Harness tests: manifests, subprocess runs, baseline, overhead,
calibration, and report emission.  Adapter fixtures are tiny python
scripts driven through the real subprocess path."""

import dataclasses
import math
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_node
import veribench._onnxproto as wire
import veribench.harness as harness
from veribench.harness import (
    CalibrationRequest,
    HarnessError,
    Instance,
    ToolAdapter,
    TRIVIAL_SPEC_TEXT,
    build_adapters,
    calibrate_epsilon,
    emit_report,
    load_manifest,
    make_robustness_oracles,
    parse_config,
    run_baseline,
    run_batch,
    run_tool,
)
from veribench.bounds import affine_bounds, constraint_lower_bound
from veribench.network import Box, forward, gen_trivial_network, network_to_onnx_bytes, save_network
from veribench.scoring import RunRecord, build_overhead_model, empty_ledger, read_results_csv, score_records
from veribench.verifier import Status

def save_manifest(path, instances) -> None:
    """Write instances back out, paths relative to the manifest location."""
    path = Path(path)
    base = path.resolve().parent
    lines = []
    for inst in instances:
        timeout = inst.timeout
        timeout_text = "%d" % timeout if timeout == int(timeout) else repr(timeout)
        lines.append(
            "%s,%s,%s"
            % (
                os.path.relpath(inst.network_path, base),
                os.path.relpath(inst.spec_path, base),
                timeout_text,
            )
        )
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


RUNNER_SOURCE = '''\
import sys, time
delay = float(sys.argv[1])
status = sys.argv[2]
result = sys.argv[3]
time.sleep(delay)
if status == "crash":
    print("boom")
    sys.exit(3)
if status == "garbage":
    print("some diagnostic chatter")
    with open(result, "w") as fh:
        fh.write("maybe 42\\n")
    sys.exit(0)
if status == "nonzero-exit":
    with open(result, "w") as fh:
        fh.write("holds\\n")
    sys.exit(1)
lines = [status]
if len(sys.argv) > 4:
    lines.append(sys.argv[4])
with open(result, "w") as fh:
    fh.write("\\n".join(lines) + "\\n")
'''

HOLDS_SPEC_TEXT = (
    "(declare-const X_0 Real)\n"
    "(declare-const Y_0 Real)\n"
    "(assert (>= X_0 0.0))\n"
    "(assert (<= X_0 1.0))\n"
    "(assert (>= Y_0 2.0))\n"
)


@pytest.fixture()
def runner(tmp_path):
    script = tmp_path / "runner.py"
    script.write_text(RUNNER_SOURCE)

    def make(status, delay=0.0, extra="", tool="echo", mode="default"):
        template = "python3 %s %s %s {result}" % (script, delay, status)
        if extra:
            template += " " + extra
        return ToolAdapter(tool=tool, run_template=template, mode=mode)

    return make


@pytest.fixture()
def trivial_instance(tmp_path):
    net_path = tmp_path / "net.onnx"
    spec_path = tmp_path / "spec.vnnlib"
    save_network(gen_trivial_network(1), net_path)
    spec_path.write_text(TRIVIAL_SPEC_TEXT)
    return Instance(
        instance_id="net-spec",
        benchmark="bench",
        network_path=net_path,
        spec_path=spec_path,
        timeout=60.0,
    )


class TestInstanceAndAdapter:
    def test_non_positive_timeout_rejected(self, tmp_path):
        with pytest.raises(HarnessError, match="non-positive timeout"):
            Instance("i", "b", tmp_path / "n", tmp_path / "s", 0.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), "nan", "inf"])
    def test_non_finite_timeout_rejected(self, tmp_path, timeout):
        # nan <= 0 is false, so a plain sign test let nan through
        with pytest.raises(HarnessError, match="non-finite timeout"):
            Instance("i", "b", tmp_path / "n", tmp_path / "s", timeout)

    def test_argv_substitution(self):
        adapter = ToolAdapter(
            tool="t", run_template="tool --net={network} {spec} {timeout} {result}"
        )
        argv = adapter.argv("n.onnx", "s.vnnlib", 116.0, "r.txt")
        assert argv == ["tool", "--net=n.onnx", "s.vnnlib", "116", "r.txt"]

    def test_empty_run_template_rejected(self):
        with pytest.raises(HarnessError, match="needs a run command"):
            ToolAdapter(tool="t", run_template="   ")


class TestManifest:
    def write_manifest(self, tmp_path, rows, name="instances.csv"):
        bench = tmp_path / "acasxu"
        bench.mkdir(exist_ok=True)
        path = bench / name
        path.write_text("".join(r + "\n" for r in rows))
        return path

    def test_instances_in_file_order_with_derived_ids(self, tmp_path):
        path = self.write_manifest(
            tmp_path,
            [
                "nets/ACASXU_run2a_1_1_batch_2000.onnx,specs/prop_1.vnnlib,116",
                "nets/ACASXU_run2a_1_2_batch_2000.onnx,specs/prop_1.vnnlib,116",
            ],
        )
        instances = load_manifest(path)
        assert [i.instance_id for i in instances] == [
            "ACASXU_run2a_1_1_batch_2000-prop_1",
            "ACASXU_run2a_1_2_batch_2000-prop_1",
        ]
        assert all(i.benchmark == "acasxu" for i in instances)
        assert all(i.timeout == 116.0 for i in instances)
        assert instances[0].network_path.is_absolute()

    def test_header_row_tolerated(self, tmp_path):
        path = self.write_manifest(
            tmp_path,
            ["onnx_path,vnnlib_path,timeout_seconds", "n.onnx,s.vnnlib,10"],
        )
        assert len(load_manifest(path)) == 1

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(HarnessError, match="manifest not found"):
            load_manifest(tmp_path / "nope.csv")

    def test_bad_row_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, ["only-two,fields"])
        with pytest.raises(HarnessError, match="bad manifest row"):
            load_manifest(path)

    def test_non_positive_timeout_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, ["n.onnx,s.vnnlib,0"])
        with pytest.raises(HarnessError, match="non-positive timeout"):
            load_manifest(path)

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_timeout_rejected(self, tmp_path, timeout):
        path = self.write_manifest(tmp_path, ["n.onnx,s.vnnlib,10", "n.onnx,s.vnnlib," + timeout])
        with pytest.raises(HarnessError, match=r"timeout .* at .* line 2$"):
            load_manifest(path)

    def test_timeout_over_cap_rejected(self, tmp_path):
        # 3e6 s plus grace is past the 2**31 ms the OS wait takes, which used
        # to raise OverflowError out of run_tool and abort run_batch
        path = self.write_manifest(tmp_path, ["n.onnx,s.vnnlib,3e6"])
        with pytest.raises(HarnessError, match=r"over the 1e\+06 s cap at .* line 1$"):
            load_manifest(path)

    def test_empty_manifest_warns(self, tmp_path):
        path = self.write_manifest(tmp_path, [])
        with pytest.warns(UserWarning, match="no instances"):
            assert load_manifest(path) == []

    def test_six_hour_budget_warning(self, tmp_path):
        rows = ["n%d.onnx,s.vnnlib,7200" % i for i in range(4)]
        path = self.write_manifest(tmp_path, rows)
        with pytest.warns(UserWarning, match="6-hour budget"):
            instances = load_manifest(path)
        assert len(instances) == 4

    def test_require_files(self, tmp_path, trivial_instance):
        bench = tmp_path / "acasxu"
        bench.mkdir(exist_ok=True)
        path = bench / "instances.csv"
        path.write_text(
            "%s,%s,10\n" % (trivial_instance.network_path, trivial_instance.spec_path)
        )
        assert len(load_manifest(path, require_files=True)) == 1
        path.write_text("ghost.onnx,ghost.vnnlib,10\n")
        with pytest.raises(HarnessError, match="instance file not found"):
            load_manifest(path, require_files=True)

    def test_duplicate_instance_rejected_naming_both_lines(self, tmp_path):
        path = self.write_manifest(
            tmp_path,
            ["nets/a.onnx,specs/p.vnnlib,10", "nets/b.onnx,specs/p.vnnlib,10",
             "nets/a.onnx,specs/p.vnnlib,20"],
        )
        with pytest.raises(HarnessError, match=r"duplicate instance a-p at .* lines 1 and 3$"):
            load_manifest(path)

    def test_duplicate_id_from_other_paths_rejected(self, tmp_path):
        # ids are <network stem>-<spec stem>, so these two rows would share
        # one row in every results CSV
        path = self.write_manifest(
            tmp_path, ["nets/a.onnx,specs/p.vnnlib,10", "other/a.onnx,specs/p.vnnlib,10"]
        )
        with pytest.raises(HarnessError, match=r"duplicate instance a-p at .* lines 1 and 2$"):
            load_manifest(path)

    def test_round_trip_idempotent(self, tmp_path):
        path = self.write_manifest(
            tmp_path,
            ["nets/a.onnx,specs/p1.vnnlib,116", "nets/b.onnx,specs/p2.vnnlib,30.5"],
        )
        first = load_manifest(path)
        out = path.parent / "copy.csv"
        save_manifest(out, first)
        second = load_manifest(out)
        assert first == second
        save_manifest(out, second)
        assert load_manifest(out) == second


class TestRunTool:
    def test_holds_result(self, runner, trivial_instance, tmp_path):
        record = run_tool(runner("holds"), trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.HOLDS
        assert record.tool == "echo"
        assert record.benchmark == "bench"
        assert 0 <= record.seconds < 10

    def test_timeout_kills_and_caps(self, runner, trivial_instance, tmp_path, monkeypatch):
        inst = Instance(
            instance_id=trivial_instance.instance_id,
            benchmark="bench",
            network_path=trivial_instance.network_path,
            spec_path=trivial_instance.spec_path,
            timeout=1.0,
        )
        start = time.monotonic()
        monkeypatch.setattr(harness, "GRACE_SECONDS", 0.5)
        record = run_tool(runner("holds", delay=30.0), inst, result_dir=tmp_path / "r")
        wall = time.monotonic() - start
        assert record.status is Status.TIMEOUT
        assert record.seconds == 1.0
        assert wall <= 1.0 + 0.5 + 2.0

    def test_crash_without_result_is_error(self, runner, trivial_instance, tmp_path):
        record = run_tool(runner("crash"), trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.ERROR

    def test_garbage_result_is_error_with_output_attached(
        self, runner, trivial_instance, tmp_path
    ):
        record = run_tool(runner("garbage"), trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.ERROR
        out = tmp_path / "r" / ("%s.out" % trivial_instance.instance_id)
        assert out.is_file()
        assert "diagnostic chatter" in out.read_text()

    def test_nonzero_exit_with_result_file_accepted(
        self, runner, trivial_instance, tmp_path
    ):
        record = run_tool(
            runner("nonzero-exit"), trivial_instance, result_dir=tmp_path / "r"
        )
        assert record.status is Status.HOLDS

    def test_missing_binary_is_error_not_exception(self, trivial_instance, tmp_path):
        adapter = ToolAdapter(tool="ghost", run_template="/does/not/exist {result}")
        record = run_tool(adapter, trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.ERROR

    def test_valid_witness_kept_in_strict_mode(self, runner, trivial_instance, tmp_path):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 0.5\n")
        record = run_tool(
            runner("violated", extra=str(witness)),
            trivial_instance,
            result_dir=tmp_path / "r",
        )
        assert record.status is Status.VIOLATED
        assert record.witness_path == str(witness)

    def test_corrupted_witness_is_error_in_strict_mode(
        self, runner, trivial_instance, tmp_path
    ):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 99\n")
        record = run_tool(
            runner("violated", extra=str(witness)),
            trivial_instance,
            result_dir=tmp_path / "r",
        )
        assert record.status is Status.ERROR

    def test_corrupted_witness_kept_in_lenient_mode(
        self, runner, trivial_instance, tmp_path
    ):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 99\n")
        record = run_tool(
            runner("violated", extra=str(witness)),
            trivial_instance,
            result_dir=tmp_path / "r",
            strict_witness=False,
        )
        assert record.status is Status.VIOLATED

    def test_witness_path_resolved_relative_to_result(
        self, runner, trivial_instance, tmp_path
    ):
        result_dir = tmp_path / "r"
        result_dir.mkdir()
        (result_dir / "w.txt").write_text("X_0 0.25\nY_0 0.25\n")
        record = run_tool(
            runner("violated", extra="w.txt"), trivial_instance, result_dir=result_dir
        )
        assert record.status is Status.VIOLATED
        assert record.witness_path == str(result_dir / "w.txt")


class TestProcessLifetime:
    """A run ends when its child exits or is killed: output goes to a file,
    so a background child holding it cannot stretch the run, and the
    child's whole process group is killed on every path."""

    @pytest.fixture()
    def fast_grace(self, monkeypatch):
        monkeypatch.setattr(harness, "GRACE_SECONDS", 0.2)

    @staticmethod
    def short(inst, timeout):
        return dataclasses.replace(inst, timeout=timeout)

    @staticmethod
    def kill_group(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def test_background_child_holding_output_does_not_stretch_run(
        self, fast_grace, trivial_instance, tmp_path
    ):
        adapter = ToolAdapter("bg", "sh -c 'echo holds > {result}; sleep 3 &'")
        start = time.monotonic()
        record = run_tool(adapter, self.short(trivial_instance, 2.0), result_dir=tmp_path / "r")
        assert record.status is Status.HOLDS
        assert time.monotonic() - start < 1.0

    def test_group_killed_after_normal_exit(self, fast_grace, trivial_instance, tmp_path):
        # the adapter leaves a child that does not hold its output
        pgid_file = tmp_path / "pgid"
        adapter = ToolAdapter(
            "bg",
            "python3 -c \"import os, subprocess, sys; "
            "open(sys.argv[1], 'w').write(str(os.getpgrp())); "
            "subprocess.Popen(['sleep', '10'], stdout=subprocess.DEVNULL); "
            "open(sys.argv[2], 'w').write('holds')\" %s {result}" % pgid_file,
        )
        record = run_tool(adapter, self.short(trivial_instance, 2.0), result_dir=tmp_path / "r")
        pgid = int(pgid_file.read_text())
        try:
            assert record.status is Status.HOLDS
            # the killed orphan stays a group member, as a zombie, until
            # init reaps it; some inits take a second or two
            deadline = time.monotonic() + 5.0
            with pytest.raises(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(pgid, 0)
                    time.sleep(0.01)
        finally:
            self.kill_group(pgid)

    def test_timed_out_run_keeps_its_output(self, fast_grace, trivial_instance, tmp_path):
        adapter = ToolAdapter("slow", "sh -c 'echo started; echo $$ > %s; sleep 3'"
                              % (tmp_path / "pgid"))
        record = run_tool(adapter, self.short(trivial_instance, 0.3), result_dir=tmp_path / "r")
        pgid = int((tmp_path / "pgid").read_text())
        try:
            assert record.status is Status.TIMEOUT
            out = tmp_path / "r" / ("%s.out" % trivial_instance.instance_id)
            assert out.read_text() == "started\n"
        finally:
            self.kill_group(pgid)

    def test_runs_end_without_pidfd(
        self, fast_grace, runner, trivial_instance, tmp_path, monkeypatch
    ):
        # where os.pidfd_open is missing, Popen.wait(timeout) waits instead
        monkeypatch.delattr(os, "pidfd_open", raising=False)
        record = run_tool(runner("holds"), trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.HOLDS
        start = time.monotonic()
        record = run_tool(
            runner("holds", delay=30.0), self.short(trivial_instance, 0.3),
            result_dir=tmp_path / "r",
        )
        assert record.status is Status.TIMEOUT
        assert time.monotonic() - start < 0.3 + 0.2 + 2.0

    def test_prepare_with_background_child_returns_at_once(self, tmp_path):
        pid_file = tmp_path / "pid"
        adapter = ToolAdapter(
            "bg", "true", prepare="sh -c 'sleep 3 & echo $! > %s'" % pid_file
        )
        start = time.monotonic()
        harness.prepare_adapter(adapter)
        try:
            assert time.monotonic() - start < 1.0
        finally:
            try:
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestRunBaseline:
    def test_trivial_instance_violated_fast(self, trivial_instance, tmp_path):
        record = run_baseline(trivial_instance, witness_dir=tmp_path / "w")
        assert record.status is Status.VIOLATED
        assert record.seconds < 1.0
        assert record.tool == "randgen"
        assert (tmp_path / "w" / "net-spec.txt").is_file()

    def test_unsatisfiable_spec_holds(self, trivial_instance, tmp_path):
        spec_path = tmp_path / "holds.vnnlib"
        spec_path.write_text(HOLDS_SPEC_TEXT)
        inst = Instance(
            instance_id="net-holds",
            benchmark="bench",
            network_path=trivial_instance.network_path,
            spec_path=spec_path,
            timeout=30.0,
        )
        record = run_baseline(inst)
        assert record.status is Status.HOLDS
        assert record.witness_path == ""

    def test_unsupported_operator_is_unknown(self, trivial_instance, tmp_path):
        model = wire.decode_model(network_to_onnx_bytes(gen_trivial_network(1)))
        model["graph"]["node"][0]["op_type"] = "Conv"
        conv_path = tmp_path / "conv.onnx"
        conv_path.write_bytes(wire.encode_model(model))
        inst = Instance(
            instance_id="conv-spec",
            benchmark="bench",
            network_path=conv_path,
            spec_path=trivial_instance.spec_path,
            timeout=30.0,
        )
        record = run_baseline(inst)
        assert record.status is Status.UNKNOWN

    def test_corrupt_network_is_error(self, trivial_instance, tmp_path):
        bad = tmp_path / "bad.onnx"
        bad.write_bytes(b"\xff\xff\xff\xff")
        inst = Instance(
            instance_id="bad-spec",
            benchmark="bench",
            network_path=bad,
            spec_path=trivial_instance.spec_path,
            timeout=30.0,
        )
        assert run_baseline(inst).status is Status.ERROR

    def test_spec_that_is_not_utf8_is_error(self, trivial_instance, tmp_path):
        # the UnicodeDecodeError used to escape run_baseline and abort run_batch
        bad = tmp_path / "bad.vnnlib"
        bad.write_bytes(trivial_instance.spec_path.read_bytes() + b"; \xff\n")
        inst = Instance(
            instance_id="net-bad",
            benchmark="bench",
            network_path=trivial_instance.network_path,
            spec_path=bad,
            timeout=30.0,
        )
        assert run_baseline(inst).status is Status.ERROR


class TestMeasureOverheadRun:
    """Warm-up runs as measure-overhead makes them: run_batch over no
    instances with the baseline off."""

    def test_startup_floor_measured(self, runner, tmp_path):
        records = run_batch(
            [], [runner("holds", delay=0.2)], tmp_path / "t", baseline=False, n_trivial=3
        )["echo"]
        assert [r.instance_id for r in records] == ["trivial-0", "trivial-1", "trivial-2"]
        assert all(r.benchmark == "trivial" for r in records)
        overhead = build_overhead_model(records)[("echo", "default")]
        assert 0.15 <= overhead <= 1.5

    def test_timeout_on_trivial_falls_back_to_real_minimum(
        self, runner, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(harness, "TRIVIAL_TIMEOUT_SECONDS", 0.5)
        monkeypatch.setattr(harness, "GRACE_SECONDS", 0.1)
        existing = [
            RunRecord("echo", "i1", "bench", Status.HOLDS, 5.0),
            RunRecord("echo", "i2", "bench", Status.HOLDS, 7.0),
        ]
        start = time.monotonic()
        records = existing + run_batch(
            [], [runner("holds", delay=30.0)], tmp_path / "t", baseline=False, n_trivial=1
        )["echo"]
        assert time.monotonic() - start <= 0.5 + 0.1 + 2.0
        assert records[-1].status is Status.TIMEOUT
        assert records[-1].seconds == 0.5
        assert build_overhead_model(records)[("echo", "default")] == 5.0

    def test_warmup_witnesses_not_validated(self, runner, trivial_instance, tmp_path):
        # a real instance's unreadable witness is an ERROR; on a warm-up it is kept
        adapter = runner("violated", extra="missing.txt")
        by_tool = run_batch(
            [trivial_instance], [adapter], tmp_path / "t", baseline=False, n_trivial=1
        )
        assert [r.status for r in by_tool["echo"]] == [Status.ERROR, Status.VIOLATED]

    def test_negative_count_rejected(self, runner, tmp_path):
        marker = tmp_path / "prepared"
        adapter = dataclasses.replace(runner("holds"), prepare="touch %s" % marker)
        with pytest.raises(HarnessError, match="n_trivial"):
            run_batch([], [adapter], tmp_path / "t", baseline=False, n_trivial=-1)
        assert not marker.exists() and not (tmp_path / "t").exists()


class TestCalibrateEpsilon:
    def request(self, eps_max=0.04, eps_tol=0.005):
        rng = np.random.default_rng(5)
        net = gen_trivial_network(2)
        return CalibrationRequest(
            network=net, center=np.zeros(2), eps_max=eps_max, eps_tol=eps_tol
        )

    def test_published_substitution(self):
        req = self.request()
        # attack never succeeds: its search pins 0.04; certification stops
        # working above 0.01: its search pins 0.01
        attack = lambda eps: False
        certify = lambda eps: eps < 0.0099
        assert calibrate_epsilon(req, attack, certify) == 0.03

    def test_equal_frontiers_fixed_point(self):
        req = self.request(eps_max=0.7)
        assert calibrate_epsilon(req, lambda e: False, lambda e: True) == 0.7

    def test_oracle_call_budget(self):
        req = self.request()
        calls = {"attack": 0, "certify": 0}

        def attack(eps):
            calls["attack"] += 1
            return eps > 0.013

        def certify(eps):
            calls["certify"] += 1
            return eps < 0.022

        eps = calibrate_epsilon(req, attack, certify)
        bound = math.ceil(math.log2(req.eps_max / req.eps_tol)) + 1
        assert calls["attack"] <= bound
        assert calls["certify"] <= bound
        # the attack bracket ends at [0.01, 0.015], the certify one at
        # [0.02, 0.025]: the frontiers are the attack's low side and the
        # certifier's high side
        assert eps == pytest.approx((0.01 + 2 * 0.025) / 3, rel=1e-12)

    def test_oracle_failure_propagates(self):
        req = self.request()

        def attack(eps):
            raise RuntimeError("attack oracle crashed")

        with pytest.raises(RuntimeError, match="attack oracle crashed"):
            calibrate_epsilon(req, attack, lambda e: True)

    def test_result_brackets_live_oracles(self, net_factory):
        rng = np.random.default_rng(21)
        net = net_factory(rng, n_in=2, hidden=[4], n_out=2)
        req = CalibrationRequest(
            network=net, center=rng.normal(size=2) * 0.1, eps_max=0.5, eps_tol=0.02
        )
        attack, certify = make_robustness_oracles(req)
        eps = calibrate_epsilon(req, attack, certify)
        from veribench.harness import _bisect

        r1, _ = _bisect(attack, req.eps_max, req.eps_tol)
        _, r2 = _bisect(lambda e: not certify(e), req.eps_max, req.eps_tol)
        assert min(r1, r2) <= eps <= max(r1, r2)

    def test_certify_is_every_margin_row_positive(self, net_factory):
        # certify proves the ball robust exactly when the one-box lower bound
        # of every competing class's margin y_top - y_j is positive
        rng = np.random.default_rng(8)
        answers = set()
        for _ in range(8):
            net = net_factory(rng, n_in=3, hidden=[8, 8], n_out=4)
            center = rng.normal(size=3)
            req = CalibrationRequest(network=net, center=center, eps_max=1.0, eps_tol=0.01)
            _, certify = make_robustness_oracles(req)
            eye = np.eye(4)
            top = int(np.argmax(forward(net, center)))
            for eps in 10.0 ** rng.uniform(-3, 0, size=6):
                ab = affine_bounds(net, Box(center - eps, center + eps))
                expected = all(
                    constraint_lower_bound(ab, eye[top] - eye[j], np.zeros(3)) > 0
                    for j in range(4)
                    if j != top
                )
                assert certify(eps) == expected
                answers.add(expected)
        assert answers == {True, False}

    def test_request_validation(self):
        net = gen_trivial_network(2)
        with pytest.raises(HarnessError, match="eps_max"):
            CalibrationRequest(net, np.zeros(2), eps_max=0.0, eps_tol=0.1)
        with pytest.raises(HarnessError, match="eps_tol"):
            CalibrationRequest(net, np.zeros(2), eps_max=0.1, eps_tol=0.0)
        with pytest.raises(HarnessError, match="center has"):
            CalibrationRequest(net, np.zeros(3), eps_max=0.1, eps_tol=0.01)
        for eps_max in (1e308, float("inf")):
            with pytest.raises(HarnessError, match="ball around the center is not finite"):
                CalibrationRequest(net, np.full(2, 0.5), eps_max=eps_max, eps_tol=0.01)

    def test_single_output_rejected(self):
        req = CalibrationRequest(
            network=gen_trivial_network(1), center=np.zeros(1), eps_max=0.1, eps_tol=0.01
        )
        with pytest.raises(HarnessError, match="at least two outputs"):
            make_robustness_oracles(req)


class TestEmitReport:
    def ledger(self):
        records = [
            RunRecord("fast", "i1", "bench", Status.HOLDS, 2.0),
            RunRecord("slow", "i1", "bench", Status.HOLDS, 9.0),
            RunRecord("fast", "warm", "trivial", Status.HOLDS, 0.1),
            RunRecord("slow", "warm", "trivial", Status.HOLDS, 0.1),
        ]
        return score_records(records)

    def test_files_written(self, tmp_path):
        paths = emit_report(self.ledger(), tmp_path / "report")
        names = sorted(p.name for p in paths)
        assert names == [
            "benchmark_bench.csv",
            "instances_bench.log",
            "overall.csv",
            "report.txt",
        ]
        assert "fast" in (tmp_path / "report" / "overall.csv").read_text()

    def test_deterministic_bytes(self, tmp_path):
        first = {p.name: p.read_bytes() for p in emit_report(self.ledger(), tmp_path / "a")}
        second = {p.name: p.read_bytes() for p in emit_report(self.ledger(), tmp_path / "b")}
        assert first == second

    def test_empty_ledger_headers_only(self, tmp_path):
        paths = emit_report(empty_ledger(), tmp_path / "empty")
        names = sorted(p.name for p in paths)
        assert names == ["overall.csv", "report.txt"]
        assert (tmp_path / "empty" / "overall.csv").read_text() == "#,Tool,Overall\n"
        report = (tmp_path / "empty" / "report.txt").read_text()
        assert report.startswith("# verification competition score report")
        assert "benchmark" not in report.splitlines()[-2]


class TestConfig:
    def test_parse_key_values_and_comments(self):
        config = parse_config(
            "# adapters\n"
            "adapter.echo.run = python3 run.py {result}\n"
            "\n"
            "adapter.echo.mode = cpu\n"
            "seed = 7\n"
        )
        assert config["adapter.echo.run"] == "python3 run.py {result}"
        assert config["seed"] == "7"

    def test_bad_line_rejected(self):
        with pytest.raises(HarnessError, match="bad config line 2"):
            parse_config("a = 1\nnot a pair\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(HarnessError, match="duplicate config key"):
            parse_config("a = 1\na = 2\n")

    def test_build_adapters(self):
        config = parse_config(
            "adapter.beta.run = b {result}\n"
            "adapter.alpha.run = a {result}\n"
            "adapter.alpha.mode = cpu\n"
        )
        adapters = build_adapters(config)
        assert [a.tool for a in adapters] == ["alpha", "beta"]
        assert adapters[0].mode == "cpu"
        assert adapters[1].mode == "default"

    def test_adapter_without_run_rejected(self):
        with pytest.raises(HarnessError, match="no run command"):
            build_adapters({"adapter.x.mode": "cpu"})

    def test_unknown_adapter_field_rejected(self):
        with pytest.raises(HarnessError, match="bad adapter config key"):
            build_adapters({"adapter.x.shell": "sh"})

    def test_baseline_id_reserved(self):
        # scoring would treat the adapter as the baseline, and with the
        # baseline on both would write the same randgen.csv
        with pytest.raises(HarnessError, match="reserved for the baseline"):
            build_adapters({"adapter.randgen.run": "r {result}"})


class TestRunBatch:
    def make_manifest(self, tmp_path, n=2):
        bench = tmp_path / "mini"
        bench.mkdir()
        net_path = bench / "net.onnx"
        save_network(gen_trivial_network(1), net_path)
        rows = []
        for i in range(n):
            spec = bench / ("prop_%d.vnnlib" % i)
            spec.write_text(TRIVIAL_SPEC_TEXT if i % 2 == 0 else HOLDS_SPEC_TEXT)
            rows.append("net.onnx,prop_%d.vnnlib,20\n" % i)
        manifest = bench / "instances.csv"
        manifest.write_text("".join(rows))
        return manifest

    def test_batch_writes_per_tool_csvs(self, runner, tmp_path):
        manifest = self.make_manifest(tmp_path)
        instances = load_manifest(manifest)
        out = tmp_path / "out"
        by_tool = run_batch(
            instances,
            [runner("holds"), runner("unknown", tool="shy")],
            out,
            n_trivial=1,
        )
        assert sorted(by_tool) == ["echo", "randgen", "shy"]
        echo = read_results_csv(out / "echo.csv", tool="echo")
        # 2 real instances + 1 trivial
        assert len(echo) == 3
        randgen = read_results_csv(out / "randgen.csv", tool="randgen")
        statuses = {r.instance_id: r.status for r in randgen}
        assert statuses["net-prop_0"] is Status.VIOLATED
        assert statuses["net-prop_1"] is Status.HOLDS

    def test_crashing_adapter_never_aborts_batch(self, runner, tmp_path):
        manifest = self.make_manifest(tmp_path)
        instances = load_manifest(manifest)
        by_tool = run_batch(
            instances,
            [runner("crash", tool="flaky"), runner("holds")],
            tmp_path / "out",
            baseline=None,
            n_trivial=0,
        )
        assert all(r.status is Status.ERROR for r in by_tool["flaky"])
        assert all(r.status is Status.HOLDS for r in by_tool["echo"])

    def test_corrupt_network_never_aborts_batch(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        model = wire.decode_model(network_to_onnx_bytes(gen_trivial_network(1)))
        model["producer_name"] = b"\xff"  # not UTF-8
        (manifest.parent / "bad.onnx").write_bytes(wire.encode_model(model))
        with manifest.open("a") as fh:
            fh.write("bad.onnx,prop_0.vnnlib,20\n")
        by_tool = run_batch(load_manifest(manifest), [], tmp_path / "out", n_trivial=0)
        statuses = {r.instance_id: r.status for r in by_tool["randgen"]}
        assert statuses["bad-prop_0"] is Status.ERROR
        assert statuses["net-prop_0"] is Status.VIOLATED

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda graph: graph["node"].insert(0, constant_node([])),
            lambda graph: graph["initializer"][0].update(dims=[-1, -1]),  # 1 value
        ],
        ids=["constant-without-output", "negative-dims"],
    )
    def test_malformed_graph_never_aborts_batch(self, corrupt, tmp_path):
        # both once escaped load_network as IndexError / ValueError
        manifest = self.make_manifest(tmp_path)
        model = wire.decode_model(network_to_onnx_bytes(gen_trivial_network(1)))
        corrupt(model["graph"])
        (manifest.parent / "bad.onnx").write_bytes(wire.encode_model(model))
        with manifest.open("a") as fh:
            fh.write("bad.onnx,prop_0.vnnlib,20\n")
        by_tool = run_batch(load_manifest(manifest), [], tmp_path / "out", n_trivial=0)
        statuses = {r.instance_id: r.status for r in by_tool["randgen"]}
        assert statuses["bad-prop_0"] is Status.ERROR
        assert statuses["net-prop_0"] is Status.VIOLATED

    def test_deeply_nested_spec_never_aborts_batch(self, tmp_path):
        # without the depth cap, 500 levels overflow the recursion limit
        manifest = self.make_manifest(tmp_path)
        deep = "(and " * 500 + "(<= Y_0 0.0)" + ")" * 500
        (manifest.parent / "deep.vnnlib").write_text(HOLDS_SPEC_TEXT + "(assert %s)" % deep)
        with manifest.open("a") as fh:
            fh.write("net.onnx,deep.vnnlib,20\n")
        by_tool = run_batch(load_manifest(manifest), [], tmp_path / "out", n_trivial=0)
        statuses = {r.instance_id: r.status for r in by_tool["randgen"]}
        assert statuses["net-deep"] is Status.ERROR
        assert statuses["net-prop_0"] is Status.VIOLATED

    def test_end_to_end_determinism(self, runner, tmp_path):
        manifest = self.make_manifest(tmp_path)
        instances = load_manifest(manifest)
        reports = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            run_batch(instances, [runner("holds")], out, n_trivial=2)
            from veribench.scoring import read_results_dir, render_report

            ledger = score_records(read_results_dir(out))
            reports.append(render_report(ledger))
        assert reports[0] == reports[1]
