"""Harness tests: manifests, subprocess runs, baseline, overhead,
calibration, and report emission.  Adapter fixtures are tiny python
scripts driven through the real subprocess path."""

import dataclasses
import math
import os
import re
import shutil
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import NAN_GRADIENT_NET, NAN_GRADIENT_SPEC, constant_node, make_random_network
import veribench._onnxproto as wire
import veribench.harness as harness
import veribench.verifier as verifier
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
from veribench.network import (
    ActivationLayer, AffineLayer, Box, Network, UnsupportedNetworkError, forward,
    gen_trivial_network, load_network, network_to_onnx_bytes, save_network,
)
from veribench.scoring import (
    BASELINE_TOOL, TRIVIAL_BENCHMARK, RunRecord, build_overhead_model, empty_ledger,
    read_results_csv, read_results_dir, score_records,
)
from veribench.speclang import Witness, load_spec
from veribench.verifier import (
    EASY_VIOLATED_BUDGET, Status, falsify, read_witness, validate_witness, write_witness,
)

ACAS_PROPS = Path(__file__).resolve().parent / "fixtures" / "acasxu" / "props"


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
if status == "not-utf8":
    with open(result, "wb") as fh:
        fh.write(b"\\xffholds\\n")
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

    @pytest.mark.parametrize("timeout", ["abc", "", None])
    def test_timeout_that_is_no_number_rejected(self, tmp_path, timeout):
        with pytest.raises(HarnessError, match=r"^instance i: bad timeout %r$" % (timeout,)):
            Instance("i", "b", tmp_path / "n", tmp_path / "s", timeout)

    def test_argv_substitution(self):
        adapter = ToolAdapter(
            tool="t", run_template="tool --net={network} {spec} {timeout} {result}"
        )
        argv = adapter.argv("n.onnx", "s.vnnlib", 116.0, "r.txt")
        assert argv == ["tool", "--net=n.onnx", "s.vnnlib", "116", "r.txt"]

    def test_argv_does_not_rescan_a_substituted_value(self):
        # a path that contains a placeholder is passed on as it is
        adapter = ToolAdapter(tool="t", run_template="tool {network} {spec} {timeout} {result}")
        argv = adapter.argv("/d/{spec}/n.onnx", "/s/p.vnnlib", 10, "/r/{network}.result")
        assert argv == ["tool", "/d/{spec}/n.onnx", "/s/p.vnnlib", "10", "/r/{network}.result"]

    @pytest.mark.parametrize("tool", ["a/b", ".", "..", "a\0b"])
    def test_tool_id_that_is_not_one_path_component_rejected(self, tool):
        with pytest.raises(HarnessError, match=re.escape("adapter id %r is not one" % tool)):
            ToolAdapter(tool=tool, run_template="true")

    def test_empty_mode_rejected(self):
        with pytest.raises(HarnessError, match="^adapter t needs a mode label$"):
            ToolAdapter(tool="t", run_template="true", mode="")

    def test_empty_run_template_rejected(self):
        with pytest.raises(HarnessError, match="needs a run command"):
            ToolAdapter(tool="t", run_template="   ")

    def test_bare_program_looked_up_once_when_built(
        self, trivial_instance, tmp_path, monkeypatch
    ):
        adapter = ToolAdapter(tool="t", run_template="sh -c 'echo holds > \"$0\"' {result}")
        assert adapter.run_tokens[0] == shutil.which("sh")
        monkeypatch.setenv("PATH", "")  # no lookup is left for the launch
        record = run_tool(adapter, trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.HOLDS

    def test_program_not_on_path_stays_bare_and_fails_as_error(
        self, trivial_instance, tmp_path
    ):
        adapter = ToolAdapter(tool="t", run_template="no-such-tool-xyz {result}", prepare="./p")
        assert adapter.run_tokens[0] == "no-such-tool-xyz"
        assert adapter.prepare_tokens == ("./p",)  # a path is not looked up
        record = run_tool(adapter, trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.ERROR


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

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = self.write_manifest(
            tmp_path, ["# nets and specs", "a.onnx,s.vnnlib,10", "", "  ", "b.onnx,s.vnnlib,20"]
        )
        instances = load_manifest(path)
        assert [(i.instance_id, i.timeout) for i in instances] == [("a-s", 10.0), ("b-s", 20.0)]

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

    def test_timeout_that_is_no_number_rejected_with_its_line(self, tmp_path):
        path = self.write_manifest(tmp_path, ["n.onnx,s.vnnlib,10", "m.onnx,s.vnnlib,abc"])
        with pytest.raises(HarnessError, match=r"^instance m-s: bad timeout 'abc' at .* line 2$"):
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
        with pytest.raises(HarnessError, match=r"instance file not found: .* at .* line 1$"):
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

    def test_result_file_that_is_not_utf8_is_error(self, runner, trivial_instance, tmp_path):
        # its decode error used to escape run_tool and abort run_batch
        record = run_tool(runner("not-utf8"), trivial_instance, result_dir=tmp_path / "r")
        assert record.status is Status.ERROR

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

    def test_unparseable_witness_rejected_before_the_instance_loads(
        self, runner, trivial_instance, tmp_path, monkeypatch, caplog
    ):
        # the witness is read first, so a garbage one costs no ONNX decode
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 not-a-number\n")
        loads = []
        monkeypatch.setattr(harness, "load_network", loads.append)
        with caplog.at_level("WARNING", logger=harness.log.name):
            record = run_tool(
                runner("violated", extra=str(witness)),
                trivial_instance,
                result_dir=tmp_path / "r",
            )
        assert record.status is Status.ERROR
        assert loads == []
        assert caplog.messages == [
            "witness validation failed for echo on net-spec: bad witness line 1: "
            "'X_0 not-a-number'; output at %s" % (tmp_path / "r" / "net-spec.out")
        ]

    def test_witness_check_is_not_run_time(
        self, runner, trivial_instance, tmp_path, monkeypatch
    ):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 0.5\n")

        def slow_load(path):
            time.sleep(0.3)
            return load_network(path)

        monkeypatch.setattr(harness, "load_network", slow_load)
        record = run_tool(
            runner("violated", extra=str(witness)), trivial_instance, result_dir=tmp_path / "r"
        )
        assert record.status is Status.VIOLATED
        assert record.seconds < 0.3

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


@pytest.fixture()
def falsify_calls(monkeypatch):
    """The falsify calls the harness and the verifier make, one entry each."""
    calls = []

    def counting(*args):
        calls.append(args)
        return falsify(*args)

    monkeypatch.setattr(harness, "falsify", counting)
    monkeypatch.setattr(verifier, "falsify", counting)
    return calls


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
        record = run_baseline(inst, witness_dir=tmp_path / "w")
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
        record = run_baseline(inst, witness_dir=tmp_path / "w")
        assert record.status is Status.UNKNOWN

    @staticmethod
    def status_of(data, trivial_instance, tmp_path):
        """The baseline's status on the network bytes data and the trivial spec."""
        path = tmp_path / "edited.onnx"
        path.write_bytes(data)
        inst = dataclasses.replace(trivial_instance, instance_id="edited", network_path=path)
        return run_baseline(inst, witness_dir=tmp_path / "w").status

    @pytest.mark.parametrize("name", ["unsupported_w", "W0"])
    def test_ragged_tensor_is_error_whatever_its_name(self, name, trivial_instance, tmp_path):
        # the status once hung on the word "unsupported" in the message,
        # which names the tensor
        model = wire.decode_model(network_to_onnx_bytes(gen_trivial_network(1)))
        graph = model["graph"]
        tensor = graph["initializer"][0]
        tensor["raw_data"] = tensor["raw_data"][:-1]
        tensor["name"] = graph["node"][0]["input"][1] = name
        data = wire.encode_model(model)
        assert self.status_of(data, trivial_instance, tmp_path) is Status.ERROR

    @pytest.mark.parametrize(
        "tail", [b"\x7b", b"\x08\xff"], ids=["group-wire-type", "truncated-varint"]
    )
    def test_unreadable_network_bytes_are_error(self, tail, trivial_instance, tmp_path):
        # the decoder calls wire type 3 "unsupported"; the file is still unreadable
        data = network_to_onnx_bytes(gen_trivial_network(1)) + tail
        assert self.status_of(data, trivial_instance, tmp_path) is Status.ERROR

    @pytest.mark.parametrize(
        "edit",
        [
            lambda graph: graph["initializer"][0].update(data_type=wire.INT64 + 1),
            lambda graph: graph["node"].append(
                {"input": ["v0", "input"], "output": ["res"], "op_type": "Add"}
            ),
        ],
        ids=["element-type", "branching"],
    )
    def test_unsupported_construct_is_unknown(self, edit, trivial_instance, tmp_path):
        model = wire.decode_model(network_to_onnx_bytes(gen_trivial_network(1)))
        edit(model["graph"])
        data = wire.encode_model(model)
        with pytest.raises(UnsupportedNetworkError):
            load_network(data)
        assert self.status_of(data, trivial_instance, tmp_path) is Status.UNKNOWN

    def test_timeout_spent_by_falsify_is_timeout(self, trivial_instance, tmp_path):
        # the trivial spec holds everywhere, so the falsifier returns no
        # witness only when its first deadline check fires
        inst = dataclasses.replace(trivial_instance, timeout=1e-9)
        record = run_baseline(inst, witness_dir=tmp_path / "w")
        assert record.status is Status.TIMEOUT
        assert record.seconds == 1e-9

    def test_arithmetic_error_is_error_and_the_batch_goes_on(self, trivial_instance, tmp_path):
        net_path, spec_path = tmp_path / "nan.onnx", tmp_path / "nan.vnnlib"
        save_network(NAN_GRADIENT_NET, net_path)
        spec_path.write_text(NAN_GRADIENT_SPEC)
        nan = Instance("nan", "bench", net_path, spec_path, 30.0)
        by_tool = run_batch([nan, trivial_instance], [], tmp_path / "out", n_trivial=0)
        statuses = [r.status for r in by_tool[BASELINE_TOOL]]
        assert statuses == [Status.ERROR, Status.VIOLATED]

    def test_overflow_in_verify_is_error_with_its_reason_logged(
        self, trivial_instance, tmp_path, caplog
    ):
        # y_1 = x is 0.41 at one point, which the falsifier misses; y_0 =
        # 2.5e154 relu(-1e154 x) is finite on the box, but its bounds on the
        # root's left child overflow
        net_path, spec_path = tmp_path / "huge.onnx", tmp_path / "huge.vnnlib"
        layers = (
            AffineLayer([[-1e154], [1.0]], [0.0, 1.0]),
            ActivationLayer("relu"),
            AffineLayer([[2.5e154, 0.0], [0.0, 1.0]], [0.0, -1.0]),
        )
        save_network(Network(layers, 1, 2), net_path)
        spec_path.write_text(
            "(declare-const X_0 Real)(declare-const Y_0 Real)(declare-const Y_1 Real)"
            "(assert (>= X_0 -0.6))(assert (<= X_0 0.6))"
            "(assert (>= Y_1 0.41))(assert (<= Y_1 0.41))(assert (<= Y_0 1.0))"
        )
        inst = dataclasses.replace(trivial_instance, network_path=net_path, spec_path=spec_path)
        with caplog.at_level("WARNING", logger=harness.log.name):
            record = run_baseline(inst, witness_dir=tmp_path / "w")
        assert (record.status, record.witness_path) == (Status.ERROR, "")
        assert caplog.messages == [
            "baseline failed on net-spec: bound propagation produced non-finite values"
        ]

    def test_witness_that_cannot_be_saved_is_error_and_the_batch_goes_on(
        self, trivial_instance, tmp_path, caplog
    ):
        # a plain file where the witness directory goes: the save raised
        # NotADirectoryError, which aborted run_batch
        out = tmp_path / "out"
        out.mkdir()
        (out / "witnesses").write_text("")
        second = dataclasses.replace(trivial_instance, instance_id="again")
        with caplog.at_level("WARNING", logger=harness.log.name):
            by_tool = run_batch([trivial_instance, second], [], out, n_trivial=0)
        assert [r.status for r in by_tool[BASELINE_TOOL]] == [Status.ERROR] * 2
        assert [r.witness_path for r in by_tool[BASELINE_TOOL]] == ["", ""]
        where = out / "witnesses" / BASELINE_TOOL
        assert len(caplog.messages) == 2
        for instance_id, message in zip(["net-spec", "again"], caplog.messages):
            assert str(where / ("%s.txt" % instance_id)) in message

    def test_witness_found_by_verify_is_saved(self, trivial_instance, tmp_path):
        # y = x violates only at the single point 0: the falsifier misses
        # it, and branch-and-bound's first midpoint probe hits it
        spec_path = tmp_path / "point.vnnlib"
        spec_path.write_text(
            "(declare-const X_0 Real)(declare-const Y_0 Real)"
            "(assert (>= X_0 -1.0))(assert (<= X_0 1.0))"
            "(assert (>= Y_0 0.0))(assert (<= Y_0 0.0))"
        )
        inst = dataclasses.replace(trivial_instance, spec_path=spec_path)
        net, spec = harness._load_instance_problem(inst)
        assert falsify(net, spec, EASY_VIOLATED_BUDGET) is None
        record = run_baseline(inst, witness_dir=tmp_path / "w")
        assert record.status is Status.VIOLATED
        assert record.witness_path == str(tmp_path / "w" / "net-spec.txt")
        witness = read_witness(record.witness_path)
        assert witness.x == (0.0,)
        assert validate_witness(net, spec, witness)

    @pytest.mark.parametrize("bound, status", [("2.0", Status.HOLDS), ("0.9", Status.VIOLATED)])
    def test_sigmoid_net_is_falsified_once(
        self, bound, status, trivial_instance, tmp_path, falsify_calls
    ):
        # verification is branch-and-bound alone, which never falsifies
        net_path, spec_path = tmp_path / "sigmoid.onnx", tmp_path / "sigmoid.vnnlib"
        sig = Network((AffineLayer(np.eye(1), np.zeros(1)), ActivationLayer("sigmoid")), 1, 1)
        save_network(sig, net_path)
        spec_path.write_text(
            "(declare-const X_0 Real)(declare-const Y_0 Real)"
            "(assert (>= X_0 -4.0))(assert (<= X_0 4.0))(assert (>= Y_0 %s))" % bound
        )
        inst = dataclasses.replace(trivial_instance, network_path=net_path, spec_path=spec_path)
        record = run_baseline(inst, witness_dir=tmp_path / "w")
        assert record.status is status
        assert len(falsify_calls) == 1
        if status is Status.VIOLATED:
            net, spec = harness._load_instance_problem(inst)
            assert validate_witness(net, spec, read_witness(record.witness_path))
        else:
            assert record.witness_path == ""

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
        assert run_baseline(inst, witness_dir=tmp_path / "w").status is Status.ERROR

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
        assert run_baseline(inst, witness_dir=tmp_path / "w").status is Status.ERROR

    def test_spec_with_an_index_too_long_for_int_is_error(self, trivial_instance, tmp_path):
        # the bare ValueError from int() used to escape run_baseline and
        # abort run_batch
        bad = tmp_path / "bad.vnnlib"
        bad.write_text(
            trivial_instance.spec_path.read_text() + "(declare-const X_" + "7" * 5000 + " Real)\n"
        )
        inst = Instance(
            instance_id="net-long",
            benchmark="bench",
            network_path=trivial_instance.network_path,
            spec_path=bad,
            timeout=30.0,
        )
        by_tool = run_batch([inst], [], tmp_path / "out", n_trivial=0)
        assert [r.status for r in by_tool[BASELINE_TOOL]] == [Status.ERROR]


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

    def test_live_oracles_build_each_block_once(self, net_factory, block_builds):
        # the certifier's oracles hold one bound plan for the request
        rng = np.random.default_rng(21)
        net = net_factory(rng, n_in=2, hidden=[4, 4], n_out=2)
        req = CalibrationRequest(network=net, center=np.zeros(2), eps_max=0.5, eps_tol=0.02)
        attack, certify = make_robustness_oracles(req)
        radii = []
        calibrate_epsilon(req, attack, lambda eps: radii.append(eps) or certify(eps))
        assert len(radii) > 1
        assert block_builds == [l for l in net.layers if isinstance(l, AffineLayer)]

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

    def test_certifier_answers_where_the_centre_sum_overflows(self):
        # lo + hi overflows around 1.7e308, yet the ball and the margin
        # y_0 - y_1 = 2e-300 x, about 3.4e8, are finite
        net = Network((AffineLayer(np.array([[1e-300], [-1e-300]]), np.zeros(2)),), 1, 2)
        req = CalibrationRequest(net, np.array([1.7e308]), eps_max=1e300, eps_tol=1e299)
        _, certify = make_robustness_oracles(req)
        assert certify(1e300) is True

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

    def test_tanh_net_oracles_answer(self, falsify_calls):
        # y_1 overtakes y_0 = tanh(x_0) in the ball around (1, 0) from radius 0.5
        net = Network((AffineLayer(np.eye(2), np.zeros(2)), ActivationLayer("tanh")), 2, 2)
        req = CalibrationRequest(net, np.array([1.0, 0.0]), eps_max=1.0, eps_tol=0.05)
        attack, certify = make_robustness_oracles(req)
        assert falsify_calls == []
        assert certify(0.4) is True and certify(0.6) is False
        assert attack(0.4) is False and attack(0.6) is True
        assert len(falsify_calls) == 2

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

    @pytest.mark.parametrize("field", ["run", "prepare"])
    @pytest.mark.parametrize("command", ['sh -c "echo {result}', "echo {result} \\"])
    def test_command_that_does_not_split_rejected(self, field, command):
        # an unclosed quote or a trailing escape is a config error naming the
        # tool, not a bare ValueError on the first run or prepare
        fields = {"run": "r {result}", field: command}
        config = {"adapter.bad." + key: value for key, value in fields.items()}
        with pytest.raises(HarnessError, match="adapter bad: cannot split its %s command" % field):
            build_adapters(config)

    def test_baseline_id_reserved(self):
        # scoring would treat the adapter as the baseline, and with the
        # baseline on both would write the same randgen.csv
        with pytest.raises(HarnessError, match="reserved for the baseline"):
            build_adapters({"adapter.randgen.run": "r {result}"})


CLAIM_SOURCE = '''\
import pathlib, sys
kind, witnesses, spec, result = sys.argv[1:]
witness = pathlib.Path(witnesses) / ("%s-%s.txt" % (kind, pathlib.Path(spec).stem))
pathlib.Path(result).write_text("violated\\n%s\\n" % witness)
'''


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

    def test_every_scored_witness_path_names_a_witness_that_validates(self, tmp_path):
        # an ACAS-shaped net and three props its falsifier breaks; every tool
        # claims violated everywhere, pointing at a valid, a corrupt or a
        # missing witness
        bench = tmp_path / "acas"
        bench.mkdir()
        net = make_random_network(np.random.default_rng(0), 5, [50] * 6, 5)
        save_network(net, bench / "net.onnx")
        witnesses = tmp_path / "witnesses"
        witnesses.mkdir()
        rows = []
        for prop in ("prop_5", "prop_6", "prop_8"):
            shutil.copy(ACAS_PROPS / ("%s.vnnlib" % prop), bench)
            found = falsify(net, load_spec(bench / ("%s.vnnlib" % prop)), EASY_VIOLATED_BUDGET)
            write_witness(found, witnesses / ("valid-%s.txt" % prop))
            claimed_off = tuple(v + 1.0 for v in found.y_claimed)
            write_witness(Witness(found.x, claimed_off), witnesses / ("corrupt-%s.txt" % prop))
            rows.append("net.onnx,%s.vnnlib,20\n" % prop)
        (bench / "instances.csv").write_text("".join(rows))
        claim = tmp_path / "claim.py"
        claim.write_text(CLAIM_SOURCE)
        adapters = [
            ToolAdapter(kind, "python3 %s %s %s {spec} {result}" % (claim, kind, witnesses))
            for kind in ("valid", "corrupt", "missing")
        ]
        instances = {i.instance_id: i for i in load_manifest(bench / "instances.csv")}
        out = tmp_path / "out"
        run_batch(list(instances.values()), adapters, out, n_trivial=1)

        records = read_results_dir(out)
        scored = [r for r in records if r.benchmark != TRIVIAL_BENCHMARK]
        statuses = {}
        for r in scored:
            statuses.setdefault(r.tool, []).append(r.status)
            if r.witness_path:
                inst = instances[r.instance_id]
                witness = read_witness(r.witness_path)
                assert validate_witness(net, load_spec(inst.spec_path), witness), r
        assert statuses == {
            "valid": [Status.VIOLATED] * 3,
            "corrupt": [Status.ERROR] * 3,
            "missing": [Status.ERROR] * 3,
            "randgen": [Status.VIOLATED] * 3,
        }
        assert all(r.witness_path for r in scored if r.status is Status.VIOLATED)
        # a warm-up's witness is not checked: its row is never scored
        warm = {r.tool: r for r in records if r.benchmark == TRIVIAL_BENCHMARK}
        for kind in ("valid", "corrupt", "missing"):
            assert warm[kind].status is Status.VIOLATED
            assert warm[kind].witness_path == str(witnesses / ("%s-trivial-0.txt" % kind))
        assert warm["randgen"].status is Status.VIOLATED

    @pytest.mark.parametrize(
        "blocked",
        ["results", "results/echo/net-prop_0.result", "results/echo/net-prop_0.out"],
    )
    def test_run_whose_files_cannot_be_made_is_error_and_the_batch_goes_on(
        self, blocked, runner, tmp_path, caplog
    ):
        # a plain file where the result directory goes makes mkdir fail; a
        # directory at the stale result or the .out path makes unlink or open fail
        instances = load_manifest(self.make_manifest(tmp_path))
        out = tmp_path / "out"
        path = out / blocked
        if blocked == "results":
            out.mkdir()
            path.write_text("")
        else:
            path.mkdir(parents=True)
        with caplog.at_level("WARNING", logger=harness.log.name):
            run_batch(instances, [runner("holds")], out, baseline=False, n_trivial=1)
        n_blocked = 2 if blocked == "results" else 1
        # the two instances, then the warm-up, all in the CSV
        records = read_results_csv(out / "echo.csv", tool="echo")
        assert [r.status for r in records] == (
            [Status.ERROR] * n_blocked + [Status.HOLDS] * (3 - n_blocked)
        )
        assert [r.seconds for r in records[:n_blocked]] == [0.0] * n_blocked
        assert sum(str(path) in m for m in caplog.messages) == n_blocked, caplog.messages

    def test_prepare_program_that_does_not_exist_names_the_tool(self, runner, tmp_path):
        adapter = dataclasses.replace(runner("holds"), prepare="no-such-prog-xyz")
        with pytest.raises(HarnessError, match="prepare failed for echo: .*no-such-prog-xyz"):
            run_batch([], [adapter], tmp_path / "t", baseline=False)
        assert not (tmp_path / "t").exists()

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

    @staticmethod
    def count_loads(monkeypatch):
        loads = []  # (loader, file name), one per call

        def counted(load):
            def call(path):
                loads.append((load.__name__, Path(path).name))
                return load(path)

            return call

        for name in ("load_network", "load_spec"):
            monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
        return loads

    @pytest.mark.parametrize("baseline", [False, True])
    def test_witness_checks_decode_each_file_once_per_batch(
        self, baseline, runner, tmp_path, monkeypatch
    ):
        bench = tmp_path / "mini"
        bench.mkdir()
        for net in ("a", "b"):
            save_network(gen_trivial_network(1), bench / ("%s.onnx" % net))
        (bench / "p.vnnlib").write_text(TRIVIAL_SPEC_TEXT)
        (bench / "q.vnnlib").write_text(TRIVIAL_SPEC_TEXT.replace("0.0))\n", "0.25))\n"))
        manifest = bench / "instances.csv"
        manifest.write_text("".join(
            "%s.onnx,%s.vnnlib,20\n" % (net, spec) for net in "ab" for spec in "pq"
        ))
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 0.5\n")
        instances = load_manifest(manifest)
        loads = self.count_loads(monkeypatch)
        by_tool = run_batch(
            instances,
            [runner("violated", extra=str(witness), tool=t) for t in ("one", "two")],
            tmp_path / "out",
            baseline=baseline,
            n_trivial=2 if baseline else 0,
        )
        assert [r.status for r in by_tool["one"] + by_tool["two"] if r.benchmark == "mini"] == [
            Status.VIOLATED
        ] * 8
        # the adapters' 8 checks decode each of the 2 nets and 2 specs once;
        # the baseline decodes its own 4 instances and 2 warm-ups, every run
        n_baseline = 6 if baseline else 0
        assert sum(load == "load_network" for load, _ in loads) == 2 + n_baseline
        assert sum(load == "load_spec" for load, _ in loads) == 2 + n_baseline
        if not baseline:
            assert sorted(loads) == [
                ("load_network", "a.onnx"), ("load_network", "b.onnx"),
                ("load_spec", "p.vnnlib"), ("load_spec", "q.vnnlib"),
            ]

    def test_failed_decode_is_not_memoized(self, runner, tmp_path, monkeypatch, caplog):
        manifest = self.make_manifest(tmp_path, n=1)
        (manifest.parent / "bad.onnx").write_bytes(b"\x0a")  # a key, then nothing
        with manifest.open("a") as fh:
            fh.write("bad.onnx,prop_0.vnnlib,20\n")
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 0.5\n")
        loads = self.count_loads(monkeypatch)
        with caplog.at_level("WARNING", logger=harness.log.name):
            by_tool = run_batch(
                load_manifest(manifest),
                [runner("violated", extra=str(witness), tool=t) for t in ("one", "two")],
                tmp_path / "out",
                baseline=False,
                n_trivial=0,
            )
        for tool in ("one", "two"):
            statuses = {r.instance_id: r.status for r in by_tool[tool]}
            assert statuses == {"net-prop_0": Status.VIOLATED, "bad-prop_0": Status.ERROR}
        assert loads.count(("load_network", "bad.onnx")) == 2
        assert loads.count(("load_network", "net.onnx")) == 1
        failed = [m for m in caplog.messages if m.startswith("witness validation failed")]
        assert [m.split(":")[0] for m in failed] == [
            "witness validation failed for one on bad-prop_0",
            "witness validation failed for two on bad-prop_0",
        ]

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


def _result_file(tmp_path, text):
    path = tmp_path / "r.result"
    path.write_text(text)
    return harness._parse_result_file(path)


@pytest.mark.parametrize(
    "make, phrase",
    [
        (lambda tmp_path: ToolAdapter("", "true"), "adapter needs a tool id"),
        (lambda tmp_path: parse_config(" = x"), "bad config line 1: empty key"),
        (lambda tmp_path: _result_file(tmp_path, ""), "unparseable result file"),
        (
            lambda tmp_path: _result_file(tmp_path, "holds\n\nw.txt\nmore\n"),
            "unparseable result file",
        ),
        (
            lambda tmp_path: CalibrationRequest(
                gen_trivial_network(1), [math.nan], eps_max=0.1, eps_tol=0.01
            ),
            "non-finite center",
        ),
    ],
    ids=["empty-tool-id", "empty-config-key", "empty-result", "three-line-result", "nan-center"],
)
def test_harness_refusals(make, phrase, tmp_path):
    with pytest.raises(HarnessError, match=phrase) as info:
        make(tmp_path)
    assert info.type is HarnessError
