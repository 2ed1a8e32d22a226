"""End-to-end CLI tests.  Everything goes through main(argv) in process so
exit codes and stdout/stderr routing are checked for real."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_node
import veribench
import veribench._onnxproto as wire
from veribench.cli import _build_parser, main
from veribench.harness import TRIVIAL_SPEC_TEXT
from veribench.network import (
    ActivationLayer, AffineLayer, Network, gen_trivial_network, save_network,
)
from veribench.scoring import RunRecord, read_results_csv, write_results_csv
from veribench.verifier import Status

HOLDS_SPEC_TEXT = (
    "(declare-const X_0 Real)\n"
    "(declare-const Y_0 Real)\n"
    "(assert (>= X_0 0.0))\n"
    "(assert (<= X_0 1.0))\n"
    "(assert (>= Y_0 2.0))\n"
)


@pytest.fixture()
def identity_net(tmp_path):
    path = tmp_path / "net.onnx"
    save_network(gen_trivial_network(1), path)
    return path


@pytest.fixture()
def sat_spec(tmp_path):
    path = tmp_path / "sat.vnnlib"
    path.write_text(TRIVIAL_SPEC_TEXT)
    return path


@pytest.fixture()
def unsat_spec(tmp_path):
    path = tmp_path / "unsat.vnnlib"
    path.write_text(HOLDS_SPEC_TEXT)
    return path


@pytest.mark.parametrize("reader", ["manifest", "config", "easy-violated", "witness"])
def test_file_that_is_not_utf8_is_named(
    reader, echo_setup, results_dir, identity_net, sat_spec, tmp_path, capsys
):
    # each reader names its file, not only the codec's complaint
    config, manifest = echo_setup
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "manifest": ["run", str(bad), "--config", str(config), *out],
        "config": ["run", str(manifest), "--config", str(bad), *out],
        "easy-violated": ["score", str(results_dir), "--easy-violated", str(bad)],
        "witness": ["validate-ce", str(identity_net), str(sat_spec), str(bad)],
    }[reader]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: %s is not UTF-8 text" % bad in err and "Traceback" not in err


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_bad_choice_is_usage_error(self, capsys):
        assert main(["score", "somewhere", "--overhead", "triple"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["parse", str(tmp_path / "ghost.vnnlib")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestParse:
    def test_dumps_normalized_json(self, sat_spec, capsys):
        assert main(["parse", str(sat_spec)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_inputs"] == 1
        assert payload["n_outputs"] == 1
        assert len(payload["disjuncts"]) == 1

    def test_disjunct_cap_respected(self, tmp_path, capsys):
        # 13 binary ors distribute to 2^13 = 8192 disjuncts, over the cap of 4096
        lines = ["(declare-const X_0 Real)", "(declare-const Y_0 Real)"]
        lines += ["(assert (>= X_0 0.0))", "(assert (<= X_0 1.0))"]
        lines += ["(assert (or (>= Y_0 %d.0) (<= Y_0 -%d.0)))" % (k, k) for k in range(1, 14)]
        spec = tmp_path / "wide.vnnlib"
        spec.write_text("\n".join(lines) + "\n")
        assert main(["parse", str(spec)]) == 2
        assert "too disjunctive" in capsys.readouterr().err

    def test_unboxed_spec_is_data_error(self, tmp_path, capsys):
        # parse accepts exactly the specs verify and run accept
        spec = tmp_path / "open.vnnlib"
        spec.write_text("(declare-const X_0 Real)(declare-const Y_0 Real)(assert (>= Y_0 0.0))")
        assert main(["parse", str(spec)]) == 2
        captured = capsys.readouterr()
        assert "unbounded input dimension(s): X_0" in captured.err
        assert captured.out == ""

    def test_deep_nesting_is_data_error(self, tmp_path, capsys):
        # without the depth cap, 500 levels overflow the recursion limit
        deep = "(and " * 500 + "(<= Y_0 0.0)" + ")" * 500
        spec = tmp_path / "deep.vnnlib"
        spec.write_text(HOLDS_SPEC_TEXT + "(assert %s)\n" % deep)
        assert main(["parse", str(spec)]) == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_overflowing_number_is_data_error(self, tmp_path, capsys):
        # -1e999 overflows to -inf, which would print as -Infinity: not JSON
        spec = tmp_path / "huge.vnnlib"
        spec.write_text(HOLDS_SPEC_TEXT + "(assert (>= Y_0 -1e999))\n")
        assert main(["parse", str(spec)]) == 2
        captured = capsys.readouterr()
        assert "non-finite number '-1e999'" in captured.err
        assert captured.out == ""


class TestRetiredFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "{spec}", "--max-disjuncts", "2"],
            ["parse", "{spec}", "--allow-unbounded"],
            ["validate-ce", "{net}", "{spec}", "{witness}", "--tol", "1"],
            ["verify", "{net}", "{spec}", "--seed", "0"],
            ["verify", "{net}", "{spec}", "--samples", "5"],
            ["verify", "{net}", "{spec}", "--restarts", "1"],
            ["verify", "{net}", "{spec}", "--steps", "1"],
        ],
        ids=["max-disjuncts", "allow-unbounded", "tol", "seed", "samples", "restarts", "steps"],
    )
    def test_retired_flag_is_usage_error(
        self, identity_net, sat_spec, tmp_path, capsys, argv
    ):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 0.5\n")
        paths = {"{spec}": str(sat_spec), "{net}": str(identity_net), "{witness}": str(witness)}
        assert main([paths.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert "Traceback" not in captured.err


class TestEval:
    def test_identity_forward(self, identity_net, capsys):
        assert main(["eval", str(identity_net), "--input", "0.25"]) == 0
        assert capsys.readouterr().out.strip() == "0.25"

    def test_wrong_arity_is_data_error(self, identity_net, capsys):
        assert main(["eval", str(identity_net), "--input", "1, 2, 3"]) == 2

    def test_corrupt_network_is_data_error(self, identity_net, capsys):
        # a trailing packed block that claims 5 bytes past the end of the file
        identity_net.write_bytes(identity_net.read_bytes() + b"\x0a\x05")
        assert main(["eval", str(identity_net), "--input", "0.25"]) == 2
        assert "Traceback" not in capsys.readouterr().err


    def test_constant_without_output_is_data_error(self, identity_net, unsat_spec, capsys):
        model = wire.decode_model(identity_net.read_bytes())
        model["graph"]["node"].insert(0, constant_node([]))
        identity_net.write_bytes(wire.encode_model(model))
        code = main(["verify", str(identity_net), str(unsat_spec), "--timeout", "30"])
        assert code == 2
        err = capsys.readouterr().err
        assert "has no output" in err and "Traceback" not in err

class TestVerifyFalsify:
    def test_verify_unsat_spec_holds(self, identity_net, unsat_spec, capsys):
        code = main(["verify", str(identity_net), str(unsat_spec), "--timeout", "30"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "holds"

    def test_verify_sat_spec_violated_with_witness(
        self, identity_net, sat_spec, tmp_path, capsys
    ):
        witness = tmp_path / "w.txt"
        code = main(
            [
                "verify",
                str(identity_net),
                str(sat_spec),
                "--witness-out",
                str(witness),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "violated"
        assert witness.is_file()

    def test_falsify_sat_spec(self, identity_net, sat_spec, tmp_path, capsys):
        witness = tmp_path / "w.txt"
        code = main(
            ["falsify", str(identity_net), str(sat_spec), "--witness-out", str(witness)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "violated"
        text = witness.read_text()
        assert "X_0" in text and "Y_0" in text

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("falsify", "--samples", "0"),
            ("falsify", "--restarts", "0"),
            ("falsify", "--steps", "0"),
            ("falsify", "--timeout", "0"),
            ("verify", "--max-subproblems", "0"),
            ("verify", "--timeout", "nan"),
            ("verify", "--timeout", "inf"),
            ("falsify", "--timeout", "1e999"),
        ],
    )
    def test_nonpositive_budget_is_usage_error(
        self, identity_net, sat_spec, capsys, command, flag, value
    ):
        code = main([command, str(identity_net), str(sat_spec), flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument %s: must be positive" % flag in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["falsify", "calibrate-eps"])
    def test_negative_seed_is_usage_error(
        self, identity_net, sat_spec, capsys, command
    ):
        spec = [] if command == "calibrate-eps" else [str(sat_spec)]
        code = main([command, str(identity_net), *spec, "--seed=-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be non-negative" in captured.err
        assert "Traceback" not in captured.err

    def test_falsify_unsat_spec_unknown(self, identity_net, unsat_spec, capsys):
        code = main(
            ["falsify", str(identity_net), str(unsat_spec), "--samples", "20"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "unknown"

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("verify", ["--max-subproblems", "--timeout", "--witness-out"]),
            (
                "falsify",
                ["--restarts", "--samples", "--seed", "--steps", "--timeout", "--witness-out"],
            ),
        ],
    )
    def test_each_search_takes_only_the_flags_it_reads(self, command, flags):
        sub = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        parser = sub.choices[command]
        given = {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}
        assert sorted(given) == flags

    def test_verify_overflow_is_data_error(self, tmp_path, capsys):
        # verify once printed "error" and exited 0, unlike falsify
        net, spec = tmp_path / "huge.onnx", tmp_path / "huge.vnnlib"
        layers = (
            AffineLayer([[1e200, -1e200]], [0.0]),
            ActivationLayer("relu"),
            AffineLayer([[1e200]], [0.0]),
        )
        save_network(Network(layers, 2, 1), net)
        spec.write_text(
            "(declare-const X_0 Real)(declare-const X_1 Real)(declare-const Y_0 Real)"
            "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
            "(assert (>= X_1 0.0))(assert (<= X_1 1.0))(assert (>= Y_0 1e300))"
        )
        assert main(["verify", str(net), str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bound propagation produced non-finite values\n"


class TestValidateCe:
    def test_good_witness(self, identity_net, sat_spec, tmp_path, capsys):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 0.5\n")
        code = main(
            ["validate-ce", str(identity_net), str(sat_spec), str(witness)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_corrupted_witness(self, identity_net, sat_spec, tmp_path, capsys):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 99\n")
        with pytest.warns(UserWarning, match="claimed-output mismatch"):
            code = main(
                ["validate-ce", str(identity_net), str(sat_spec), str(witness)]
            )
        assert code == 2
        assert capsys.readouterr().out.strip() == "fail"

    def test_spec_that_does_not_fit_the_net(self, tmp_path, capsys):
        # a 3-output net and a 2-output spec once failed inside numpy
        net = tmp_path / "wide.onnx"
        save_network(Network((AffineLayer(np.ones((3, 1)), np.zeros(3)),), 1, 3), net)
        spec = tmp_path / "narrow.vnnlib"
        spec.write_text(
            "(declare-const X_0 Real)(declare-const Y_0 Real)(declare-const Y_1 Real)"
            "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_1 0.5))"
        )
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\n")
        assert main(["validate-ce", str(net), str(spec), str(witness)]) == 2
        assert "spec dimensions do not match network" in capsys.readouterr().err


@pytest.fixture()
def echo_setup(tmp_path, identity_net, sat_spec):
    runner = tmp_path / "runner.py"
    runner.write_text(
        "import sys\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    fh.write('holds\\n')\n"
    )
    config = tmp_path / "tools.cfg"
    config.write_text("adapter.echo.run = python3 %s {result}\n" % runner)
    bench = tmp_path / "mini"
    bench.mkdir()
    manifest = bench / "instances.csv"
    manifest.write_text(
        "%s,%s,20\n" % (identity_net, sat_spec)
    )
    return config, manifest


class TestRunAndOverhead:
    def test_run_writes_csvs(self, echo_setup, tmp_path, capsys):
        config, manifest = echo_setup
        out = tmp_path / "out"
        code = main(
            [
                "run",
                str(manifest),
                "--config",
                str(config),
                "--out",
                str(out),
                "--n-trivial",
                "1",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert (out / "echo.csv").is_file()
        assert (out / "randgen.csv").is_file()
        assert "echo:" in printed and "randgen:" in printed

    def test_run_no_baseline(self, echo_setup, tmp_path, capsys):
        config, manifest = echo_setup
        out = tmp_path / "out"
        code = main(
            [
                "run",
                str(manifest),
                "--config",
                str(config),
                "--out",
                str(out),
                "--no-baseline",
                "--n-trivial",
                "0",
            ]
        )
        assert code == 0
        assert not (out / "randgen.csv").exists()

    def test_run_config_keys_respected(self, echo_setup, tmp_path, capsys):
        # run settings are flags; the config names tools only
        config, manifest = echo_setup
        out = tmp_path / "out"
        flags = ["--no-baseline", "--n-trivial", "0"]
        code = main(["run", str(manifest), "--config", str(config), "--out", str(out)] + flags)
        assert code == 0
        assert (out / "echo.csv").is_file()
        assert not (out / "randgen.csv").exists()

    def test_no_flag_turns_the_witness_check_off(self, echo_setup, tmp_path, capsys):
        config, manifest = echo_setup
        out = tmp_path / "out"
        argv = ["run", str(manifest), "--config", str(config), "--out", str(out)]
        assert main(argv + ["--lenient-witness"]) == 1
        assert "--lenient-witness" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key",
        [
            "baseline.tool = mybase",
            "strict_witnes = off",
            # run settings are flags, not config keys, whatever the value
            "baseline = off",
            "strict_witness = off",
            "grace = -30",
            "n_trivial = -1",
            "seed = -1",
        ],
    )
    def test_unknown_config_key_is_data_error(self, echo_setup, tmp_path, capsys, key):
        config, manifest = echo_setup
        config.write_text(config.read_text() + key + "\n")
        for argv in (
            ["run", str(manifest), "--out", str(tmp_path / "out")],
            ["measure-overhead", "--out", str(tmp_path / "warm")],
        ):
            assert main(argv + ["--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert "unknown config key %r" % key.split(" = ")[0] in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["run", "prepare"])
    def test_command_that_does_not_split_is_data_error(
        self, echo_setup, tmp_path, capsys, field
    ):
        config, manifest = echo_setup
        fields = {"run": "true", field: 'sh -c "echo {result}'}
        config.write_text(
            config.read_text() + "".join("adapter.bad.%s = %s\n" % kv for kv in fields.items())
        )
        out = tmp_path / "out"
        argv = ["run", str(manifest), "--config", str(config), "--out", str(out)]
        assert main(argv + ["--n-trivial", "0"]) == 2
        err = capsys.readouterr().err
        assert "adapter bad: cannot split its %s command" % field in err
        assert "Traceback" not in err
        assert not out.exists()  # nothing ran

    def test_negative_n_trivial_is_data_error(self, echo_setup, tmp_path, capsys):
        # run and measure-overhead share one check of the warm-up count
        config, manifest = echo_setup
        extra = ["--n-trivial", "-1"]
        out = tmp_path / "out"
        argv = ["run", str(manifest), "--config", str(config), "--out", str(out)]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert "n_trivial must be >= 0" in err and "Traceback" not in err
        assert not out.exists()  # nothing ran
        argv = ["measure-overhead", "--config", str(config), "--out", str(out)]
        assert main(argv + extra) == 2
        assert "n_trivial must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_non_finite_timeout_is_data_error(self, echo_setup, tmp_path, capsys, timeout):
        # a nan or inf timeout used to reach communicate(timeout=...) and
        # abort the batch with no CSV written
        config, manifest = echo_setup
        marker = tmp_path / "adapter-ran"
        config.write_text(
            config.read_text() + "adapter.echo.prepare = touch %s\n" % marker
        )
        manifest.write_text(manifest.read_text().replace(",20\n", ",%s\n" % timeout))
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-finite timeout" in err and "Traceback" not in err
        assert not out.exists() and not marker.exists()  # no adapter ran
        # measure-overhead has no --timeout: warm-ups take one fixed timeout
        argv = ["measure-overhead", "--config", str(config), "--out", str(out)]
        assert main(argv + ["--timeout", timeout]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --timeout" in err and "Traceback" not in err
        assert not out.exists() and not marker.exists()

    def test_timeout_over_cap_is_data_error(self, echo_setup, tmp_path, capsys):
        # a timeout the OS wait cannot take is refused before anything runs
        config, manifest = echo_setup
        marker = tmp_path / "adapter-ran"
        config.write_text(
            config.read_text() + "adapter.echo.prepare = touch %s\n" % marker
        )
        manifest.write_text(manifest.read_text().replace(",20\n", ",3e6\n"))
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "s cap at" in err and "line 1" in err and "Traceback" not in err
        assert not out.exists() and not marker.exists()

    @pytest.mark.parametrize(
        "key, message",
        [
            # every record carries the mode, and an empty one failed the
            # batch at its first record, after the warm-up ran
            ("adapter.echo.mode =", "adapter echo needs a mode label"),
            # the id names <out>/<tool>.csv, which failed after every run
            ("adapter.a/b.run = true", "adapter id 'a/b' is not one path component"),
        ],
    )
    def test_adapter_results_files_cannot_carry_is_data_error(
        self, echo_setup, tmp_path, capsys, key, message
    ):
        config, manifest = echo_setup
        marker = tmp_path / "adapter-ran"
        config.write_text(
            config.read_text() + "adapter.echo.prepare = touch %s\n%s\n" % (marker, key)
        )
        for argv in (
            ["run", str(manifest), "--out", str(tmp_path / "out")],
            ["measure-overhead", "--out", str(tmp_path / "out")],
        ):
            assert main(argv + ["--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists() and not marker.exists()  # nothing ran

    def test_duplicate_manifest_row_is_data_error(self, echo_setup, tmp_path, capsys):
        # ids key every results row, so a repeated id is refused before any tool runs
        config, manifest = echo_setup
        marker = tmp_path / "adapter-ran"
        config.write_text(
            config.read_text() + "adapter.echo.prepare = touch %s\n" % marker
        )
        manifest.write_text(manifest.read_text() * 2)
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "duplicate instance net-sat at %s lines 1 and 2" % manifest.resolve() in err
        assert "Traceback" not in err
        assert not out.exists() and not marker.exists()  # no adapter ran

    def test_measure_overhead_over_run_results_scores(self, echo_setup, tmp_path, capsys):
        # re-measured warm-ups replace the tool's warm-ups from --results;
        # the baseline's rows stay as they were
        config, manifest = echo_setup
        run, warm = tmp_path / "run", tmp_path / "warm"
        argv = ["run", str(manifest), "--config", str(config), "--out", str(run)]
        assert main(argv + ["--n-trivial", "2"]) == 0
        argv = ["measure-overhead", "--config", str(config), "--out", str(warm)]
        assert main(argv + ["--results", str(run), "--n-trivial", "3"]) == 0
        echo = read_results_csv(warm / "echo.csv", tool="echo")
        assert [r.instance_id for r in echo] == ["net-sat", "trivial-0", "trivial-1", "trivial-2"]
        randgen = read_results_csv(warm / "randgen.csv", tool="randgen")
        assert randgen == read_results_csv(run / "randgen.csv", tool="randgen")
        assert [r.instance_id for r in randgen] == ["net-sat", "trivial-0", "trivial-1"]
        capsys.readouterr()
        assert main(["score", str(warm)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_measure_overhead_prints_model(self, echo_setup, tmp_path, capsys):
        config, _ = echo_setup
        out = tmp_path / "warm"
        code = main(
            [
                "measure-overhead",
                "--config",
                str(config),
                "--out",
                str(out),
                "--n-trivial",
                "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("echo default ") for line in lines)
        assert (out / "echo.csv").is_file()

    def test_measure_overhead_prepares_adapters(self, echo_setup, tmp_path, capsys):
        # like run: prepare first, and the warm-up instances stay under --out
        config, _ = echo_setup
        adapters = config.read_text()
        out = tmp_path / "warm"
        argv = ["measure-overhead", "--config", str(config), "--out", str(out)]
        config.write_text(adapters + 'adapter.echo.prepare = python3 -c "raise SystemExit(1)"\n')
        assert main(argv + ["--n-trivial", "1"]) == 2
        assert "prepare failed for echo (exit 1)" in capsys.readouterr().err
        assert not out.exists()
        config.write_text(adapters + 'adapter.echo.prepare = python3 -c "pass"\n')
        assert main(argv + ["--n-trivial", "1"]) == 0
        assert (out / "trivial" / "trivial-0.onnx").is_file()
        assert (out / "trivial" / "results" / "echo" / "trivial-0.result").is_file()

    def test_prepare_program_that_does_not_exist_names_the_tool(
        self, echo_setup, tmp_path, capsys
    ):
        config, _ = echo_setup
        config.write_text(config.read_text() + "adapter.echo.prepare = no-such-prog-xyz\n")
        argv = ["measure-overhead", "--config", str(config), "--out", str(tmp_path / "warm")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "prepare failed for echo" in err and "no-such-prog-xyz" in err

    def test_measure_overhead_zero_trivial_keeps_results(
        self, echo_setup, results_dir, tmp_path, capsys
    ):
        config, _ = echo_setup
        out = tmp_path / "warm"
        argv = ["measure-overhead", "--config", str(config), "--out", str(out)]
        assert main(argv + ["--results", str(results_dir), "--n-trivial", "0"]) == 0
        for name in ("fast.csv", "slow.csv"):
            assert (out / name).read_bytes() == (results_dir / name).read_bytes()
        assert read_results_csv(out / "echo.csv", tool="echo") == []
        assert not (out / "trivial").exists()

    def test_run_and_measure_overhead_write_the_same_warmups(
        self, echo_setup, tmp_path, capsys
    ):
        config, manifest = echo_setup
        k = ["--n-trivial", "2"]

        def warmups(path, tool):
            return [
                (r.instance_id, r.benchmark, r.mode)
                for r in read_results_csv(path / ("%s.csv" % tool), tool=tool)
                if r.benchmark == "trivial"
            ]

        def layout(path):
            root = path / "trivial"
            return sorted(p.relative_to(root) for p in root.rglob("*"))

        run, warm, full = tmp_path / "run", tmp_path / "warm", tmp_path / "full"
        base = ["--config", str(config), "--out"]
        assert main(["run", str(manifest)] + base + [str(run), "--no-baseline"] + k) == 0
        assert main(["measure-overhead"] + base + [str(warm)] + k) == 0
        expected = [("trivial-0", "trivial", "default"), ("trivial-1", "trivial", "default")]
        assert warmups(run, "echo") == warmups(warm, "echo") == expected
        assert layout(run) == layout(warm)
        assert Path("results/echo/trivial-1.result") in layout(warm)

        assert main(["run", str(manifest)] + base + [str(full)] + k) == 0
        assert not (full / "trivial-baseline").exists()
        assert layout(full) == layout(run)
        assert warmups(full, "randgen") == [
            (iid, "trivial", "default") for iid in ("trivial-0", "trivial-1")
        ]


@pytest.fixture()
def results_dir(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    rows = {
        "fast": [
            RunRecord("fast", "i1", "bench", Status.HOLDS, 2.0),
            RunRecord("fast", "warm", "trivial", Status.HOLDS, 0.1),
        ],
        "slow": [
            RunRecord("slow", "i1", "bench", Status.HOLDS, 9.0),
            RunRecord("slow", "warm", "trivial", Status.HOLDS, 0.1),
        ],
    }
    for tool, records in rows.items():
        write_results_csv(out / ("%s.csv" % tool), records)
    return out


class TestScore:
    def test_report_to_stdout(self, results_dir, capsys):
        assert main(["score", str(results_dir)]) == 0
        report = capsys.readouterr().out
        assert "== overall ==" in report
        assert "fast" in report and "slow" in report
        assert "# adjudication: odd-one-out" in report

    def test_flags_respected(self, results_dir, capsys):
        assert main(
            ["score", str(results_dir), "--adjudication", "voting", "--overhead", "single"]
        ) == 0
        report = capsys.readouterr().out
        assert "# adjudication: voting" in report

    def test_out_dir_files(self, results_dir, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["score", str(results_dir), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert (out / "report.txt").is_file()
        assert (out / "overall.csv").is_file()
        assert "report.txt" in printed

    def test_easy_violated_file(self, results_dir, tmp_path, capsys):
        listing = tmp_path / "easy.txt"
        listing.write_text("i1\n")
        assert main(["score", str(results_dir), "--easy-violated", str(listing)]) == 0
        assert "# easy-violated instances: 1" in capsys.readouterr().out

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["score", str(empty)]) == 2


class TestCalibrateEps:
    def test_radius_within_range(self, tmp_path, capsys, net_factory):
        rng = np.random.default_rng(3)
        net = net_factory(rng, n_in=2, hidden=[4], n_out=2)
        path = tmp_path / "net.onnx"
        save_network(net, path)
        code = main(
            [
                "calibrate-eps",
                str(path),
                "--center",
                "0.0, 0.0",
                "--eps-max",
                "0.5",
                "--eps-tol",
                "0.05",
                "--oracle-seconds",
                "0.5",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 0.5

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--oracle-seconds", "0"),
            ("--eps-max", "-1"),
            ("--eps-tol", "nan"),
            ("--eps-max", "inf"),
            ("--eps-tol", "1e999"),
            ("--oracle-seconds", "inf"),
        ],
    )
    def test_nonpositive_flag_is_usage_error(self, identity_net, capsys, flag, value):
        code = main(["calibrate-eps", str(identity_net), flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument %s: must be positive" % flag in captured.err
        assert "Traceback" not in captured.err

    def test_overflowing_ball_is_data_error(self, tmp_path, capsys, net_factory):
        # 0.5 +- 1e308 is finite, but the ball's width overflows
        path = tmp_path / "net.onnx"
        save_network(net_factory(np.random.default_rng(3), n_in=2, hidden=[4], n_out=2), path)
        argv = ["calibrate-eps", str(path), "--center", "0.5,0.5", "--eps-max", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the ball around the center is not finite" in captured.err

    def test_tanh_net_gets_a_radius(self, tmp_path, capsys):
        # y_1 overtakes y_0 = tanh(x_0) in the ball around (1, 0) from radius 0.5
        path = tmp_path / "tanh.onnx"
        net = Network((AffineLayer(np.eye(2), np.zeros(2)), ActivationLayer("tanh")), 2, 2)
        save_network(net, path)
        argv = ["calibrate-eps", str(path), "--center", "1,0", "--eps-max", "1"]
        assert main(argv + ["--eps-tol", "0.01"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert 0.49 <= float(captured.out) <= 0.52

    def test_single_output_is_data_error(self, identity_net, capsys):
        code = main(
            ["calibrate-eps", str(identity_net), "--center", "0.0"]
        )
        assert code == 2


def _cli(*argv):
    """veribench run as its own process, so warnings show as they would."""
    src = Path(veribench.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "veribench.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestWarnings:
    # a warning once printed as "<file>.py:<line>: UserWarning: ..." and a
    # source line, the file being numpy's or one that moved with the spec

    def test_claimed_output_mismatch_is_one_line(self, identity_net, sat_spec, tmp_path):
        witness = tmp_path / "w.txt"
        witness.write_text("X_0 0.5\nY_0 99\n")
        proc = _cli("validate-ce", identity_net, sat_spec, witness)
        assert proc.returncode == 2
        assert proc.stdout == "fail\n"
        assert proc.stderr == (
            "warning: claimed-output mismatch: deviation 98.5 exceeds tolerance\n"
        )

    def test_nested_strict_atom_is_one_line(self, tmp_path):
        spec = tmp_path / "strict.vnnlib"
        spec.write_text(HOLDS_SPEC_TEXT + "(assert (or (and (< Y_0 0.5))))\n")
        proc = _cli("parse", spec)
        assert proc.returncode == 0
        assert proc.stderr == "warning: strict '<' at line 6 treated as non-strict\n"


class TestNumberRule:
    # float() and int() also read digit-group underscores and digits
    # outside ASCII, which the VNNLIB and witness readers refuse

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{net}", "--input", "1_0, 3"],
            ["eval", "{net}", "--input", "0 \u0663"],
            ["calibrate-eps", "{net}", "--center", "1_0,0"],
        ],
        ids=["eval-underscore", "eval-arabic-digit", "center-underscore"],
    )
    def test_bad_number_list_is_data_error(self, argv, tmp_path, capsys, net_factory):
        net = tmp_path / "net.onnx"
        save_network(net_factory(np.random.default_rng(3), n_in=2, hidden=[4], n_out=2), net)
        assert main([str(net) if a == "{net}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: bad number list %r" % argv[-1] in captured.err

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["verify", "{net}", "{spec}", "--timeout", "1_0"], "float"),
            (["verify", "{net}", "{spec}", "--max-subproblems", "1_0"], "int"),
            (["falsify", "{net}", "{spec}", "--timeout", "\u0663"], "float"),
            (["falsify", "{net}", "{spec}", "--samples", "\u0663"], "int"),
            (["falsify", "{net}", "{spec}", "--restarts", "1_0"], "int"),
            (["falsify", "{net}", "{spec}", "--steps", "\u0663"], "int"),
            (["falsify", "{net}", "{spec}", "--seed", "1_0"], "int"),
            (["calibrate-eps", "{net}", "--eps-max", "0.0_1"], "float"),
            (["calibrate-eps", "{net}", "--eps-tol", "\u0663"], "float"),
            (["calibrate-eps", "{net}", "--oracle-seconds", "1_0"], "float"),
            (["calibrate-eps", "{net}", "--seed", "\u0663"], "int"),
            (["run", "{manifest}", "--config", "{config}", "--out", "{out}",
              "--n-trivial", "\u0660"], "int"),
            (["measure-overhead", "--config", "{config}", "--out", "{out}",
              "--n-trivial", "1_0"], "int"),
        ],
        ids=[
            "verify-timeout", "max-subproblems", "falsify-timeout", "samples", "restarts",
            "steps", "falsify-seed", "eps-max", "eps-tol", "oracle-seconds",
            "calibrate-seed", "run-n-trivial", "overhead-n-trivial",
        ],
    )
    def test_bad_number_flag_is_usage_error(
        self, argv, kind, echo_setup, identity_net, sat_spec, tmp_path, capsys
    ):
        config, manifest = echo_setup
        paths = {
            "{net}": identity_net, "{spec}": sat_spec, "{manifest}": manifest,
            "{config}": config, "{out}": tmp_path / "out",
        }
        assert main([str(paths.get(a, a)) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument %s: invalid %s value: %r" % (argv[-2], kind, argv[-1]) in captured.err
        assert not (tmp_path / "out").exists()

    def test_signed_ascii_numbers_still_read(self, identity_net, sat_spec, capsys):
        argv = ["falsify", str(identity_net), str(sat_spec), "--seed", "+1", "--timeout", "1e1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "violated\n"


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("veribench ")]


def test_readme_command_lines_parse():
    # the documented flags are the parser's flags
    commands = _readme_commands()
    assert len(commands) == 9
    parser = _build_parser()
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        args = parser.parse_args(argv)
        assert args.command == argv[0] and args.func is not None, line


def test_readme_names_every_flag():
    # every parser flag is documented, so a new flag comes with its docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parsers, flags = [_build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(f for f in action.option_strings if f.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    flags.discard("--help")
    assert len(flags) > 10
    missing = sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", readme))
    assert not missing, "flags missing from README.md: %s" % ", ".join(missing)
