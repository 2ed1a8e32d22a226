"""The benchmark's own tests: every workload at minimal scale, outputs checked.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import hostspeed  # noqa: E402


def run_bench(*args, cwd=ROOT, bench=HERE):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["bab", "attack", "campaign"])
def test_smoke_run_is_correct_and_complete(workload, trace, tmp_path):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "bab", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_oracle_reader_matches_property_structure():
    # disjunct counts: ors distribute over the box and output constraints
    counts = {1: 1, 2: 1, 3: 1, 4: 1, 5: 4, 6: 8, 7: 2, 8: 16, 9: 4, 10: 4}
    for p, n in counts.items():
        text = (gen.PROPS_DIR / ("prop_%d.vnnlib" % p)).read_text(encoding="utf-8")
        assert len(gen.read_property(text)) == n, p
    (d,) = gen.read_property((gen.PROPS_DIR / "prop_1.vnnlib").read_text(encoding="utf-8"))
    assert d.lower[0] == 0.6 and d.c0.tolist() == [3.991125645861615]
    boxes = {tuple(d.lower) for d in gen.read_property(
        (gen.PROPS_DIR / "prop_6.vnnlib").read_text(encoding="utf-8"))}
    assert len(boxes) == 2  # prop 6 has two input boxes


def test_oracle_witness_check(tmp_path):
    w = gen.generate(tmp_path / "acasxu", seed=5, n_nets=2)
    known = [i for i in w.instances if i.witness is not None]
    assert known, "the gap grid always plants a violation of prop 2"
    inst = known[0]
    layers, prop = w.nets[inst.net_name], w.props[inst.prop]
    assert gen.witness_ok(layers, prop, inst.witness)
    assert not gen.witness_ok(layers, prop, inst.witness[:-1])
    outside = np.array(inst.witness)
    outside[0] = prop[0].upper[0] + 0.1
    assert not gen.witness_ok(layers, prop, outside)


def test_generator_is_seeded(tmp_path):
    a = gen.generate(tmp_path / "a" / "acasxu", 7, 2)
    b = gen.generate(tmp_path / "b" / "acasxu", 7, 2)
    c = gen.generate(tmp_path / "c" / "acasxu", 8, 2)
    assert a.manifest.read_bytes() == b.manifest.read_bytes()
    for name in a.net_paths:
        assert a.net_paths[name].read_bytes() == b.net_paths[name].read_bytes()
    assert any(
        a.net_paths[n].read_bytes() != c.net_paths[n].read_bytes() for n in a.net_paths
    )


def test_generator_fixes_the_verdict_mix(tmp_path):
    for seed in (1, 2):
        w = gen.generate(tmp_path / str(seed) / "acasxu", seed, 25)
        known = Counter(i.prop for i in w.instances if i.witness is not None)
        assert known[3] == known[4] == round(gen.MIN_SHARE * 25)
        assert {p for p in gen.ONCE_PROPS if known[p]} == set(gen.ONCE_VIOLATED)


def test_host_speed_scales_to_reference_speed():
    speed = hostspeed.HostSpeed()
    first, second = speed.probe(), speed.probe()
    assert speed.spent >= first + second
    assert speed.scale() == hostspeed.REFERENCE_SECONDS / second
    assert speed.scale(0) == hostspeed.REFERENCE_SECONDS / ((first + second) / 2)
    assert hostspeed.Unscaled().scale() == 1.0
