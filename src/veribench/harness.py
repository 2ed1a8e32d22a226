"""Competition orchestration.

Loads benchmark manifests, runs external tools as subprocesses under
per-instance timeouts, runs the built-in sampling/gradient baseline,
calibrates robustness radii by binary search, and writes score reports.
A tool run writes its output to a file beside its result file, never to a
pipe, and ends with its whole process group killed.  ``run_batch`` is the
one place that builds and runs the trivial warm-up instances on which
startup overhead is measured; ``measure-overhead`` is ``run_batch`` over no
instances with the baseline off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import math
import os
import re
import select
import shlex
import shutil
import signal
import subprocess
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bounds import _bound, _plan
from .network import _QUIET, NetworkError, UnsupportedNetworkError, forward
from .network import gen_trivial_network, load_network, save_network
from .scoring import RunRecord, ScoreLedger, write_results_csv
from .scoring import (
    BASELINE_TOOL,
    TRIVIAL_BENCHMARK,
    benchmark_table_csv,
    overall_table_csv,
    render_instance_log,
    render_report,
)
from .speclang import Conjunct, NormalizedSpec, SpecError, _read_text, load_spec
from .verifier import (
    Budget,
    EASY_VIOLATED_BUDGET,
    Status,
    falsify,
    read_witness,
    validate_witness,
    verify,
    write_witness,
)

log = logging.getLogger(__name__)

BENCHMARK_BUDGET_SECONDS = 6 * 3600.0
GRACE_SECONDS = 10.0  # a timed-out tool is killed this long after its timeout
TRIVIAL_TIMEOUT_SECONDS = 60.0  # the timeout of every warm-up instance
# The longest instance timeout (11.6 days): timeout + GRACE_SECONDS stays
# well inside the 2**31 ms that the OS wait for a tool's exit can take.
MAX_TIMEOUT_SECONDS = 1e6

MANIFEST_COLUMNS = ("onnx_path", "vnnlib_path", "timeout_seconds")

# The run command's placeholders, each replaced by its value in one scan.
_PLACEHOLDER = re.compile(r"\{(network|spec|timeout|result)\}")


class HarnessError(ValueError):
    """Bad manifests, adapter configs, or calibration requests."""


@dataclass(frozen=True)
class Instance:
    """One scoring unit: a network, a spec, and a timeout.

    The timeout, a number or its text, must be positive and at most
    MAX_TIMEOUT_SECONDS (1e6 s); anything else, nan and inf included, raises
    ``HarnessError``.
    """

    instance_id: str
    benchmark: str
    network_path: Path
    spec_path: Path
    timeout: float

    def __post_init__(self):
        object.__setattr__(self, "network_path", Path(self.network_path))
        object.__setattr__(self, "spec_path", Path(self.spec_path))
        try:
            object.__setattr__(self, "timeout", float(self.timeout))
        except (TypeError, ValueError):
            raise HarnessError(
                "instance %s: bad timeout %r" % (self.instance_id, self.timeout)
            ) from None
        # the one check of a timeout: nan passes a plain <= 0 test
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise HarnessError(
                "%s timeout %r for %s"
                % ("non-positive" if self.timeout <= 0 else "non-finite",
                   self.timeout, self.instance_id)
            )
        if self.timeout > MAX_TIMEOUT_SECONDS:
            raise HarnessError(
                "timeout %r for %s is over the %g s cap"
                % (self.timeout, self.instance_id, MAX_TIMEOUT_SECONDS)
            )


@dataclass(frozen=True)
class ToolAdapter:
    """How to invoke one external tool.

    run_template is a shell-style command whose tokens may contain the
    placeholders {network}, {spec}, {timeout}, {result}, replaced in one
    scan, so a value is never scanned again; the command must write the
    result file: first line a status token, second line an optional witness
    path.  The tool id names the tool's results file and directories, so it
    must be one path component, and every record carries the mode label, so
    it must not be empty; else ``HarnessError`` names the tool, before any
    tool runs.  The run and prepare commands are split into tokens once,
    here; one that does not split (an unclosed quote, a trailing escape)
    raises ``HarnessError`` naming the tool.  A bare program name (``sh``)
    is looked up on ``PATH`` here too, not at every launch; one not found
    stays bare, so its runs fail to launch as ERROR.
    """

    tool: str
    run_template: str
    prepare: str = ""
    mode: str = "default"
    run_tokens: tuple = dataclasses.field(init=False, repr=False, compare=False)
    prepare_tokens: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tool:
            raise HarnessError("adapter needs a tool id")
        if self.tool in (".", "..") or set(self.tool) & {os.sep, os.altsep, "\0"}:
            raise HarnessError("adapter id %r is not one path component" % self.tool)
        if not self.mode:
            raise HarnessError("adapter %s needs a mode label" % self.tool)
        if not self.run_template.strip():
            raise HarnessError("adapter %s needs a run command" % self.tool)
        for name, command in (("run", self.run_template), ("prepare", self.prepare)):
            try:
                tokens = tuple(shlex.split(command))
            except ValueError as exc:  # an unclosed quote or a trailing escape
                raise HarnessError(
                    "adapter %s: cannot split its %s command %r: %s"
                    % (self.tool, name, command, exc)
                ) from None
            if tokens:  # which() returns a path as given, when it is executable
                tokens = (shutil.which(tokens[0]) or tokens[0],) + tokens[1:]
            object.__setattr__(self, name + "_tokens", tokens)

    def argv(self, network, spec, timeout, result) -> list:
        subs = {
            "network": str(network),
            "spec": str(spec),
            "timeout": "%g" % timeout,
            "result": str(result),
        }
        return [_PLACEHOLDER.sub(lambda m: subs[m[1]], token) for token in self.run_tokens]


# ---------------------------------------------------------------------------
# manifests

def load_manifest(path, *, require_files: bool = False) -> list:
    """Read a benchmark manifest CSV into Instances, in file order.

    Rows are ``onnx_path,vnnlib_path,timeout_seconds`` with paths
    relative to the manifest; a header row is tolerated.  The benchmark
    name is always the manifest's directory name, so no caller can file
    instances under another benchmark such as ``trivial``.  An instance id
    is ``<network stem>-<spec stem>`` and must be unique: a second row with
    the same id raises ``HarnessError`` naming both lines, even when its
    paths differ.
    """
    path = Path(path)
    if not path.is_file():
        raise HarnessError("manifest not found: %s" % path)
    benchmark = path.resolve().parent.name
    instances = []
    first_line: dict = {}  # instance id -> the line that named it
    totals = 0.0
    lines = _read_text(path, HarnessError).splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts == list(MANIFEST_COLUMNS):
            continue
        if len(parts) != 3:
            raise HarnessError("bad manifest row at %s line %d" % (path, line_no))
        net_rel, spec_rel, timeout = parts
        network_path = (path.parent / net_rel).resolve()
        spec_path = (path.parent / spec_rel).resolve()
        try:
            inst = Instance(
                instance_id="%s-%s" % (network_path.stem, spec_path.stem),
                benchmark=benchmark,
                network_path=network_path,
                spec_path=spec_path,
                timeout=timeout,
            )
        except HarnessError as exc:
            raise HarnessError("%s at %s line %d" % (exc, path, line_no)) from None
        first = first_line.setdefault(inst.instance_id, line_no)
        if first != line_no:
            raise HarnessError(
                "duplicate instance %s at %s lines %d and %d"
                % (inst.instance_id, path, first, line_no)
            )
        if require_files:
            for p in (network_path, spec_path):
                if not p.is_file():
                    raise HarnessError(
                        "instance file not found: %s at %s line %d" % (p, path, line_no)
                    )
        instances.append(inst)
        totals += inst.timeout
    if not instances:
        warnings.warn("manifest %s has no instances" % path, stacklevel=2)
    if totals > BENCHMARK_BUDGET_SECONDS:
        warnings.warn(
            "benchmark %s timeouts sum to %.0f s, over the 6-hour budget"
            % (benchmark, totals),
            stacklevel=2,
        )
    return instances


# ---------------------------------------------------------------------------
# subprocess runner

def _load_instance_problem(inst: Instance, decoded: Optional[dict] = None):
    """The instance's network and spec.  With ``decoded``, a file already
    loaded into it is not decoded again; nets and specs are keyed apart, by
    path, and are immutable, so runs can share them.  A load that raises
    stores nothing, so every run that reads a bad file fails on its own."""
    if decoded is None:
        decoded = {}
    net_key, spec_key = ("network", inst.network_path), ("spec", inst.spec_path)
    if net_key not in decoded:
        decoded[net_key] = load_network(inst.network_path)
    if spec_key not in decoded:
        decoded[spec_key] = load_spec(inst.spec_path)
    return decoded[net_key], decoded[spec_key]


def _parse_result_file(path: Path):
    """Result protocol: line 1 status token, line 2 optional witness path."""
    lines = [ln.strip() for ln in _read_text(path, HarnessError).splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or len(lines) > 2:
        raise HarnessError("unparseable result file %s" % path)
    try:
        status = Status(lines[0].lower())
    except ValueError:
        raise HarnessError(
            "unparseable result file %s: bad status %r" % (path, lines[0])
        ) from None
    return status, lines[1] if len(lines) == 2 else ""


def _kill_group(proc: subprocess.Popen) -> None:
    # the child leads its own session: its pid names the group, even once reaped
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(proc.pid, signal.SIGKILL)
    with contextlib.suppress(subprocess.TimeoutExpired):  # kernel cleanup race
        proc.wait(timeout=5)


def _wait_for_exit(proc: subprocess.Popen, timeout: float) -> None:
    """Return once proc has exited or timeout seconds have passed.  A pidfd
    (Linux 5.3+) is ready the moment the child exits; Popen.wait(timeout),
    the fallback, polls with sleeps of up to 50 ms that count as run time."""
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout)
        return
    try:
        poll = select.poll()
        poll.register(fd, select.POLLIN)
        poll.poll(1e3 * timeout)
    finally:
        os.close(fd)


def _record(tool, inst: Instance, status, seconds, **fields) -> RunRecord:
    """The one record of a run on inst: its raw time is capped at the
    instance's timeout, so a late kill cannot distort overhead minima."""
    return RunRecord(
        tool=tool,
        instance_id=inst.instance_id,
        benchmark=inst.benchmark,
        status=status,
        seconds=min(seconds, inst.timeout),
        **fields,
    )


def run_tool(
    adapter: ToolAdapter,
    inst: Instance,
    *,
    result_dir,
    decoded: Optional[dict] = None,
) -> RunRecord:
    """Run one adapter on one instance under its timeout.

    The child runs in its own process group, with stdout and stderr going
    to ``<result>.out`` beside the result file, which is kept on every path.
    It is waited on for at most timeout + GRACE_SECONDS (read at call time),
    and then its whole group is killed, so no process of the run outlives
    it.  The run is a TIMEOUT when the wait lasted at least the timeout.
    A crashing adapter, or a result directory, stale result or ``.out``
    file that the run cannot make or remove, yields an ERROR record with a
    warning naming the path, never an exception.

    Every VIOLATED claim with a witness is checked against the instance's
    network and spec after the clock stops, so the check is never run time;
    a witness that does not validate makes the run an ERROR.  Only a
    warm-up's witness (benchmark TRIVIAL_BENCHMARK, never scored) is kept
    unchecked.  Called alone, the run decodes both files; ``run_batch``
    passes ``decoded``, its one memo for the batch, so each file decodes at
    most once per batch (see ``_load_instance_problem``).
    """
    record = functools.partial(_record, adapter.tool, inst, mode=adapter.mode)
    result_dir = Path(result_dir)
    result_path = result_dir / ("%s.result" % inst.instance_id)
    out_path = result_path.with_suffix(".out")
    argv = adapter.argv(inst.network_path, inst.spec_path, inst.timeout, result_path)
    try:
        result_dir.mkdir(parents=True, exist_ok=True)
        result_path.unlink(missing_ok=True)
        out = open(out_path, "wb")
    except OSError as exc:  # an OSError names its path
        log.warning(
            "adapter %s cannot run on %s: %s", adapter.tool, inst.instance_id, exc
        )
        return record(Status.ERROR, 0.0)

    with out:
        start = time.monotonic()
        try:
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, start_new_session=True
            )
        except OSError as exc:
            log.warning("adapter %s failed to launch: %s", adapter.tool, exc)
            return record(Status.ERROR, time.monotonic() - start)
        _wait_for_exit(proc, inst.timeout + GRACE_SECONDS)
        elapsed = time.monotonic() - start
        _kill_group(proc)

    if elapsed >= inst.timeout:
        return record(Status.TIMEOUT, elapsed)

    if not result_path.is_file():
        log.warning(
            "adapter %s exited %d without a result file on %s; output at %s",
            adapter.tool, proc.returncode, inst.instance_id, out_path,
        )
        return record(Status.ERROR, elapsed)
    try:
        status, witness_rel = _parse_result_file(result_path)
    except HarnessError as exc:
        log.warning("%s; output at %s", exc, out_path)
        return record(Status.ERROR, elapsed)

    witness = ""
    if witness_rel and status is Status.VIOLATED:  # relative to the result file
        witness = str(result_path.parent / witness_rel)

    if witness and inst.benchmark != TRIVIAL_BENCHMARK:
        try:
            claimed = read_witness(witness)  # before the costlier network and spec
            net, spec = _load_instance_problem(inst, decoded)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ok = validate_witness(net, spec, claimed)
            detail = "; ".join(str(w.message) for w in caught)
        except (OSError, ValueError, ArithmeticError) as exc:
            ok, detail = False, str(exc)
        if not ok:
            log.warning(
                "witness validation failed for %s on %s: %s; output at %s",
                adapter.tool, inst.instance_id, detail or "spec not satisfied", out_path,
            )
            return record(Status.ERROR, elapsed)

    return record(status, elapsed, witness_path=witness)


def prepare_adapter(adapter: ToolAdapter) -> None:
    """Run the adapter's one-time prepare command, if any, and wait for it
    to exit.  Its output goes to the harness's stderr; stdout stays the
    CLI's report channel."""
    if not adapter.prepare_tokens:
        return
    try:
        proc = subprocess.run(adapter.prepare_tokens, stdout=2)  # fd 2: stderr
    except OSError as exc:
        raise HarnessError("prepare failed for %s: %s" % (adapter.tool, exc)) from None
    if proc.returncode != 0:
        raise HarnessError(
            "prepare failed for %s (exit %d)" % (adapter.tool, proc.returncode)
        )


# ---------------------------------------------------------------------------
# built-in baseline

def run_baseline(
    inst: Instance,
    budget: Budget = EASY_VIOLATED_BUDGET,
    *,
    witness_dir,
) -> RunRecord:
    """Run the bundled participant: quick falsification, then verification.

    Records carry the tool id BASELINE_TOOL, which scoring treats as the
    baseline, and the mode "default".  The falsifier gets the pinned
    easy-violated budget; whatever instance time remains goes to
    branch-and-bound verification.  A network the loader refuses as
    unsupported (``UnsupportedNetworkError``: an operator, an element type
    or a branching graph) yields UNKNOWN, mirroring tools that skip a
    benchmark rather than erroring on it; any other load failure is ERROR.
    A violated run saves its witness as ``<instance_id>.txt`` under
    witness_dir; a witness that cannot be saved makes the run an ERROR,
    with a warning naming the path, as ``run_tool`` does for a witness it
    cannot read.
    """
    start = time.monotonic()
    status, witness = _baseline_verdict(inst, budget, witness_dir, start)
    seconds = time.monotonic() - start
    return _record(BASELINE_TOOL, inst, status, seconds, witness_path=witness)


def _baseline_verdict(inst: Instance, budget: Budget, witness_dir, start: float) -> tuple:
    """The baseline's status and witness path ("" for none) on inst, its
    run started at the monotonic time start."""
    try:
        net, spec = _load_instance_problem(inst)
    except UnsupportedNetworkError:
        return Status.UNKNOWN, ""
    except (NetworkError, SpecError, OSError) as exc:
        log.warning("baseline failed to load %s: %s", inst.instance_id, exc)
        return Status.ERROR, ""

    def violated(witness):
        path = Path(witness_dir) / ("%s.txt" % inst.instance_id)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_witness(witness, path)
        except OSError as exc:
            log.warning("baseline failed to save its witness to %s: %s", path, exc)
            return Status.ERROR, ""
        return Status.VIOLATED, str(path)

    try:
        falsify_budget = dataclasses.replace(
            budget, wall_seconds=min(budget.wall_seconds, inst.timeout)
        )
        witness = falsify(net, spec, falsify_budget)
        if witness is not None:
            return violated(witness)
        remaining = inst.timeout - (time.monotonic() - start)
        if remaining <= 0:
            return Status.TIMEOUT, ""
        outcome = verify(
            net, spec, dataclasses.replace(budget, wall_seconds=remaining)
        )
    except (ValueError, ArithmeticError) as exc:
        log.warning("baseline failed on %s: %s", inst.instance_id, exc)
        return Status.ERROR, ""
    if outcome.status is Status.VIOLATED:
        return violated(outcome.witness)
    return outcome.status, ""


# ---------------------------------------------------------------------------
# overhead runs

TRIVIAL_SPEC_TEXT = (
    "; warm-up property: satisfiable everywhere on the unit box\n"
    "(declare-const X_0 Real)\n"
    "(declare-const Y_0 Real)\n"
    "(assert (>= X_0 0.0))\n"
    "(assert (<= X_0 1.0))\n"
    "(assert (>= Y_0 0.0))\n"
)


def trivial_instances(n: int, work_dir) -> list:
    """Generate n identity-network warm-up instances under work_dir, each
    with the timeout TRIVIAL_TIMEOUT_SECONDS."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    instances = [
        Instance(
            instance_id="trivial-%d" % i,
            benchmark=TRIVIAL_BENCHMARK,
            network_path=work_dir / ("trivial-%d.onnx" % i),
            spec_path=work_dir / ("trivial-%d.vnnlib" % i),
            timeout=TRIVIAL_TIMEOUT_SECONDS,
        )
        for i in range(n)
    ]
    for inst in instances:
        save_network(gen_trivial_network(1), inst.network_path)
        inst.spec_path.write_text(TRIVIAL_SPEC_TEXT, encoding="utf-8")
    return instances


# ---------------------------------------------------------------------------
# epsilon calibration

@dataclass(frozen=True)
class CalibrationRequest:
    """Robustness-radius search around one input point."""

    network: object
    center: np.ndarray
    eps_max: float
    eps_tol: float

    @_QUIET
    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(-1).copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        if center.size != self.network.n_inputs:
            raise HarnessError(
                "center has %d values, network takes %d"
                % (center.size, self.network.n_inputs)
            )
        if not np.all(np.isfinite(center)):
            raise HarnessError("non-finite center")
        if not (self.eps_max > 0):
            raise HarnessError("eps_max must be > 0")
        width = (center + self.eps_max) - (center - self.eps_max)
        if not np.all(np.isfinite(width)):
            raise HarnessError(
                "eps_max %r: the ball around the center is not finite" % self.eps_max
            )
        if not (self.eps_tol > 0):
            raise HarnessError("eps_tol must be > 0")


def _bisection_steps(eps_max, eps_tol):
    # fixed count so the oracle-call bound holds by construction; the
    # tiny nudge keeps exact power-of-two ratios from rounding up
    return max(0, math.ceil(math.log2(eps_max / eps_tol) - 1e-12))


def _bisect(fails, eps_max, eps_tol):
    # final bracket (lo, hi) of the radius where fails(eps) turns true:
    # (eps_max, eps_max) when fails(eps_max) is false
    if not fails(eps_max):
        return eps_max, eps_max
    lo, hi = 0.0, eps_max
    for _ in range(_bisection_steps(eps_max, eps_tol)):
        mid = 0.5 * lo + 0.5 * hi
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def calibrate_epsilon(req: CalibrationRequest, attack, certify) -> float:
    """Pick a perturbation radius between the attack and certification
    frontiers: one third of the way up from the smaller frontier.

    attack(eps) -> bool (counterexample found); certify(eps) -> bool
    (proved robust).  Each binary search narrows [0, eps_max] to eps_tol,
    costing at most ceil(log2(eps_max/eps_tol)) + 1 oracle calls.  Oracle
    exceptions propagate.
    """
    # the largest radius the attack misses, the smallest one not certified
    r_attack, _ = _bisect(attack, req.eps_max, req.eps_tol)
    _, r_certify = _bisect(lambda eps: not certify(eps), req.eps_max, req.eps_tol)
    eps_lb = min(r_attack, r_certify)
    eps_ub = max(r_attack, r_certify)
    if eps_lb == eps_ub:
        return eps_lb
    return (eps_lb + 2.0 * eps_ub) / 3.0


def make_robustness_oracles(
    req: CalibrationRequest, budget: Optional[Budget] = None
) -> tuple:
    """Attack/certify oracles for label robustness around req.center.

    The property: some non-maximal output overtakes the center's argmax
    class inside the L-infinity ball.  The attack is the module's own
    falsifier; the certifier bounds every competing class's margin row by
    back-substitution, in one call of the bound core that branch-and-bound
    uses, and proves the ball robust when every row's lower bound is
    positive.  The network's bound plan is built once, for all calls.
    """
    net = req.network
    if net.n_outputs < 2:
        raise HarnessError("robustness calibration needs at least two outputs")
    plan = _plan(net)
    if budget is None:
        budget = dataclasses.replace(EASY_VIOLATED_BUDGET, wall_seconds=5.0)
    top = int(np.argmax(forward(net, req.center)))
    eye = np.eye(net.n_outputs)
    rows = eye[top] - np.delete(eye, top, axis=0)  # y_top - y_j, one row per j
    zero_x = np.zeros((len(rows), net.n_inputs))

    def spec_at(eps):
        lower, upper = req.center - eps, req.center + eps
        disjuncts = tuple(Conjunct(lower, upper, [row], zero_x[:1], [0.0]) for row in rows)
        return NormalizedSpec(net.n_inputs, net.n_outputs, disjuncts)

    def attack(eps):
        if eps <= 0:
            return False
        return falsify(net, spec_at(eps), budget) is not None

    @_QUIET
    def certify(eps):
        if eps <= 0:
            return True
        lo, hi = (req.center - eps)[None], (req.center + eps)[None]
        _, _, lb, _ = _bound(plan, lo, hi, rows, zero_x)
        return bool((lb > 0).all())

    return attack, certify


# ---------------------------------------------------------------------------
# report emission

def emit_report(ledger: ScoreLedger, out_dir) -> list:
    """Write the text report, overall/per-benchmark CSVs, and instance logs.

    Deterministic bytes for a fixed ledger; an empty ledger produces
    header-only files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name, text):
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    put("report.txt", render_report(ledger))
    put("overall.csv", overall_table_csv(ledger))
    for benchmark in ledger.benchmark_points:
        safe = benchmark.replace(os.sep, "_")
        put("benchmark_%s.csv" % safe, benchmark_table_csv(ledger, benchmark))
        put("instances_%s.log" % safe, render_instance_log(ledger, benchmark))
    return written


# ---------------------------------------------------------------------------
# configuration

def parse_config(text: str) -> dict:
    """Line-oriented ``key = value`` config; '#' starts a comment line."""
    config = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise HarnessError("bad config line %d: %r" % (line_no, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise HarnessError("bad config line %d: empty key" % line_no)
        if key in config:
            raise HarnessError("duplicate config key %r (line %d)" % (key, line_no))
        config[key] = value.strip()
    return config


_ADAPTER_FIELDS = {"run", "prepare", "mode"}


def build_adapters(config: dict) -> list:
    """Collect adapter.<tool>.<field> keys into ToolAdapters, sorted by tool.

    The config names tools only: the fields are run, prepare and mode, and
    any other key, a typo or a run setting included, raises HarnessError
    instead of being ignored.  Run settings are arguments of run_batch.  No
    adapter may take the id BASELINE_TOOL, which scoring reserves for the
    baseline.
    """
    fields: dict = {}
    for key, value in config.items():
        if not key.startswith("adapter."):
            raise HarnessError("unknown config key %r" % key)
        parts = key.split(".")
        if len(parts) != 3 or parts[2] not in _ADAPTER_FIELDS:
            raise HarnessError("bad adapter config key %r" % key)
        if parts[1] == BASELINE_TOOL:
            raise HarnessError(
                "adapter id %r is reserved for the baseline" % BASELINE_TOOL
            )
        fields.setdefault(parts[1], {})[parts[2]] = value
    adapters = []
    for tool in sorted(fields):
        spec = fields[tool]
        if "run" not in spec:
            raise HarnessError("adapter %s has no run command" % tool)
        adapters.append(
            ToolAdapter(
                tool=tool,
                run_template=spec["run"],
                prepare=spec.get("prepare", ""),
                mode=spec.get("mode", "default"),
            )
        )
    return adapters


# ---------------------------------------------------------------------------
# batch driver

def run_batch(
    instances: Sequence[Instance],
    adapters: Sequence[ToolAdapter],
    out_dir,
    *,
    baseline: bool = True,
    baseline_budget: Budget = EASY_VIOLATED_BUDGET,
    n_trivial: int = 3,
) -> dict:
    """Run every adapter (plus the baseline) over the instances and the
    warm-ups, write one results CSV per tool under out_dir, and return
    records grouped by tool.

    The n_trivial warm-up instances are built once, under out_dir/trivial.
    Every adapter is prepared first; then each adapter runs the instances
    (results under out_dir/results/<tool>) and then the warm-ups (results
    under out_dir/trivial/results/<tool>).  Every witness an adapter offers
    on an instance is validated by ``run_tool``, which keeps only the
    warm-ups' unchecked, so each witness path in a scored adapter row names
    a witness that passed ``validate_witness``.  baseline is an on/off
    switch, read by truthiness: when on, the bundled participant runs as
    BASELINE_TOOL on the instances and then the same warm-ups.  Strictly
    sequential; a crashing adapter, or a run whose files cannot be made,
    contributes ERROR records but never aborts the batch.  A negative
    n_trivial or a failing prepare command raises ``HarnessError`` before
    any instance runs.

    The adapters' witness checks share one memo of decoded nets and specs,
    so each instance file decodes at most once per call.  The baseline does
    not use it: its recorded time includes loading its own instance.
    """
    if n_trivial < 0:
        raise HarnessError("n_trivial must be >= 0")
    for adapter in adapters:
        prepare_adapter(adapter)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    warmups = []
    if n_trivial > 0 and (adapters or baseline):
        warmups = trivial_instances(n_trivial, out_dir / "trivial")
    by_tool: dict = {}
    decoded: dict = {}

    for adapter in adapters:
        rows = by_tool.setdefault(adapter.tool, [])
        for inst in instances:
            rows.append(
                run_tool(
                    adapter,
                    inst,
                    result_dir=out_dir / "results" / adapter.tool,
                    decoded=decoded,
                )
            )
        for inst in warmups:
            rows.append(
                run_tool(
                    adapter,
                    inst,
                    result_dir=out_dir / "trivial" / "results" / adapter.tool,
                )
            )

    if baseline:
        rows = by_tool.setdefault(BASELINE_TOOL, [])
        for inst in list(instances) + warmups:
            rows.append(
                run_baseline(
                    inst,
                    baseline_budget,
                    witness_dir=out_dir / "witnesses" / BASELINE_TOOL,
                )
            )

    for tool in sorted(by_tool):
        write_results_csv(out_dir / ("%s.csv" % tool), by_tool[tool])
    return by_tool
