"""Command-line front end.

Subcommands cover the whole pipeline: spec parsing, network evaluation,
verification and falsification, witness checking, batch tool runs,
overhead measurement, scoring, and robustness-radius calibration.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .harness import (
    CalibrationRequest,
    HarnessError,
    build_adapters,
    calibrate_epsilon,
    emit_report,
    load_manifest,
    make_robustness_oracles,
    parse_config,
    run_batch,
)
from .network import forward, load_network
from .scoring import (
    TRIVIAL_BENCHMARK,
    build_overhead_model,
    read_results_dir,
    render_report,
    score_records,
    write_results_csv,
)
from .speclang import _is_number, _read_text, load_spec
from .verifier import (
    EASY_VIOLATED_BUDGET,
    Status,
    falsify,
    read_witness,
    validate_witness,
    verify,
    write_witness,
)

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is our data-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, "%s: error: %s\n" % (self.prog, message))


def _parse_floats(text: str) -> np.ndarray:
    """Comma or space separated numbers, each read as ``_float`` reads one."""
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise HarnessError("no numbers in %r" % text)
    if not all(map(_is_number, parts)):
        raise HarnessError("bad number list %r" % text)
    return np.array([float(p) for p in parts], dtype=np.float64)


def _float(text: str) -> float:
    """An argparse type: a number as the VNNLIB reader reads one, so with
    no digit-group underscores and no digits outside ASCII."""
    if not _is_number(text):
        raise ValueError(text)
    return float(text)


def _int(text: str) -> int:
    """An argparse type: an integer in ASCII digits, with an optional sign."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def _positive(kind):
    """An argparse type: a finite number of the given kind, greater than 0."""

    def parse(text: str):
        value = kind(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError("must be positive and finite, got %r" % text)
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _seed(text: str) -> int:
    """An argparse type: an integer no less than 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative, got %r" % text)
    return value


# argparse names a type in "invalid <name> value"
_float.__name__, _int.__name__, _seed.__name__ = "float", "int", "int"


def _adapters_from_args(args) -> list:
    return build_adapters(parse_config(_read_text(args.config, HarnessError)))


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_parse(args) -> int:
    spec = load_spec(args.spec)
    print(spec.dumps())
    return 0


def _cmd_eval(args) -> int:
    net = load_network(args.network)
    x = _parse_floats(args.input)
    y = forward(net, x)
    print(" ".join(format(v, ".17g") for v in y))
    return 0


def _cmd_verify(args) -> int:
    net = load_network(args.network)
    spec = load_spec(args.spec)
    budget = dataclasses.replace(
        EASY_VIOLATED_BUDGET,
        wall_seconds=args.timeout,
        max_subproblems=args.max_subproblems,
    )
    outcome = verify(net, spec, budget)
    print(outcome.status.value)
    if outcome.status is Status.VIOLATED and args.witness_out:
        write_witness(outcome.witness, args.witness_out)
    return 0


def _cmd_falsify(args) -> int:
    net = load_network(args.network)
    spec = load_spec(args.spec)
    budget = dataclasses.replace(
        EASY_VIOLATED_BUDGET,
        wall_seconds=args.timeout,
        falsifier_samples=args.samples,
        pgd_restarts=args.restarts,
        pgd_steps=args.steps,
        seed=args.seed,
    )
    witness = falsify(net, spec, budget)
    if witness is None:
        print(Status.UNKNOWN.value)
        return 0
    print(Status.VIOLATED.value)
    if args.witness_out:
        write_witness(witness, args.witness_out)
    return 0


def _cmd_validate_ce(args) -> int:
    net = load_network(args.network)
    spec = load_spec(args.spec)
    witness = read_witness(args.witness)
    if validate_witness(net, spec, witness):
        print("ok")
        return 0
    print("fail")
    return DATA_ERROR


def _cmd_run(args) -> int:
    adapters = _adapters_from_args(args)
    instances = load_manifest(args.manifest, require_files=True)
    by_tool = run_batch(
        instances,
        adapters,
        args.out,
        baseline=not args.no_baseline,
        n_trivial=args.n_trivial,
    )
    for tool in sorted(by_tool):
        print("%s: %d records -> %s" % (tool, len(by_tool[tool]), Path(args.out) / ("%s.csv" % tool)))
    return 0


def _cmd_measure_overhead(args) -> int:
    # run over no instances with the baseline off; each re-measured tool's
    # new warm-up rows replace its warm-up rows from --results and follow
    # its other rows
    adapters = _adapters_from_args(args)
    records = read_results_dir(args.results) if args.results else []
    warm = run_batch([], adapters, args.out, baseline=False, n_trivial=args.n_trivial)
    records = [r for r in records if r.tool not in warm or r.benchmark != TRIVIAL_BENCHMARK]
    records += [r for rows in warm.values() for r in rows]
    by_tool: dict = {}
    for record in records:
        by_tool.setdefault(record.tool, []).append(record)
    for tool in sorted(by_tool):
        write_results_csv(Path(args.out) / ("%s.csv" % tool), by_tool[tool])
    overheads = build_overhead_model(records, mode="multi")
    for (tool, mode), overhead in sorted(overheads.items()):
        print("%s %s %.6g" % (tool, mode, overhead))
    return 0


def _cmd_score(args) -> int:
    records = read_results_dir(args.results)
    easy = None
    if args.easy_violated:
        easy = {
            line.strip()
            for line in _read_text(args.easy_violated, ValueError).splitlines()
            if line.strip()
        }
    ledger = score_records(
        records,
        adjudication=args.adjudication,
        overhead_mode=args.overhead,
        easy_violated=easy,
    )
    if args.out:
        for path in emit_report(ledger, args.out):
            print(path)
    else:
        print(render_report(ledger), end="")
    return 0


def _cmd_calibrate_eps(args) -> int:
    net = load_network(args.network)
    center = (
        _parse_floats(args.center)
        if args.center
        else np.zeros(net.n_inputs, dtype=np.float64)
    )
    req = CalibrationRequest(
        network=net, center=center, eps_max=args.eps_max, eps_tol=args.eps_tol
    )
    budget = dataclasses.replace(
        EASY_VIOLATED_BUDGET, wall_seconds=args.oracle_seconds, seed=args.seed
    )
    attack, certify = make_robustness_oracles(req, budget=budget)
    print(format(calibrate_epsilon(req, attack, certify), ".17g"))
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser() -> _Parser:
    parser = _Parser(prog="veribench", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("parse", parents=[], help="normalize a spec file and dump JSON")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="run a network on one input vector")
    p.add_argument("network")
    p.add_argument("--input", required=True, help="comma/space separated floats")
    p.set_defaults(func=_cmd_eval)

    for name, func in (("verify", _cmd_verify), ("falsify", _cmd_falsify)):
        p = sub.add_parser(name, help="%s an instance" % name)
        p.add_argument("network")
        p.add_argument("spec")
        base = EASY_VIOLATED_BUDGET
        p.add_argument(
            "--timeout", type=_positive(_float), default=base.wall_seconds,
            help="wall seconds",
        )
        if name == "verify":
            p.add_argument(
                "--max-subproblems", type=_positive(_int), default=base.max_subproblems
            )
        else:
            p.add_argument("--seed", type=_seed, default=0)
            p.add_argument("--samples", type=_positive(_int), default=base.falsifier_samples)
            p.add_argument("--restarts", type=_positive(_int), default=base.pgd_restarts)
            p.add_argument("--steps", type=_positive(_int), default=base.pgd_steps)
        p.add_argument("--witness-out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("validate-ce", help="check a counterexample witness")
    p.add_argument("network")
    p.add_argument("spec")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_validate_ce)

    p = sub.add_parser("run", help="run adapters over a manifest")
    p.add_argument("manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-baseline", action="store_true")
    p.add_argument("--n-trivial", type=_int, default=3)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("measure-overhead", help="run only the warm-up instances")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--results", default=None, help="existing results dir to augment")
    p.add_argument("--n-trivial", type=_int, default=3)
    p.set_defaults(func=_cmd_measure_overhead)

    p = sub.add_parser("score", help="score results CSVs into a report")
    p.add_argument("results")
    p.add_argument("--overhead", choices=("single", "multi"), default="multi")
    p.add_argument(
        "--adjudication", choices=("voting", "odd-one-out"), default="odd-one-out"
    )
    p.add_argument("--out", default=None, help="write report files here")
    p.add_argument(
        "--easy-violated",
        default=None,
        help="file of instance ids that are easy in every benchmark",
    )
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("calibrate-eps", help="binary-search a robustness radius")
    p.add_argument("network")
    p.add_argument("--center", default=None, help="comma separated floats")
    p.add_argument("--eps-max", type=_positive(_float), default=16.0 / 255.0)
    p.add_argument("--eps-tol", type=_positive(_float), default=0.005)
    p.add_argument("--oracle-seconds", type=_positive(_float), default=5.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_calibrate_eps)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return "warning: %s\n" % message


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises on --help (0) and usage errors (rerouted to 1)
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return USAGE_ERROR
    # a warning shown while the command runs is one line, as an error is
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        # every module's error type is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return DATA_ERROR
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
