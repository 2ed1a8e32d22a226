"""Scoring for verification-tool run records.

Implements the competition scoring pipeline: startup-overhead measurement
and correction, per-instance points, speed bonuses with a tie window,
per-benchmark percentages, and the overall ranking.  Two adjudication
modes (majority voting and odd-one-out) decide which claims count as
correct when tools disagree and no validated counterexample settles it.

Input is one CSV per tool (header ``instance_id,benchmark,status,
time_seconds,mode,witness_path``); output is a ScoreLedger plus text/CSV
renderings of the score tables and a per-instance log.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .verifier import Status

POINTS_CORRECT_HOLDS = 10
POINTS_CORRECT_VIOLATED = 10
POINTS_CORRECT_VIOLATED_EASY = 1
POINTS_INCORRECT = -100
BONUS_FASTEST = 2
BONUS_SECOND = 1

# adjusted runtimes within 0.2 s of each other count as the same speed
TIE_WINDOW_SECONDS = 0.2
_TIE_SLOP = 1e-9

RESULTS_CSV_COLUMNS = (
    "instance_id",
    "benchmark",
    "status",
    "time_seconds",
    "mode",
    "witness_path",
)

#: statuses that never contribute to overhead measurement
_OVERHEAD_EXCLUDED = frozenset({Status.TIMEOUT, Status.ERROR})

#: the bundled random-testing participant: no speed bonus, and the
#: violations it finds mark instances easy
BASELINE_TOOL = "randgen"
#: benchmarks that get tables but no share of the overall score
UNSCORED_BENCHMARKS = frozenset({"cifar2020"})
#: warm-up instances, which feed overhead measurement only
TRIVIAL_BENCHMARK = "trivial"


class ScoringError(ValueError):
    """Malformed records, CSVs, or scoring parameters."""


class Label(str, Enum):
    """Adjudication outcome for one tool on one instance."""

    CORRECT = "correct"
    INCORRECT = "incorrect"
    IGNORED = "ignored"
    UNSOLVED = "unsolved"


@dataclass(frozen=True)
class RunRecord:
    """One tool's result on one instance.

    seconds is the raw wall time; witness_path may be empty.  The one parser
    of a results row: status and seconds may be text, and any field that
    does not parse or check raises ``ScoringError``.
    """

    tool: str
    instance_id: str
    benchmark: str
    status: Status
    seconds: float
    mode: str = "default"
    witness_path: str = ""

    def __post_init__(self):
        try:
            object.__setattr__(self, "status", Status(self.status))
        except ValueError:
            raise ScoringError("unknown status %r" % (self.status,)) from None
        try:
            object.__setattr__(self, "seconds", float(self.seconds))
        except (TypeError, ValueError):
            raise ScoringError("bad time_seconds %r" % (self.seconds,)) from None
        if not self.tool:
            raise ScoringError("empty tool id")
        if not self.instance_id:
            raise ScoringError("empty instance id")
        if not self.benchmark:
            raise ScoringError("empty benchmark id")
        if not self.mode:
            raise ScoringError("empty mode label")
        if not math.isfinite(self.seconds) or self.seconds < 0:
            raise ScoringError(
                "runtime must be finite and >= 0, got %r for %s on %s"
                % (self.seconds, self.tool, self.instance_id)
            )
        if self.witness_path and self.status is not Status.VIOLATED:
            raise ScoringError(
                "only a violated result may carry a witness path (%s on %s)"
                % (self.tool, self.instance_id)
            )


def write_results_csv(path, records: Iterable[RunRecord]) -> None:
    """Write one tool's records to a results CSV (tool id not stored)."""
    rows = [
        (r.instance_id, r.benchmark, r.status.value, repr(r.seconds), r.mode, r.witness_path)
        for r in records
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([RESULTS_CSV_COLUMNS, *rows])


def read_results_csv(path, tool: str) -> list[RunRecord]:
    """Read one tool's UTF-8 results CSV; the tool id comes from the caller."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ScoringError("unreadable results file %s: %s" % (path, exc)) from None
    if rows[:1] != [list(RESULTS_CSV_COLUMNS)]:
        raise ScoringError(
            "bad results header in %s: expected %s"
            % (path, ",".join(RESULTS_CSV_COLUMNS))
        )
    records = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(RESULTS_CSV_COLUMNS):
            raise ScoringError("wrong column count at %s line %d" % (path, line_no))
        try:
            records.append(RunRecord(tool, *row))
        except ScoringError as exc:
            raise ScoringError("%s at %s line %d" % (exc, path, line_no)) from None
    return records


def read_results_dir(dirpath) -> list[RunRecord]:
    """Read every ``<tool>.csv`` under dirpath into a single record list."""
    dirpath = Path(dirpath)
    paths = sorted(dirpath.glob("*.csv"))
    if not paths:
        raise ScoringError("no results CSVs in %s" % dirpath)
    records = []
    for path in paths:
        records.extend(read_results_csv(path, tool=path.stem))
    return records


def measure_overhead(records: Iterable[RunRecord]) -> float:
    """Minimum raw runtime over one tool's records in one mode.

    Timeout and error rows are excluded: a run that was cut off or
    crashed says nothing about startup cost.
    """
    rows = list(records)
    if not rows:
        raise ScoringError("empty record set")
    usable = [r.seconds for r in rows if r.status not in _OVERHEAD_EXCLUDED]
    if not usable:
        raise ScoringError("no usable records: every row is a timeout or error")
    return min(usable)


def build_overhead_model(records: Sequence[RunRecord], mode: str = "multi") -> dict:
    """Measured startup cost {(tool, mode): seconds} for every pair in records.

    mode "multi" measures each (tool, mode) pair separately; "single"
    assigns the tool-wide minimum to every mode the tool used.  A pair
    whose rows are all timeouts/errors gets overhead 0.0 with a warning;
    there is nothing to measure but scoring must not crash.
    """
    if mode not in ("single", "multi"):
        raise ScoringError("unknown overhead mode %r" % mode)
    by_pair: dict = {}
    by_tool: dict = {}
    for rec in records:
        by_pair.setdefault((rec.tool, rec.mode), []).append(rec)
        by_tool.setdefault(rec.tool, []).append(rec)
    overheads = {}
    for pair in sorted(by_pair):
        tool, _ = pair
        scope = by_tool[tool] if mode == "single" else by_pair[pair]
        try:
            overheads[pair] = measure_overhead(scope)
        except ScoringError:
            warnings.warn(
                "no finite-runtime rows for %s in mode %s; overhead set to 0.0"
                % pair,
                stacklevel=2,
            )
            overheads[pair] = 0.0
    return overheads


def adjusted_runtime(raw: float, overhead: float) -> float:
    """Overhead-corrected runtime, floored at 1.0 s."""
    if raw < 0 or overhead < 0:
        raise ScoringError("raw and overhead must be >= 0")
    return max(1.0, raw - overhead)


def adjudicate(
    outcomes: Mapping[str, Status],
    witness_holders: frozenset = frozenset(),
    mode: str = "odd-one-out",
) -> dict:
    """Label each tool's claim correct/incorrect/ignored/unsolved.

    A validated counterexample from any tool fixes ground truth at
    violated and overrides both modes.  Otherwise voting takes the
    majority among solved claims (exact tie: all ignored), and
    odd-one-out only faults a single dissenter; any other split is
    ignored for scoring.
    """
    if mode not in ("voting", "odd-one-out"):
        raise ScoringError("unknown adjudication mode %r" % mode)
    labels = {}
    solved = {}
    for tool, status in outcomes.items():
        status = Status(status)
        if status in (Status.HOLDS, Status.VIOLATED):
            solved[tool] = status
        else:
            labels[tool] = Label.UNSOLVED

    if witness_holders:
        missing = [t for t in witness_holders if solved.get(t) is not Status.VIOLATED]
        if missing:
            raise ScoringError(
                "witness holders must have violated claims: %s" % sorted(missing)
            )
        for tool, status in solved.items():
            labels[tool] = Label.CORRECT if status is Status.VIOLATED else Label.INCORRECT
        return labels

    if not solved:
        return labels
    counts = Counter(solved.values())
    if len(counts) == 1:
        for tool in solved:
            labels[tool] = Label.CORRECT
        return labels

    n_holds = counts[Status.HOLDS]
    n_violated = counts[Status.VIOLATED]
    if mode == "voting":
        if n_holds == n_violated:
            verdict = None
        else:
            verdict = Status.HOLDS if n_holds > n_violated else Status.VIOLATED
    else:
        # odd-one-out: fault a lone dissenter, ignore every other split
        if n_holds == 1 and n_violated > 1:
            verdict = Status.VIOLATED
        elif n_violated == 1 and n_holds > 1:
            verdict = Status.HOLDS
        else:
            verdict = None

    for tool, status in solved.items():
        if verdict is None:
            labels[tool] = Label.IGNORED
        else:
            labels[tool] = Label.CORRECT if status is verdict else Label.INCORRECT
    return labels


def score_instance(label: Label, status: Status, easy_violated: bool = False) -> int:
    """Base points for one claim: 10 / 1 (easy counterexample) / -100 / 0."""
    label = Label(label)
    if label is Label.CORRECT:
        status = Status(status)
        if status is Status.HOLDS:
            return POINTS_CORRECT_HOLDS
        if status is Status.VIOLATED:
            return POINTS_CORRECT_VIOLATED_EASY if easy_violated else POINTS_CORRECT_VIOLATED
        raise ScoringError("a correct label requires a holds or violated status")
    if label is Label.INCORRECT:
        return POINTS_INCORRECT
    return 0


def time_bonus(adjusted: Mapping[str, float], eligible) -> dict:
    """Speed bonuses among eligible tools: +2 fastest class, +1 next class.

    Classes chain transitively: consecutive sorted times within the
    0.2 s window share a class.  Everyone in `adjusted` gets an entry
    (0 when no bonus applies).
    """
    eligible = set(eligible)
    missing = eligible - set(adjusted)
    if missing:
        raise ScoringError("eligible tools without adjusted runtimes: %s" % sorted(missing))
    bonuses = {tool: 0 for tool in adjusted}
    pool = sorted((adjusted[t], t) for t in eligible)
    classes: list[list[str]] = []
    prev_time = None
    for seconds, tool in pool:
        if prev_time is not None and seconds - prev_time <= TIE_WINDOW_SECONDS + _TIE_SLOP:
            classes[-1].append(tool)
        else:
            classes.append([tool])
        prev_time = seconds
    if classes:
        for tool in classes[0]:
            bonuses[tool] = BONUS_FASTEST
    if len(classes) > 1:
        for tool in classes[1]:
            bonuses[tool] = BONUS_SECOND
    return bonuses


def benchmark_percent(points: Mapping[str, float]) -> dict:
    """Normalize per-tool point sums to [0, 100] against the best sum.

    The best tool lands exactly at 100; negative sums floor to 0.  When
    every sum is <= 0 nothing meaningful can be normalized: all
    percentages become 0 and a warning is issued.
    """
    if not points:
        raise ScoringError("no participants")
    best = max(points.values())
    if best <= 0:
        warnings.warn(
            "every point sum is <= 0; all percentages set to 0", stacklevel=2
        )
        return {tool: 0.0 for tool in points}
    return {tool: max(0.0, 100.0 * p / best) for tool, p in points.items()}


def overall_table(percentages: Mapping[str, Mapping[str, float]], scored) -> list:
    """Sum each tool's percentages over the scored benchmarks.

    Returns (tool, overall) pairs sorted by descending overall score,
    ties broken by tool name.  Every tool appearing in any benchmark is
    ranked, so a tool with only unscored entries still lands in the
    ranking at 0.0.  Unrounded; rounding happens at render time.
    """
    scored = set(scored)
    totals = {tool: 0.0 for pcts in percentages.values() for tool in pcts}
    for benchmark, pcts in percentages.items():
        if benchmark not in scored:
            continue
        for tool, pct in pcts.items():
            totals[tool] += pct
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass(frozen=True)
class InstanceScore:
    """Adjudicated result of one instance across tools."""

    benchmark: str
    instance_id: str
    easy_violated: bool
    statuses: dict       # tool -> Status
    adjusted: dict       # tool -> adjusted seconds (solved claims only)
    labels: dict         # tool -> Label
    base_points: dict    # tool -> int
    bonuses: dict        # tool -> int

    def points(self, tool: str) -> int:
        return self.base_points.get(tool, 0) + self.bonuses.get(tool, 0)


@dataclass
class ScoreLedger:
    """Everything the report renderers need, fully adjudicated.

    instance_scores and benchmark_points are filled in sorted (benchmark,
    instance_id) order, so the keys of benchmark_points are the sorted
    benchmarks (scored and unscored, no trivial), the sorted keys of a
    benchmark's points are its tools, and its scores in instance_scores
    come in instance_id order.  The renderers rely on that order.
    """

    adjudication_mode: str
    overhead_mode: str
    overheads: dict                   # (tool, mode) -> seconds
    instance_scores: dict             # (benchmark, instance_id) -> InstanceScore
    benchmark_points: dict            # benchmark -> {tool: int sum}
    benchmark_percents: dict          # benchmark -> {tool: float}
    overall: list                     # [(tool, float)] descending
    warnings: list = field(default_factory=list)


def score_records(
    records: Sequence[RunRecord],
    *,
    adjudication: str = "odd-one-out",
    overhead_mode: str = "multi",
    easy_violated: Optional[Iterable[str]] = None,
    witness_validated: Optional[Callable[[RunRecord], bool]] = None,
) -> ScoreLedger:
    """Run the full scoring pipeline over an immutable record set.

    The competition's fixed policies apply: rows in TRIVIAL_BENCHMARK feed
    overhead measurement only, BASELINE_TOOL earns no speed bonus, and
    UNSCORED_BENCHMARKS get tables but no share of the overall score.
    When easy_violated is None an instance is easy where BASELINE_TOOL
    claims violated on it, in that instance's benchmark only; a given
    easy_violated names instance ids that are easy in every benchmark, and
    the ids in it that name no scored instance get one ledger warning.
    witness_validated (record -> bool) enables counterexample-backed
    adjudication overrides; None (CSV replay) leaves adjudication purely
    to the configured mode.

    Deterministic: record order never changes any score.
    """
    records = list(records)
    if not records:
        raise ScoringError("empty record set")
    seen = set()
    for rec in records:
        key = (rec.tool, rec.benchmark, rec.instance_id)
        if key in seen:
            raise ScoringError("duplicate record for %s on %s/%s" % key)
        seen.add(key)
    records.sort(key=lambda r: (r.benchmark, r.instance_id, r.tool))

    captured: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        overheads = build_overhead_model(records, mode=overhead_mode)
    captured.extend(str(w.message) for w in caught)

    scorable = [r for r in records if r.benchmark != TRIVIAL_BENCHMARK]

    # keys follow the sorted records, which fixes the ledger's order
    by_instance: dict = {}
    for rec in scorable:
        by_instance.setdefault((rec.benchmark, rec.instance_id), []).append(rec)

    if easy_violated is None:
        easy = {
            (r.benchmark, r.instance_id)
            for r in scorable
            if r.tool == BASELINE_TOOL and r.status is Status.VIOLATED
        }
    else:
        ids = set(easy_violated)
        easy = {key for key in by_instance if key[1] in ids}
        unknown = ids - {instance_id for _, instance_id in easy}
        if unknown:
            captured.append(
                "easy-violated ids name no scored instance: %s"
                % ", ".join(sorted(unknown))
            )

    instance_scores = {}
    benchmark_points: dict = {}
    for (benchmark, instance_id), rows in by_instance.items():
        outcomes = {r.tool: r.status for r in rows}
        holders = frozenset(
            r.tool
            for r in rows
            if r.status is Status.VIOLATED
            and r.witness_path
            and witness_validated is not None
            and witness_validated(r)
        )
        labels = adjudicate(outcomes, holders, mode=adjudication)
        adjusted = {}
        for r in rows:
            if r.status in (Status.HOLDS, Status.VIOLATED):
                overhead = overheads[(r.tool, r.mode)]
                adjusted[r.tool] = adjusted_runtime(r.seconds, overhead)
        is_easy = (benchmark, instance_id) in easy
        base = {
            tool: score_instance(label, outcomes[tool], is_easy)
            for tool, label in labels.items()
        }
        eligible = {
            tool
            for tool, label in labels.items()
            if label is Label.CORRECT and tool != BASELINE_TOOL
        }
        bonuses = time_bonus(adjusted, eligible)
        score = InstanceScore(
            benchmark=benchmark,
            instance_id=instance_id,
            easy_violated=is_easy,
            statuses=outcomes,
            adjusted=adjusted,
            labels=labels,
            base_points=base,
            bonuses=bonuses,
        )
        instance_scores[(benchmark, instance_id)] = score
        sums = benchmark_points.setdefault(benchmark, {})
        for tool in outcomes:
            sums[tool] = sums.get(tool, 0) + score.points(tool)

    benchmark_percents = {}
    for benchmark, points in benchmark_points.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            benchmark_percents[benchmark] = benchmark_percent(points)
        captured.extend("%s: %s" % (benchmark, w.message) for w in caught)

    scored = [b for b in benchmark_points if b not in UNSCORED_BENCHMARKS]
    overall = overall_table(benchmark_percents, scored)

    return ScoreLedger(
        adjudication_mode=adjudication,
        overhead_mode=overhead_mode,
        overheads=overheads,
        instance_scores=instance_scores,
        benchmark_points=benchmark_points,
        benchmark_percents=benchmark_percents,
        overall=overall,
        warnings=captured,
    )


def empty_ledger() -> ScoreLedger:
    """A ledger with no records; reports render as headers only."""
    return ScoreLedger(
        adjudication_mode="odd-one-out",
        overhead_mode="multi",
        overheads={},
        instance_scores={},
        benchmark_points={},
        benchmark_percents={},
        overall=[],
        warnings=[],
    )


# ---------------------------------------------------------------------------
# rendering

def round_tenth(value: float) -> Decimal:
    """Half-away-from-zero rounding to one decimal, presentation only."""
    return Decimal(repr(float(value))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def format_percent(pct: float) -> str:
    """Percent cell: floored/zero sums render bare '0%', else one decimal."""
    if pct <= 0:
        return "0%"
    return "%s%%" % round_tenth(pct)


def _status_cell(status: Status, adjusted: Optional[float]) -> str:
    if status is Status.HOLDS:
        return "%s (h)" % round_tenth(adjusted)
    if status is Status.VIOLATED:
        return "%s (v)" % round_tenth(adjusted)
    if status is Status.TIMEOUT:
        return "timeout"
    if status is Status.ERROR:
        return "error"
    return "-"


def _benchmark_scores(ledger: ScoreLedger, benchmark: str) -> list:
    """The benchmark's InstanceScores in instance_id order."""
    return [s for s in ledger.instance_scores.values() if s.benchmark == benchmark]


def render_instance_log(ledger: ScoreLedger, benchmark: str) -> str:
    """Per-instance log: one row of result cells, then one score line per
    tool, in the style of the published scoring run's debug output."""
    tools = sorted(ledger.benchmark_points[benchmark])
    lines = []
    for index, score in enumerate(_benchmark_scores(ledger, benchmark)):
        cells = [score.instance_id]
        for tool in tools:
            status = score.statuses.get(tool)
            if status is None:
                cells.append("-")
            else:
                cells.append(_status_cell(status, score.adjusted.get(tool)))
        lines.append("Row: %r" % (cells,))
        for tool in tools:
            lines.append("%d: %s score: %d" % (index, tool, score.points(tool)))
    return "\n".join(lines) + "\n"


def _benchmark_rows(ledger: ScoreLedger, benchmark: str) -> list:
    """Table rows: (rank, tool, verified, falsified, fastest, score, pct)."""
    points = ledger.benchmark_points[benchmark]
    pcts = ledger.benchmark_percents[benchmark]
    stats = {t: {"verified": 0, "falsified": 0, "fastest": 0} for t in points}
    for score in _benchmark_scores(ledger, benchmark):
        for tool, label in score.labels.items():
            if label is not Label.CORRECT:
                continue
            if score.statuses[tool] is Status.HOLDS:
                stats[tool]["verified"] += 1
            else:
                stats[tool]["falsified"] += 1
        for tool, bonus in score.bonuses.items():
            if bonus == BONUS_FASTEST:
                stats[tool]["fastest"] += 1
    order = sorted(points, key=lambda t: (-points[t], t))
    rows = []
    for rank, tool in enumerate(order, start=1):
        st = stats[tool]
        rows.append(
            (
                rank,
                tool,
                st["verified"],
                st["falsified"],
                st["fastest"],
                points[tool],
                format_percent(pcts[tool]),
            )
        )
    return rows


_BENCHMARK_HEADER = ("#", "Tool", "Verified", "Falsified", "Fastest", "Score", "Percent")
_OVERALL_HEADER = ("#", "Tool", "Overall")


def _align(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    table = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    out = []
    for row in table:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The header and rows as CSV text, quoted as the results files are."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def benchmark_table_csv(ledger: ScoreLedger, benchmark: str) -> str:
    return _csv_text(_BENCHMARK_HEADER, _benchmark_rows(ledger, benchmark))


def _overall_rows(ledger: ScoreLedger) -> list:
    return [
        (rank, tool, str(round_tenth(total)))
        for rank, (tool, total) in enumerate(ledger.overall, start=1)
    ]


def overall_table_csv(ledger: ScoreLedger) -> str:
    return _csv_text(_OVERALL_HEADER, _overall_rows(ledger))


def report_header(ledger: ScoreLedger) -> str:
    """Report preamble recording every scoring policy that shaped the run."""
    lines = [
        "# verification competition score report",
        "# adjudication: %s" % ledger.adjudication_mode,
        "# overhead: %s (minimum runtime per %s; timeout/error rows excluded)"
        % (
            ledger.overhead_mode,
            "tool" if ledger.overhead_mode == "single" else "tool and mode",
        ),
        "# time bonus: +2 fastest class, +1 next class even when the fastest"
        " class has several members (%.1f s transitive tie window)" % TIE_WINDOW_SECONDS,
        "# baseline tools (bonus-ineligible): %s" % BASELINE_TOOL,
        "# unscored benchmarks (tables only): %s" % ", ".join(sorted(UNSCORED_BENCHMARKS)),
        "# easy-violated instances: %d"
        % sum(s.easy_violated for s in ledger.instance_scores.values()),
    ]
    for message in ledger.warnings:
        lines.append("# warning: %s" % message)
    return "\n".join(lines) + "\n"


def render_report(ledger: ScoreLedger) -> str:
    """Full text report: header, overall ranking, per-benchmark tables and
    per-instance logs.  Byte-deterministic for a given ledger."""
    parts = [report_header(ledger), "\n== overall ==\n"]
    parts.append(_align(_OVERALL_HEADER, _overall_rows(ledger)))
    for benchmark in ledger.benchmark_points:
        tag = " (unscored)" if benchmark in UNSCORED_BENCHMARKS else ""
        parts.append("\n== benchmark %s%s ==\n" % (benchmark, tag))
        parts.append(_align(_BENCHMARK_HEADER, _benchmark_rows(ledger, benchmark)))
        parts.append("\n-- instance log: %s --\n" % benchmark)
        parts.append(render_instance_log(ledger, benchmark))
    return "".join(parts)
