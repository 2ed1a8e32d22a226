"""Scoring pipeline tests: overhead, points, bonuses, percentages, reports."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veribench.scoring import (
    BASELINE_TOOL,
    Label,
    OverheadModel,
    RunRecord,
    ScoringError,
    adjudicate,
    adjusted_runtime,
    benchmark_percent,
    build_overhead_model,
    format_percent,
    measure_overhead,
    overall_table,
    read_results_csv,
    read_results_dir,
    render_instance_log,
    render_report,
    round_tenth,
    score_instance,
    score_records,
    time_bonus,
    write_results_csv,
)
from veribench.verifier import Status


def rec(tool, instance, status, seconds, benchmark="bench", mode="default", witness=""):
    return RunRecord(
        tool=tool,
        instance_id=instance,
        benchmark=benchmark,
        status=status,
        seconds=seconds,
        mode=mode,
        witness_path=witness,
    )


# ---------------------------------------------------------------------------
# records and CSV I/O

class TestRunRecord:
    def test_status_coerced_from_string(self):
        r = rec("a", "i1", "holds", 1.0)
        assert r.status is Status.HOLDS

    def test_negative_seconds_rejected(self):
        with pytest.raises(ScoringError, match="finite and >= 0"):
            rec("a", "i1", "holds", -0.5)

    def test_non_finite_seconds_rejected(self):
        with pytest.raises(ScoringError):
            rec("a", "i1", "holds", float("nan"))

    def test_witness_requires_violated(self):
        with pytest.raises(ScoringError, match="violated result may carry"):
            rec("a", "i1", "holds", 1.0, witness="w.txt")
        r = rec("a", "i1", "violated", 1.0, witness="w.txt")
        assert r.witness_path == "w.txt"

    def test_empty_fields_rejected(self):
        with pytest.raises(ScoringError):
            rec("", "i1", "holds", 1.0)
        with pytest.raises(ScoringError):
            rec("a", "i1", "holds", 1.0, mode="")


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        records = [
            rec("m", "i1", "holds", 0.25),
            rec("m", "i2", "violated", 3.5, witness="w/i2.txt"),
            rec("m", "i3", "timeout", 116.0, mode="cpu"),
        ]
        path = tmp_path / "m.csv"
        write_results_csv(path, records)
        assert read_results_csv(path, tool="m") == records

    def test_header_line(self, tmp_path):
        path = tmp_path / "m.csv"
        write_results_csv(path, [rec("m", "i1", "holds", 1.0)])
        first = path.read_text().splitlines()[0]
        assert first == "instance_id,benchmark,status,time_seconds,mode,witness_path"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("instance,status\na,holds\n")
        with pytest.raises(ScoringError, match="bad results header"):
            read_results_csv(path, tool="m")

    def test_unknown_status_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "instance_id,benchmark,status,time_seconds,mode,witness_path\n"
            "i1,b,sat,1.0,default,\n"
        )
        with pytest.raises(ScoringError, match="unknown status 'sat'"):
            read_results_csv(path, tool="m")

    def test_bad_seconds_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "instance_id,benchmark,status,time_seconds,mode,witness_path\n"
            "i1,b,holds,fast,default,\n"
        )
        with pytest.raises(ScoringError, match="bad time_seconds"):
            read_results_csv(path, tool="m")

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from(["", "i1", "b", "holds", "violated", "sat", "1.5", "-1",
                                 "nan", "1e400", "default", "w.txt", "a,b", '"', "\x00",
                                 "\n", "\r", "\xe9"]),
                max_size=8,
            ).map(",".join),
            max_size=6,
        ),
        header=st.booleans(),
        tail=st.binary(max_size=12),
    )
    def test_malformed_file_raises_only_scoring_error(self, rows, header, tail):
        # near-valid rows under the real header (or none), then arbitrary
        # bytes: only ScoringError may escape
        lines = ["instance_id,benchmark,status,time_seconds,mode,witness_path"] * header
        data = "\n".join(lines + rows).encode("utf-8") + tail
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(data)
            try:
                read_results_csv(path, tool="m")
            except ScoringError:
                pass

    def test_dir_read_names_tools_from_stems(self, tmp_path):
        write_results_csv(tmp_path / "alpha.csv", [rec("x", "i1", "holds", 1.0)])
        write_results_csv(tmp_path / "beta.csv", [rec("x", "i1", "violated", 2.0)])
        records = read_results_dir(tmp_path)
        assert sorted(r.tool for r in records) == ["alpha", "beta"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ScoringError, match="no results CSVs"):
            read_results_dir(tmp_path)


# ---------------------------------------------------------------------------
# overhead

class TestOverhead:
    def test_minimum_of_set(self):
        records = [rec("t", "i%d" % i, "holds", s) for i, s in enumerate([4.0, 1.0, 2.5])]
        assert measure_overhead(records) == 1.0

    def test_trivial_instance_sets_floor(self):
        records = [
            rec("t", "real", "holds", 30.0),
            rec("t", "trivial-1", "violated", 1.0, benchmark="trivial"),
        ]
        assert measure_overhead(records) == 1.0

    def test_timeout_and_error_rows_excluded(self):
        records = [
            rec("t", "i1", "timeout", 0.1),
            rec("t", "i2", "error", 0.05),
            rec("t", "i3", "holds", 2.0),
        ]
        assert measure_overhead(records) == 2.0

    def test_empty_set_rejected(self):
        with pytest.raises(ScoringError, match="empty record set"):
            measure_overhead([])

    def test_all_excluded_rejected(self):
        with pytest.raises(ScoringError, match="timeout or error"):
            measure_overhead([rec("t", "i1", "timeout", 1.0)])

    def test_multi_mode_splits_by_mode(self):
        records = [
            rec("eran", "i1", "holds", 7.1, mode="gpu"),
            rec("eran", "i2", "holds", 9.0, mode="gpu"),
            rec("eran", "i3", "holds", 3.7, mode="cpu"),
        ]
        model = build_overhead_model(records, mode="multi")
        assert model.overhead_for("eran", "gpu") == 7.1
        assert model.overhead_for("eran", "cpu") == 3.7

    def test_single_mode_takes_tool_wide_minimum(self):
        records = [
            rec("eran", "i1", "holds", 7.1, mode="gpu"),
            rec("eran", "i3", "holds", 3.7, mode="cpu"),
        ]
        model = build_overhead_model(records, mode="single")
        assert model.overhead_for("eran", "gpu") == 3.7
        assert model.overhead_for("eran", "cpu") == 3.7

    def test_unmeasurable_pair_warns_and_zeroes(self):
        records = [rec("t", "i1", "timeout", 5.0)]
        with pytest.warns(UserWarning, match="overhead set to 0.0"):
            model = build_overhead_model(records)
        assert model.overhead_for("t", "default") == 0.0

    def test_missing_entry_rejected(self):
        model = OverheadModel(mode="multi", overheads={})
        with pytest.raises(ScoringError, match="no overhead entry"):
            model.overhead_for("ghost", "default")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScoringError, match="unknown overhead mode"):
            build_overhead_model([rec("t", "i", "holds", 1.0)], mode="both")


class TestAdjustedRuntime:
    def test_plain_subtraction(self):
        assert adjusted_runtime(7.4, 1.0) == 6.4

    def test_floor_at_one_second(self):
        assert adjusted_runtime(0.8, 0.3) == 1.0

    def test_never_negative(self):
        assert adjusted_runtime(0.2, 0.5) == 1.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ScoringError):
            adjusted_runtime(-1.0, 0.0)
        with pytest.raises(ScoringError):
            adjusted_runtime(1.0, -0.1)


# ---------------------------------------------------------------------------
# adjudication and points

class TestAdjudicate:
    def test_odd_one_out_single_dissenter(self):
        labels = adjudicate(
            {"A": Status.HOLDS, "B": Status.HOLDS, "C": Status.VIOLATED},
            mode="odd-one-out",
        )
        assert labels == {"A": Label.CORRECT, "B": Label.CORRECT, "C": Label.INCORRECT}

    def test_odd_one_out_two_way_disagreement_ignored(self):
        labels = adjudicate({"A": Status.HOLDS, "B": Status.VIOLATED}, mode="odd-one-out")
        assert labels == {"A": Label.IGNORED, "B": Label.IGNORED}

    def test_odd_one_out_two_per_side_ignored(self):
        labels = adjudicate(
            {
                "A": Status.HOLDS,
                "B": Status.HOLDS,
                "C": Status.VIOLATED,
                "D": Status.VIOLATED,
            },
            mode="odd-one-out",
        )
        assert set(labels.values()) == {Label.IGNORED}

    def test_voting_majority_wins(self):
        labels = adjudicate(
            {"A": Status.HOLDS, "B": Status.VIOLATED, "C": Status.VIOLATED},
            mode="voting",
        )
        assert labels == {"A": Label.INCORRECT, "B": Label.CORRECT, "C": Label.CORRECT}

    def test_voting_tie_ignored(self):
        labels = adjudicate({"A": Status.HOLDS, "B": Status.VIOLATED}, mode="voting")
        assert set(labels.values()) == {Label.IGNORED}

    def test_unanimous_correct(self):
        for mode in ("voting", "odd-one-out"):
            labels = adjudicate({"A": Status.HOLDS, "B": Status.HOLDS}, mode=mode)
            assert set(labels.values()) == {Label.CORRECT}

    def test_lone_solver_correct(self):
        labels = adjudicate({"A": Status.VIOLATED, "B": Status.TIMEOUT})
        assert labels == {"A": Label.CORRECT, "B": Label.UNSOLVED}

    def test_unsolved_statuses(self):
        labels = adjudicate(
            {"A": Status.TIMEOUT, "B": Status.ERROR, "C": Status.UNKNOWN}
        )
        assert set(labels.values()) == {Label.UNSOLVED}

    def test_validated_witness_overrides_majority(self):
        outcomes = {"A": Status.HOLDS, "B": Status.HOLDS, "C": Status.VIOLATED}
        for mode in ("voting", "odd-one-out"):
            labels = adjudicate(outcomes, witness_holders=frozenset({"C"}), mode=mode)
            assert labels == {
                "A": Label.INCORRECT,
                "B": Label.INCORRECT,
                "C": Label.CORRECT,
            }

    def test_witness_holder_must_claim_violated(self):
        with pytest.raises(ScoringError, match="witness holders"):
            adjudicate({"A": Status.HOLDS}, witness_holders=frozenset({"A"}))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScoringError, match="unknown adjudication mode"):
            adjudicate({"A": Status.HOLDS}, mode="consensus")


class TestScoreInstance:
    def test_correct_holds(self):
        assert score_instance(Label.CORRECT, Status.HOLDS) == 10

    def test_correct_violated(self):
        assert score_instance(Label.CORRECT, Status.VIOLATED, easy_violated=False) == 10

    def test_correct_violated_easy(self):
        assert score_instance(Label.CORRECT, Status.VIOLATED, easy_violated=True) == 1

    def test_incorrect(self):
        assert score_instance(Label.INCORRECT, Status.HOLDS) == -100

    def test_ignored_and_unsolved(self):
        assert score_instance(Label.IGNORED, Status.HOLDS) == 0
        assert score_instance(Label.UNSOLVED, Status.TIMEOUT) == 0

    def test_correct_requires_solved_status(self):
        with pytest.raises(ScoringError):
            score_instance(Label.CORRECT, Status.TIMEOUT)


class TestTimeBonus:
    def test_published_log_example(self):
        adjusted = {
            "nnenum": 6.4,
            "venus2": 10.5,
            "VeriNet": 41.1,
            "oval": 62.5,
            "a-b-CROWN": 64.8,
        }
        bonuses = time_bonus(adjusted, eligible=set(adjusted))
        assert bonuses == {
            "nnenum": 2,
            "venus2": 1,
            "VeriNet": 0,
            "oval": 0,
            "a-b-CROWN": 0,
        }
        totals = {t: 10 + b for t, b in bonuses.items()}
        assert totals == {
            "nnenum": 12,
            "venus2": 11,
            "VeriNet": 10,
            "oval": 10,
            "a-b-CROWN": 10,
        }

    def test_tie_window_shares_fastest(self):
        bonuses = time_bonus({"A": 1.0, "B": 1.1}, eligible={"A", "B"})
        assert bonuses == {"A": 2, "B": 2}

    def test_single_eligible_tool(self):
        bonuses = time_bonus({"A": 5.0, "B": 1.0}, eligible={"A"})
        assert bonuses == {"A": 2, "B": 0}

    def test_transitive_chaining(self):
        adjusted = {"A": 6.4, "B": 6.55, "C": 6.7, "D": 7.5}
        bonuses = time_bonus(adjusted, eligible=set(adjusted))
        assert bonuses == {"A": 2, "B": 2, "C": 2, "D": 1}

    def test_second_class_bonus_even_with_shared_fastest(self):
        adjusted = {"A": 1.0, "B": 1.1, "C": 9.0}
        bonuses = time_bonus(adjusted, eligible=set(adjusted))
        assert bonuses == {"A": 2, "B": 2, "C": 1}

    def test_ineligible_tools_never_bonused(self):
        bonuses = time_bonus({"A": 1.0, "B": 2.0}, eligible={"B"})
        assert bonuses == {"A": 0, "B": 2}

    def test_eligible_without_runtime_rejected(self):
        with pytest.raises(ScoringError, match="without adjusted runtimes"):
            time_bonus({"A": 1.0}, eligible={"A", "B"})


# ---------------------------------------------------------------------------
# percentages and overall

class TestBenchmarkPercent:
    def test_published_normalization(self):
        pcts = benchmark_percent({"nnenum": 1910, "VeriNet": 1852, "NV.jl": -23})
        assert pcts["nnenum"] == 100.0
        assert round_tenth(pcts["VeriNet"]) == round_tenth(97.0)
        assert pcts["NV.jl"] == 0.0

    def test_single_tool_self_normalizes(self):
        assert benchmark_percent({"solo": 50}) == {"solo": 100.0}

    def test_all_nonpositive_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match="all percentages set to 0"):
            pcts = benchmark_percent({"A": -5, "B": 0})
        assert pcts == {"A": 0.0, "B": 0.0}

    def test_no_participants_rejected(self):
        with pytest.raises(ScoringError, match="no participants"):
            benchmark_percent({})


# percent columns of the published per-benchmark tables; cifar2020 is the
# unscored one.  Used to check the overall summation end to end.
PUBLISHED_PERCENTS = {
    "acasxu": {
        "nnenum": 100.0, "VeriNet": 97.0, "Marabou": 94.7, "oval": 93.9,
        "venus2": 93.1, "a-b-CROWN": 90.7, "ERAN": 78.8, "Debona": 56.9,
        "RPM": 25.4, "nnv": 18.2, "DNNF": 9.5, "randgen": 1.5, "NV.jl": 0.0,
    },
    "cifar10-resnet": {
        "a-b-CROWN": 100.0, "VeriNet": 88.0, "ERAN": 80.6, "Marabou": 62.6,
    },
    "cifar2020": {
        "oval": 100.0, "a-b-CROWN": 90.4, "VeriNet": 82.5, "ERAN": 79.2,
        "nnenum": 33.5, "randgen": 0.1, "nnv": 0.0,
    },
    "eran": {
        "a-b-CROWN": 100.0, "VeriNet": 87.8, "ERAN": 70.1, "Debona": 56.0,
        "oval": 36.9, "Marabou": 28.4, "nnv": 14.9,
    },
    "marabou-cifar10": {
        "a-b-CROWN": 100.0, "ERAN": 98.1, "oval": 97.8, "VeriNet": 86.9,
        "Marabou": 45.0, "DNNF": 1.8, "randgen": 0.2,
    },
    "mnistfc": {
        "a-b-CROWN": 100.0, "VeriNet": 92.7, "Debona": 89.1, "oval": 87.6,
        "ERAN": 84.7, "Marabou": 69.9, "venus2": 67.6, "nnenum": 66.3,
        "nnv": 24.1, "DNNF": 9.1,
    },
    "nn4sys": {
        "a-b-CROWN": 100.0, "VeriNet": 81.9, "ERAN": 80.2, "oval": 67.1,
        "NV.jl": 48.1, "venus2": 28.5, "DNNF": 2.5, "randgen": 0.2,
        "Debona": 0.0,
    },
    "oval21": {
        "oval": 100.0, "a-b-CROWN": 89.0, "VeriNet": 88.4, "ERAN": 52.4,
        "Marabou": 38.4, "nnenum": 18.3, "nnv": 0.0,
    },
    "verivital": {
        "a-b-CROWN": 100.0, "oval": 98.6, "ERAN": 98.4, "VeriNet": 82.4,
        "DNNF": 1.4, "nnv": 0.0, "Marabou": 0.0,
    },
}

PUBLISHED_OVERALL = {
    "a-b-CROWN": 779.7, "VeriNet": 705.0, "ERAN": 643.4, "oval": 581.8,
    "Marabou": 339.0, "Debona": 201.9, "venus2": 189.2, "nnenum": 184.6,
    "nnv": 57.2, "NV.jl": 48.1, "RPM": 25.4, "DNNF": 24.3, "randgen": 1.9,
}


class TestOverallTable:
    def test_reproduces_published_ranking(self):
        scored = set(PUBLISHED_PERCENTS) - {"cifar2020"}
        ranked = overall_table(PUBLISHED_PERCENTS, scored)
        totals = dict(ranked)
        assert set(totals) == set(PUBLISHED_OVERALL)
        for tool, expected in PUBLISHED_OVERALL.items():
            assert totals[tool] == pytest.approx(expected, abs=0.2), tool
        order = [tool for tool, _ in ranked]
        assert order[:4] == ["a-b-CROWN", "VeriNet", "ERAN", "oval"]
        assert order[-1] == "randgen"

    def test_unscored_benchmark_not_summed(self):
        ranked = overall_table(
            {"b1": {"A": 100.0}, "skip": {"A": 100.0}}, scored={"b1"}
        )
        assert ranked == [("A", 100.0)]

    def test_tool_in_zero_scored_benchmarks(self):
        ranked = overall_table(
            {"b1": {"A": 100.0}, "skip": {"B": 100.0}}, scored={"b1"}
        )
        assert ("B", 0.0) in ranked


class TestPresentation:
    def test_round_tenth_half_away_from_zero(self):
        assert str(round_tenth(96.95)) == "97.0"
        assert str(round_tenth(0.25)) == "0.3"
        assert str(round_tenth(100.0)) == "100.0"

    def test_format_percent(self):
        assert format_percent(100.0) == "100.0%"
        assert format_percent(96.96335078534031) == "97.0%"
        assert format_percent(0.04) == "0.0%"
        assert format_percent(0.0) == "0%"
        assert format_percent(-12.0) == "0%"


# ---------------------------------------------------------------------------
# full pipeline

def worked_log_records():
    """One instance, five solvers at the published adjusted times, the rest
    timing out; overheads pinned by trivial-benchmark rows."""
    solved_raw = {
        "nnenum": 6.4,
        "venus2": 10.5,
        "VeriNet": 41.1,
        "oval": 62.5,
        "a-b-CROWN": 64.8,
    }
    records = []
    for tool, raw in solved_raw.items():
        # trivial row at the tool's floor so measured overhead is 0.0-ish
        records.append(rec(tool, "warm", "holds", 0.0, benchmark="trivial"))
        records.append(rec(tool, "prop_2", "holds", raw, benchmark="acasxu"))
    for tool in ("Marabou", "ERAN", "Debona", "nnv", "randgen"):
        records.append(rec(tool, "warm", "holds", 0.0, benchmark="trivial"))
        records.append(rec(tool, "prop_2", "timeout", 116.0, benchmark="acasxu"))
    return records


class TestScoreRecords:
    def test_worked_log_totals(self):
        ledger = score_records(worked_log_records())
        points = ledger.benchmark_points["acasxu"]
        assert points["nnenum"] == 12
        assert points["venus2"] == 11
        assert points["VeriNet"] == 10
        assert points["oval"] == 10
        assert points["a-b-CROWN"] == 10
        assert points["Marabou"] == 0
        assert points["randgen"] == 0

    def test_trivial_rows_feed_overhead_only(self):
        ledger = score_records(worked_log_records())
        assert "trivial" not in ledger.benchmarks
        assert ledger.overhead_model.overhead_for("nnenum", "default") == 0.0

    def test_easy_violated_derived_from_baseline(self):
        records = [
            rec("randgen", "i1", "violated", 0.5),
            rec("fast", "i1", "violated", 3.0),
            rec("fast", "i2", "violated", 3.0),
        ]
        ledger = score_records(records)
        assert ledger.easy_violated == frozenset({"i1"})
        score1 = ledger.instance_scores[("bench", "i1")]
        score2 = ledger.instance_scores[("bench", "i2")]
        assert score1.base_points["fast"] == 1
        assert score1.base_points["randgen"] == 1
        assert score2.base_points["fast"] == 10

    def test_baseline_never_bonused(self):
        records = [
            rec("randgen", "i1", "violated", 0.5),
            rec("fast", "i1", "violated", 50.0),
        ]
        ledger = score_records(records)
        score = ledger.instance_scores[("bench", "i1")]
        assert score.bonuses["randgen"] == 0
        assert score.bonuses["fast"] == 2

    def test_explicit_easy_set_wins(self):
        records = [rec("fast", "i1", "violated", 3.0)]
        ledger = score_records(records, easy_violated={"i1"})
        assert ledger.instance_scores[("bench", "i1")].base_points["fast"] == 1

    def test_witness_validation_overrides(self):
        records = [
            rec("A", "i1", "holds", 1.0),
            rec("B", "i1", "holds", 1.0),
            rec("C", "i1", "violated", 1.0, witness="w.txt"),
        ]
        ledger = score_records(records, witness_validated=lambda r: True)
        score = ledger.instance_scores[("bench", "i1")]
        assert score.labels["C"] is Label.CORRECT
        assert score.labels["A"] is Label.INCORRECT
        assert score.base_points["A"] == -100

    def test_replay_without_checker_uses_mode_only(self):
        records = [
            rec("A", "i1", "holds", 1.0),
            rec("B", "i1", "holds", 1.0),
            rec("C", "i1", "violated", 1.0, witness="w.txt"),
        ]
        ledger = score_records(records)
        assert ledger.instance_scores[("bench", "i1")].labels["C"] is Label.INCORRECT

    def test_unscored_benchmark_excluded_from_overall(self):
        records = [
            rec("A", "i1", "holds", 1.0, benchmark="cifar2020"),
            rec("A", "i2", "holds", 1.0, benchmark="real"),
            rec("B", "i2", "holds", 5.0, benchmark="real"),
        ]
        ledger = score_records(records)
        assert "cifar2020" in ledger.benchmarks
        totals = dict(ledger.overall)
        assert totals["A"] == 100.0
        assert "cifar2020" in ledger.benchmark_percents

    def test_duplicate_record_rejected(self):
        records = [rec("A", "i1", "holds", 1.0), rec("A", "i1", "holds", 2.0)]
        with pytest.raises(ScoringError, match="duplicate record"):
            score_records(records)

    def test_empty_rejected(self):
        with pytest.raises(ScoringError, match="empty record set"):
            score_records([])

    def test_all_nonpositive_benchmark_warns_in_ledger(self):
        records = [
            rec("A", "i1", "holds", 1.0),
            rec("B", "i1", "violated", 1.0),
            rec("C", "i1", "violated", 1.0),
        ]
        # A is the odd one out: -100; B and C hold easy-free 10 each.
        ledger = score_records(records)
        assert ledger.benchmark_points["bench"]["A"] == -100
        records2 = [
            rec("A", "i1", "holds", 1.0),
            rec("B", "i1", "violated", 1.0),
            rec("C", "i1", "violated", 1.0),
            rec("B", "i2", "holds", 1.0),
            rec("C", "i2", "violated", 1.0),
        ]
        ledger2 = score_records(records2, easy_violated=set())
        assert ledger2.benchmark_points["bench"]["B"] >= 10


class TestInstanceLog:
    def test_published_row_shape(self):
        ledger = score_records(worked_log_records())
        log = render_instance_log(ledger, "acasxu")
        lines = log.splitlines()
        assert lines[0].startswith("Row: ['prop_2', ")
        assert "'6.4 (h)'" in lines[0]
        assert "'timeout'" in lines[0]
        assert "0: nnenum score: 12" in lines
        assert "0: venus2 score: 11" in lines
        assert "0: VeriNet score: 10" in lines
        assert "0: Marabou score: 0" in lines

    def test_missing_tool_renders_dash(self):
        records = [
            rec("A", "i1", "holds", 1.0),
            rec("A", "i2", "holds", 1.0),
            rec("B", "i2", "unknown", 1.0),
        ]
        ledger = score_records(records)
        log = render_instance_log(ledger, "bench")
        first = log.splitlines()[0]
        assert first == "Row: ['i1', '1.0 (h)', '-']"

    def test_violated_and_error_cells(self):
        records = [
            rec("A", "warm", "holds", 0.0, benchmark="trivial"),
            rec("A", "i1", "violated", 4.0),
            rec("B", "i1", "error", 0.5),
            rec("B", "i2", "holds", 1.0),
        ]
        ledger = score_records(records, easy_violated=set())
        log = render_instance_log(ledger, "bench")
        assert "'4.0 (v)'" in log.splitlines()[0]
        assert "'error'" in log.splitlines()[0]


class TestReportRendering:
    def test_report_headers_note_policies(self):
        ledger = score_records(worked_log_records())
        report = render_report(ledger)
        assert "# adjudication: odd-one-out" in report
        assert "timeout/error rows excluded" in report
        assert "+1 next class" in report
        assert "# baseline tools (bonus-ineligible): randgen" in report

    def test_benchmark_table_counts(self):
        import re

        ledger = score_records(worked_log_records())
        report = render_report(ledger)
        # nnenum: 1 verified, 0 falsified, fastest on 1 instance, 12 points
        assert re.search(r"^\s*1\s+nnenum\s+1\s+0\s+1\s+12\s+100\.0%$", report, re.M)

    def test_rescoring_is_byte_identical(self):
        records = worked_log_records()
        a = render_report(score_records(records))
        b = render_report(score_records(records))
        assert a == b


# ---------------------------------------------------------------------------
# properties

def random_records(rng, n_tools=6, n_benchmarks=3, n_instances=8):
    tools = ["tool%d" % i for i in range(n_tools)] + ["randgen"]
    records = []
    for b in range(n_benchmarks):
        benchmark = "bench%d" % b
        for i in range(n_instances):
            instance = "inst%d" % i
            for tool in tools:
                if rng.random() < 0.2:
                    continue
                status = rng.choice(
                    [Status.HOLDS, Status.VIOLATED, Status.TIMEOUT, Status.UNKNOWN]
                )
                records.append(
                    rec(
                        tool,
                        instance,
                        status,
                        round(rng.uniform(0.1, 90.0), 3),
                        benchmark=benchmark,
                        mode=rng.choice(["default", "cpu"]),
                    )
                )
    for tool in tools:
        records.append(rec(tool, "warm", "holds", 0.05, benchmark="trivial"))
    return records


class TestPipelineProperties:
    def test_record_order_never_changes_the_report(self):
        rng = random.Random(7)
        records = random_records(rng)
        baseline = render_report(score_records(records))
        for _ in range(20):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert render_report(score_records(shuffled)) == baseline

    def test_bonuses_only_for_correct_non_baseline(self):
        rng = random.Random(11)
        for seed in range(10):
            rng = random.Random(seed)
            ledger = score_records(random_records(rng))
            for score in ledger.instance_scores.values():
                for tool, bonus in score.bonuses.items():
                    if bonus == 0:
                        continue
                    assert bonus in (1, 2)
                    assert score.labels[tool] is Label.CORRECT
                    assert tool != BASELINE_TOOL

    def test_bonus_classes_disjoint(self):
        rng = random.Random(3)
        ledger = score_records(random_records(rng))
        for score in ledger.instance_scores.values():
            fastest = {t for t, b in score.bonuses.items() if b == 2}
            second = {t for t, b in score.bonuses.items() if b == 1}
            assert not (fastest & second)
            if second:
                assert fastest
                assert max(score.adjusted[t] for t in fastest) < min(
                    score.adjusted[t] for t in second
                )

    @given(
        raw=st.floats(min_value=0.0, max_value=1e6),
        oh1=st.floats(min_value=0.0, max_value=1e6),
        delta=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_overhead_increase_never_raises_adjusted(self, raw, oh1, delta):
        assert adjusted_runtime(raw, oh1 + delta) <= adjusted_runtime(raw, oh1)
        assert adjusted_runtime(raw, oh1) >= 1.0

    def test_penalty_locality(self):
        rng = random.Random(23)
        records = random_records(rng)
        ledger = score_records(records)
        flipped = []
        target = ("tool0", "bench0", "inst0")
        for r in records:
            if (r.tool, r.benchmark, r.instance_id) == target:
                new_status = (
                    Status.VIOLATED if r.status is not Status.VIOLATED else Status.TIMEOUT
                )
                flipped.append(
                    rec(r.tool, r.instance_id, new_status, r.seconds,
                        benchmark=r.benchmark, mode=r.mode)
                )
            else:
                flipped.append(r)
        ledger2 = score_records(flipped)
        for key, score in ledger.instance_scores.items():
            if key == ("bench0", "inst0"):
                continue
            score2 = ledger2.instance_scores[key]
            for tool in score.statuses:
                assert score.points(tool) == score2.points(tool), (key, tool)
