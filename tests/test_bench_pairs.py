"""The summary that `tools/bench_pairs.py` writes for paired benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change, name="run_s"):
    return [
        {"parent": {name: p}, "change": {name: c}, "correct": {"parent": True, "change": True}}
        for p, c in zip(parent, change)
    ]


def test_summary_gives_medians_quartiles_and_wins(bench_pairs):
    pairs = _pairs([5.0, 1.0, 3.0, 2.0, 4.0], [2.5, 0.5, 3.5, 1.0, 2.0])
    out = bench_pairs.summarize(pairs, {"run_s": "lower"})["run_s"]
    assert out["pairs"] == 5
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert out["change"] == {"median": 2.0, "q1": 1.0, "q3": 2.5, "iqr": 1.5}
    assert out["change_wins"] == 4  # the third pair got slower


def test_summary_interpolates_quartiles_of_an_even_count(bench_pairs):
    out = bench_pairs.summarize(_pairs([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]), {"run_s": "lower"})["run_s"]
    assert out["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert out["change_wins"] == 0  # a tie is not a win


def test_summary_counts_wins_in_the_better_direction(bench_pairs):
    pairs = _pairs([10.0, 10.0, 10.0], [11.0, 9.0, 12.0], name="steps_per_s")
    out = bench_pairs.summarize(pairs, {"steps_per_s": "higher", "run_s": "lower"})
    assert out["steps_per_s"]["change_wins"] == 2
    assert "run_s" not in out  # no pair reports it


def test_summary_of_one_pair_has_no_spread(bench_pairs):
    out = bench_pairs.summarize(_pairs([7.0], [6.0]), {"run_s": "lower"})["run_s"]
    assert out["parent"] == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}
    assert out["change_wins"] == 1


def test_summary_counts_failed_runs_and_leaves_their_pairs_out(bench_pairs):
    pairs = _pairs([5.0, 1.0, 3.0, 2.0, 4.0], [2.5, 0.5, 3.5, 1.0, 2.0])
    pairs[1]["correct"]["change"] = False  # the change's fastest run failed its check
    pairs[4]["correct"] = {"parent": False, "change": False}
    out = bench_pairs.summarize(pairs, {"run_s": "lower"})["run_s"]
    assert out["failed"] == {"parent": 1, "change": 2}
    assert out["pairs"] == 3
    assert out["parent"]["median"] == 3.0
    assert out["change"]["median"] == 2.5
    assert out["change_wins"] == 2


def test_src_lines_counts_the_package_modules_only(bench_pairs, tmp_path):
    pkg = tmp_path / "src" / "cycleadapt"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("one\ntwo\n")
    (pkg / "b.py").write_text("three\n\nfive")  # as `wc -l`: a last line without a newline is not counted
    (pkg / "notes.txt").write_text("not code\n")
    (tmp_path / "src" / "other.py").write_text("outside the package\n")
    assert bench_pairs.py_lines(tmp_path, "src/cycleadapt") == 4


def test_tests_lines_counts_the_test_modules_only(bench_pairs, tmp_path):
    tests = tmp_path / "tests"
    (tests / "data").mkdir(parents=True)
    (tests / "test_a.py").write_text("one\ntwo\nthree\n")
    (tests / "oracles.py").write_text("four\n")
    (tests / "record.json").write_text("[\n1\n]\n")  # data, not test code
    (tests / "data" / "test_b.py").write_text("nested\n")
    (tmp_path / "src" / "cycleadapt").mkdir(parents=True)
    (tmp_path / "src" / "cycleadapt" / "a.py").write_text("package\n")
    assert bench_pairs.py_lines(tmp_path, "tests") == 4


def test_summary_gives_the_relative_change_and_the_gap_in_parent_iqrs(bench_pairs):
    pairs = _pairs([5.0, 1.0, 3.0, 2.0, 4.0], [2.5, 0.5, 3.5, 1.0, 2.0])
    out = bench_pairs.summarize(pairs, {"run_s": "lower"})["run_s"]
    assert out["change_rel"] == 2.0 / 3.0 - 1.0  # medians 3.0 -> 2.0
    assert out["gap_over_parent_iqr"] == 0.5  # |2.0 - 3.0| over the parent's IQR of 2.0
    slower = bench_pairs.summarize(_pairs([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]), {"run_s": "lower"})["run_s"]
    assert slower["change_rel"] == 1.0
    assert slower["gap_over_parent_iqr"] == 2.0  # the gap is a size, whichever way it points


def test_summary_gap_is_null_without_parent_spread(bench_pairs):
    out = bench_pairs.summarize(_pairs([7.0, 7.0, 7.0], [6.0, 6.5, 6.0]), {"run_s": "lower"})["run_s"]
    assert out["parent"]["iqr"] == 0.0
    assert out["gap_over_parent_iqr"] is None
    assert out["change_rel"] == 6.0 / 7.0 - 1.0


def test_run_counted_sees_the_page_faults_of_a_child(bench_pairs, tmp_path):
    touch, touched = bench_pairs.run_counted([sys.executable, "-c", "x = b'x' * (50 << 20)"], tmp_path)
    idle, quiet = bench_pairs.run_counted([sys.executable, "-c", "pass"], tmp_path)
    assert touch.returncode == idle.returncode == 0
    assert touched["minflt"] > 10_000  # 50 MB is 12 800 pages of 4 KiB, each faulted in once
    assert quiet["minflt"] < touched["minflt"] - 10_000
    assert touched["stime_s"] >= 0.0 and quiet["stime_s"] >= 0.0


def test_churn_medians_leave_out_the_runs_that_built_nets(bench_pairs):
    def churn(minflt, stime_s, built_nets=False):
        return {"minflt": minflt, "stime_s": stime_s, "built_nets": built_nets}

    pairs = _pairs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    pairs[0]["churn"] = {"parent": churn(900_000, 9.0, True), "change": churn(30, 0.3)}
    pairs[1]["churn"] = {"parent": churn(10, 0.1), "change": churn(20, 0.2)}
    pairs[2]["churn"] = {"parent": churn(40, 0.4), "change": churn(60, 0.6)}
    pairs.append(_pairs([1.0], [1.0])[0])  # a pair recorded before churn was
    out = bench_pairs.summarize_churn(pairs)
    assert out["parent"] == {"runs": 2, "minflt": 25, "stime_s": 0.25}
    assert out["change"] == {"runs": 3, "minflt": 30, "stime_s": 0.3}
