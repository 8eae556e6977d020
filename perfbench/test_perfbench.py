"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import csv
import json
import math
import re
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

sys.path.insert(0, str(run.SRC))
from headlab.cli import main as headlab_main  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("model.train", 1.0, 6.0, 0, 0),
        ("corpus.batch_counts", 2.0, 3.0, 1, 0),
        ("linalg.softmax_rows", 4.0, 4.5, 1, 0),
        ("svg.line_plot", 7.0, 9.0, 0, 0),
        ("cli.main", 11.0, 12.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 2.0, 1.0])
    summary = tracing.summarize(spans)
    assert summary["cli.main"] == pytest.approx({"s": 11.0, "self_s": 4.0, "calls": 2})
    assert summary["model.train"] == pytest.approx({"s": 5.0, "self_s": 3.5, "calls": 1})


def test_recursive_span_counted_once_inclusive():
    spans = [("a.f", 0.0, 4.0, -1, 0), ("a.f", 1.0, 2.0, 0, 0)]
    assert tracing.summarize(spans)["a.f"] == pytest.approx({"s": 4.0, "self_s": 4.0, "calls": 2})


def test_metric_names_and_units_follow_the_contract():
    per_layer = run.layer_metrics([], {}, {}, 1.0, 1.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [u for _, u in per_layer.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_absent_function_reports_zero():
    metrics = run.layer_metrics([("cli.main", 0.0, 1.0, -1, 0)], {}, {}, 1.0, 1.0)
    assert metrics["linalg.kernel_basis.calls"] == (0, "count")
    assert metrics["cli.self_s"] == (1.0, "s")


def _write_train_run(run_dir, rows, floor=1.0):
    run_dir.mkdir(parents=True)
    with open(run_dir / "trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "train_loss", "val_loss", "top1_acc"])
        writer.writerows(rows)
    summary = {"final_train_loss": float(rows[-1][1]), "final_val_loss": None,
               "entropy_floor": floor, "num_contexts": 3}
    (run_dir / "summary.json").write_text(json.dumps(summary))


def _failed(ops):
    return [name for name, ok in ops if not ok]


def test_checks_accept_a_clean_train_run(tmp_path):
    _write_train_run(tmp_path / "ok", [[0, "3.0", "", ""], [50, "2.0", "", ""]])
    assert _failed(checks.check_train(tmp_path / "ok")[0]) == []


def test_checks_reject_a_nan_loss_row(tmp_path):
    _write_train_run(tmp_path / "nan", [[0, "3.0", "", ""], [50, "nan", "", ""]])
    assert "train: losses finite" in _failed(checks.check_train(tmp_path / "nan")[0])


def test_checks_reject_a_loss_below_the_entropy_floor(tmp_path):
    _write_train_run(tmp_path / "low", [[0, "3.0", "", ""], [50, "0.5", "", ""]])
    assert "train: train loss >= entropy floor" in _failed(checks.check_train(tmp_path / "low")[0])


def test_checks_reject_a_verification_violation(tmp_path):
    summary = {"checks": {"loss_floor": {"violations": 0}, "error_rank_floor": {"violations": 2}},
               "total_violations": 2}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert _failed(checks.check_verify(tmp_path)[0]) == [
        "verify error_rank_floor: no violation", "verify: total_violations is 0"]


def test_checks_reject_a_short_per_row_series(tmp_path):
    (tmp_path / "summary.json").write_text(json.dumps({"lost_fraction": 0.5, "cosine_mean": 0.9}))
    (tmp_path / "per_row_lost.csv").write_text("row,lost_fraction\n0,0.5\n")
    assert _failed(checks.check_diagnose(tmp_path, 2)[0]) == ["diagnose: per_row_lost has C rows"]


def test_reference_check_uses_relative_tolerance():
    ref = {"loss": 2.0}
    assert _failed(checks.check_reference({"loss": 2.0 * (1 + 1e-9)}, ref, 1e-6)) == []
    assert _failed(checks.check_reference({"loss": 2.1}, ref, 1e-6)) == ["reference: loss"]
    assert _failed(checks.check_reference({"loss": math.nan}, ref, 1e-6)) == ["reference: loss"]


def test_entropy_floor_of_a_tiny_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("#vocab 2\n0 1 0\n0 0 0\n1 1 1\n")
    floor, contexts, tokens = checks.entropy_floor_mcl1(path, 1 / 3)
    # contexts: empty -> {0, 0}; 0 -> {1, 0, 0}; 1 -> {0}
    expected = -(3 / 6) * (1 / 3 * math.log(1 / 3) + 2 / 3 * math.log(2 / 3))
    assert (floor, contexts, tokens) == (pytest.approx(expected), 3, 6)


def _generated_inputs(seed, out):
    for argv in run.WORKLOADS["bottleneck"].setup(seed, out):
        assert headlab_main([str(a) for a in argv]) == 0
    return (Path(out) / "corpus" / "corpus.txt").read_bytes()


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = _generated_inputs(7, tmp_path / "a")
    assert first == _generated_inputs(7, tmp_path / "b")
    assert first != _generated_inputs(8, tmp_path / "c")


def test_traced_child_catches_calls_through_imported_names(tmp_path):
    calls = [["train", "--out", tmp_path, "--corpus.vocab_size", 16, "--corpus.num_seqs", 8,
              "--corpus.seq_len", 8, "--max_context_len", 2, "--width", 4,
              "--batch_sequences", 2, "--steps", 5, "--eval_every", 5]]
    child = run.spawn(calls, tmp_path, "timed", trace=True)
    assert child["exit"] == 0
    report = child["report"]
    summary = tracing.summarize(report["spans"])
    # cli reaches train and build_counts, and model reaches batch_counts,
    # through names imported at module level
    assert summary["model.train"]["calls"] == 1
    assert summary["corpus.build_counts"]["calls"] == 1
    assert summary["corpus.batch_counts"]["calls"] == 5
    assert report["work"]["model.train"] == 5
    assert report["work"]["corpus.build_counts"] == 64
    assert set(run.referenced_functions()) <= set(report["traced"])
