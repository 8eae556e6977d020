import csv
import json

import numpy as np
import pytest

from headlab import cli
from headlab import corpus as corpus_mod
from headlab import verify as vf


def run(args):
    return cli.main(args)


TINY_SPAM = [
    "--vocab_sizes", "[8]",
    "--lrs", "[0.02]",
    "--seeds", "[0]",
    "--width", "4",
    "--steps", "60",
    "--seq_len", "16",
    "--seqs_per_symbol", "3",
    "--eval_every", "30",
    "--warmup_steps", "6",
]

TINY_BOTTLENECK = [
    "--vocab_size", "24",
    "--width", "6",
    "--ranks", "[2,6]",
    "--seeds", "[0]",
    "--num_seqs", "24",
    "--seq_len", "12",
    "--steps", "60",
    "--eval_every", "20",
    "--warmup_steps", "6",
]


class TestGenCorpus:
    def test_writes_corpus_and_sidecar(self, tmp_path):
        out = tmp_path / "runs"
        code = run(
            ["gen-corpus", "--out", str(out), "--kind", "spamlang", "--vocab_size", "8",
             "--num_seqs", "10", "--seq_len", "6", "--seed", "5"]
        )
        assert code == 0
        text = (out / "corpus" / "corpus.txt").read_text()
        assert text.splitlines()[0] == "#vocab 8"
        sidecar = json.loads((out / "corpus" / "config.json").read_text())
        assert sidecar["vocab_size"] == 8
        assert sidecar["seed"] == 5
        assert sidecar["experiment"] == "gen-corpus"

    def test_deterministic_bytes(self, tmp_path):
        args = ["gen-corpus", "--kind", "zipf", "--vocab_size", "12", "--num_seqs", "9",
                "--seq_len", "7", "--seed", "3"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "corpus" / "corpus.txt").read_bytes()
        b = (tmp_path / "b" / "corpus" / "corpus.txt").read_bytes()
        assert a == b


class TestTrainCommand:
    def test_train_then_rerun_bit_identical(self, tmp_path):
        args = [
            "train", "--corpus.kind", "zipf", "--corpus.vocab_size", "16",
            "--corpus.num_seqs", "20", "--corpus.seq_len", "12", "--corpus.seed", "2",
            "--max_context_len", "1", "--width", "4", "--steps", "80", "--lr", "0.02",
            "--eval_every", "20", "--val_fraction", "0.2",
        ]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        ta = (tmp_path / "a" / "train" / "trajectory.csv").read_bytes()
        tb = (tmp_path / "b" / "train" / "trajectory.csv").read_bytes()
        assert ta == tb
        ca = (tmp_path / "a" / "train" / "checkpoint.bin").read_bytes()
        cb = (tmp_path / "b" / "train" / "checkpoint.bin").read_bytes()
        assert ca == cb
        with open(tmp_path / "a" / "train" / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["step"] == "0"
        assert rows[-1]["val_loss"] != ""

    def test_divergence_exits_numeric(self, tmp_path):
        code = run(
            ["train", "--out", str(tmp_path), "--corpus.kind", "spamlang",
             "--corpus.vocab_size", "8", "--corpus.num_seqs", "8", "--corpus.seq_len", "8",
             "--max_context_len", "1", "--width", "4", "--steps", "400", "--lr", "1e7",
             "--optimizer", "gd"]
        )
        assert code == cli.EXIT_NUMERIC


class TestDiagnoseCommand:
    @pytest.fixture()
    def trained(self, tmp_path):
        out = tmp_path / "runs"
        corpus_args = ["--corpus.kind", "zipf", "--corpus.vocab_size", "16",
                       "--corpus.num_seqs", "24", "--corpus.seq_len", "12",
                       "--corpus.seed", "4", "--max_context_len", "1"]
        assert run(["train", "--out", str(out), "--width", "4", "--steps", "60",
                    "--lr", "0.02", "--eval_every", "20"] + corpus_args) == 0
        return out

    def _diag_args(self, out, name):
        return [
            "diagnose", "--out", str(out), "--name", name,
            "--checkpoint", str(out / "train" / "checkpoint.bin"),
            "--corpus.kind", "zipf", "--corpus.vocab_size", "16",
            "--corpus.num_seqs", "24", "--corpus.seq_len", "12", "--corpus.seed", "4",
            "--max_context_len", "1",
            "--token_counts", "[1,8,32,128]",
        ]

    def test_round_trip_byte_identical(self, trained):
        assert run(self._diag_args(trained, "d1")) == 0
        assert run(self._diag_args(trained, "d2")) == 0
        for fname in ("rank_curve.csv", "compression.csv", "coefficient_profile.csv",
                      "efficiency.csv", "per_row_lost.csv"):
            a = (trained / "d1" / fname).read_bytes()
            b = (trained / "d2" / fname).read_bytes()
            assert a == b, fname
        header = (trained / "d1" / "efficiency.csv").read_text().splitlines()[0]
        assert header == "alpha,delta_logit,delta_hidden"
        header = (trained / "d1" / "rank_curve.csv").read_text().splitlines()[0]
        assert header == "token_count,rank,max_rank"

    def test_full_width_head_reports_zero_lost(self, tmp_path):
        out = tmp_path / "runs"
        corpus_args = ["--corpus.kind", "zipf", "--corpus.vocab_size", "8",
                       "--corpus.num_seqs", "16", "--corpus.seq_len", "10",
                       "--corpus.seed", "6", "--max_context_len", "1"]
        assert run(["train", "--out", str(out), "--width", "8", "--steps", "30",
                    "--lr", "0.02", "--eval_every", "10"] + corpus_args) == 0
        assert run([
            "diagnose", "--out", str(out),
            "--checkpoint", str(out / "train" / "checkpoint.bin"),
            "--corpus.kind", "zipf", "--corpus.vocab_size", "8",
            "--corpus.num_seqs", "16", "--corpus.seq_len", "10", "--corpus.seed", "6",
            "--max_context_len", "1", "--token_counts", "[1,8]",
        ]) == 0
        summary = json.loads((out / "diagnose" / "summary.json").read_text())
        assert summary["lost_fraction"] == 0.0

    def test_corrupt_checkpoint_is_usage_error(self, trained):
        bad = trained / "train" / "checkpoint.bin"
        data = bytearray(bad.read_bytes())
        data[0] ^= 0xFF
        bad.write_bytes(bytes(data))
        assert run(self._diag_args(trained, "d3")) == cli.EXIT_USAGE

    def test_dimension_mismatch_is_usage_error(self, trained):
        args = self._diag_args(trained, "d4")
        idx = args.index("--corpus.vocab_size")
        args[idx + 1] = "32"
        assert run(args) == cli.EXIT_USAGE


class TestVerifyCommand:
    TINY = [
        "--loss_floor.trials", "40", "--logit_rank_caps.trials", "30",
        "--top1_reachability.instances", "3", "--top1_reachability.dims", "[12,32]",
        "--error_rank_floor.instances", "15", "--batch_rank_floor.n_instances", "5",
        "--update_residual_gap.instances", "10",
    ]

    def test_clean_run_exits_zero(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path)] + self.TINY) == 0
        summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
        assert summary["total_violations"] == 0
        assert not summary["degenerate_rank_tol"]
        assert set(summary["checks"]) == {
            "loss_floor", "logit_rank_caps", "top1_reachability",
            "error_rank_floor", "batch_rank_floor", "update_residual_gap",
        }
        assert (tmp_path / "verify" / "loss_floor_instances.csv").exists()

    def test_degenerate_rank_tol_flagged(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path), "--rank_tol", "1e6"] + self.TINY) == 0
        summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
        assert summary["degenerate_rank_tol"]

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        broken = vf.VerificationResult(
            check_id="loss_floor", instances_tested=1, violations=1, worst_margin=-1.0, seed=0
        )
        monkeypatch.setattr(cli.verify, "verify_loss_floor", lambda **kw: broken)
        code = run(["verify", "--out", str(tmp_path)] + self.TINY)
        assert code == cli.EXIT_VIOLATION


class TestSpamlangSweep:
    def test_zero_lr_cell_keeps_initial_loss(self, tmp_path):
        assert run(
            ["spamlang-sweep", "--out", str(tmp_path), "--vocab_sizes", "[8]",
             "--lrs", "[0.0]", "--seeds", "[0]", "--width", "4", "--steps", "40",
             "--seq_len", "12", "--eval_every", "20", "--warmup_steps", "0",
             "--schedule", "constant"]
        ) == 0
        traj = tmp_path / "spamlang" / "runs" / "v8_lr0_seed0" / "trajectory.csv"
        with open(traj) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["train_loss"] == rows[-1]["train_loss"]

    def test_diverged_cell_recorded_not_crashed(self, tmp_path):
        assert run(
            ["spamlang-sweep", "--out", str(tmp_path), "--vocab_sizes", "[8]",
             "--lrs", "[1e7,0.02]", "--seeds", "[0]", "--width", "4", "--steps", "150",
             "--seq_len", "12", "--eval_every", "50", "--warmup_steps", "0",
             "--schedule", "constant", "--optimizer", "gd"]
        ) == 0
        with open(tmp_path / "spamlang" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        status = {row["lr"]: row["status"] for row in rows}
        assert status["10000000.0"] == "diverged"
        assert status["0.02"] == "ok"
        summary = json.loads((tmp_path / "spamlang" / "summary.json").read_text())
        assert summary["num_diverged"] == 1

    def test_rerun_bit_identical_and_cells_independent(self, tmp_path):
        assert run(["spamlang-sweep", "--out", str(tmp_path / "a")] + TINY_SPAM) == 0
        assert run(["spamlang-sweep", "--out", str(tmp_path / "b")] + TINY_SPAM) == 0
        a = (tmp_path / "a" / "spamlang" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "spamlang" / "sweep.csv").read_bytes()
        assert a == b
        # the same cell inside a larger grid produces identical trajectories
        bigger = [x for x in TINY_SPAM]
        bigger[bigger.index("[0.02]")] = "[0.005,0.02]"
        assert run(["spamlang-sweep", "--out", str(tmp_path / "c")] + bigger) == 0
        cell = "v8_lr0.02_seed0/trajectory.csv"
        small = (tmp_path / "a" / "spamlang" / "runs" / cell).read_bytes()
        big = (tmp_path / "c" / "spamlang" / "runs" / cell).read_bytes()
        assert small == big


class TestBottleneckSweep:
    def test_runs_and_is_deterministic(self, tmp_path):
        assert run(["bottleneck-sweep", "--out", str(tmp_path / "a")] + TINY_BOTTLENECK) == 0
        assert run(["bottleneck-sweep", "--out", str(tmp_path / "b")] + TINY_BOTTLENECK) == 0
        a = (tmp_path / "a" / "bottleneck" / "bottleneck.csv").read_bytes()
        b = (tmp_path / "b" / "bottleneck" / "bottleneck.csv").read_bytes()
        assert a == b
        with open(tmp_path / "a" / "bottleneck" / "bottleneck.csv") as fh:
            rows = list(csv.DictReader(fh))
        heads = {row["head"] for row in rows}
        assert heads == {"factored", "full"}
        baseline_rows = [row for row in rows if row["baseline"] == "1"]
        assert all(row["head"] == "full" for row in baseline_rows)
        assert all(row["status"] == "ok" for row in rows)
        assert all(row["final_val_loss"] not in ("", "nan") for row in rows)


class TestReportCommand:
    def test_regenerates_plots(self, tmp_path):
        out = tmp_path / "runs"
        assert run(["spamlang-sweep", "--out", str(out)] + TINY_SPAM) == 0
        assert run(
            ["report", "--out", str(out), "--run_dir", str(out / "spamlang")]
        ) == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert summary["plots"]
        for plot in summary["plots"]:
            assert plot.endswith(".svg")


class TestArgHandling:
    def test_unknown_command_is_usage_error(self, tmp_path):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_command_is_usage_error(self):
        assert run([]) == cli.EXIT_USAGE

    def test_missing_value_is_usage_error(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path), "--seed"]) == cli.EXIT_USAGE

    def test_config_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vocab_size": 32, "num_seqs": 6, "seq_len": 5}))
        assert run(
            ["gen-corpus", "--out", str(tmp_path), "--config", str(cfg), "--vocab_size", "16"]
        ) == 0
        sidecar = json.loads((tmp_path / "corpus" / "config.json").read_text())
        assert sidecar["vocab_size"] == 16  # flag beats file
        assert sidecar["num_seqs"] == 6  # file beats default

    def test_equals_form_override(self, tmp_path):
        assert run(["gen-corpus", "--out", str(tmp_path), "--num_seqs=4", "--seq_len=5"]) == 0
        sidecar = json.loads((tmp_path / "corpus" / "config.json").read_text())
        assert sidecar["num_seqs"] == 4

    def test_bad_config_file_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["gen-corpus", "--out", str(tmp_path), "--config", str(cfg)]) == cli.EXIT_USAGE

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "envroot"))
        assert run(["gen-corpus", "--num_seqs", "4", "--seq_len", "5"]) == 0
        assert (tmp_path / "envroot" / "corpus" / "corpus.txt").exists()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        assert run(["train", "--out", str(tmp_path), "--widht", "4", "--steps", "2"]) == 1
        assert "widht" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_seqs": 4, "seq_lenn": 5}))
        assert run(["gen-corpus", "--out", str(tmp_path), "--config", str(cfg)]) == 1
        assert "seq_lenn" in capsys.readouterr().err

    def test_nested_keys_are_not_checked(self, tmp_path):
        args = ["train", "--out", str(tmp_path), "--steps", "2", "--corpus.num_seqs", "4",
                "--corpus.seq_len", "5", "--corpus.extra", "1"]
        assert run(args) == 0

    def test_sidecar_is_accepted_as_config(self, tmp_path):
        assert run(["gen-corpus", "--out", str(tmp_path / "a"), "--num_seqs", "4",
                    "--seq_len", "5", "--stats_prefix_sizes", "[]"]) == 0
        sidecar = tmp_path / "a" / "corpus" / "config.json"
        assert run(["gen-corpus", "--out", str(tmp_path / "b"), "--config", str(sidecar)]) == 0
        a = (tmp_path / "a" / "corpus" / "corpus.txt").read_bytes()
        assert a == (tmp_path / "b" / "corpus" / "corpus.txt").read_bytes()
        assert run(["train", "--out", str(tmp_path / "c"), "--config", str(sidecar)]) == 1

    def test_dense_size_guard(self, tmp_path, capsys):
        # three contexts over four billion tokens: ~96 GB as a dense matrix;
        # fails here, before any allocation, if the guard is gone
        assert 3 * 4_000_000_000 * 8 > corpus_mod.MAX_DENSE_BYTES
        path = tmp_path / "huge.txt"
        path.write_text("#vocab 4000000000\n1 2 3\n")
        assert run(["train", "--out", str(tmp_path), "--corpus", str(path), "--steps", "1"]) == 1
        assert "bytes as a dense float64 matrix" in capsys.readouterr().err
