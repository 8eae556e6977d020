import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import cli, linalg, parallel
from headlab import corpus as corpus_mod
from headlab import model
from headlab import verify as vf
from headlab.model import TrainConfig, TrainingDivergedError, load_checkpoint, save_checkpoint


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

    def test_entropy_bin_keys_are_plain_floats(self, tmp_path):
        assert run(["gen-corpus", "--out", str(tmp_path), "--vocab_size", "16",
                    "--num_seqs", "4", "--seq_len", "4", "--stats_prefix_sizes", "[]"]) == 0
        with open(tmp_path / "corpus" / "stats.csv") as fh:
            keys = [row["key"] for row in csv.DictReader(fh) if row["stat"] == "entropy_bin"]
        assert keys
        for key in keys:
            lo, hi = key.split(":")
            assert float(lo) < float(hi)

    def test_negative_prefix_size_refused_before_the_corpus_is_written(self, tmp_path, capsys):
        assert run(["gen-corpus", "--out", str(tmp_path), "--vocab_size", "16",
                    "--num_seqs", "4", "--seq_len", "4", "--stats_prefix_sizes", "[2,-1]"]
                   ) == cli.EXIT_USAGE
        assert "stats_prefix_sizes must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "corpus" / "corpus.txt").exists()

    def test_transition_table_over_the_dense_limit_exits_usage(self, tmp_path, capsys):
        assert run(["gen-corpus", "--out", str(tmp_path), "--vocab_size", "30000",
                    "--num_seqs", "2", "--seq_len", "3"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: the Zipf transition table (tokens x tokens): 30000 x 30000 exceed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "corpus" / "corpus.txt").exists()

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

    def test_negative_warmup_exits_usage(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path), "--steps", "20", "--schedule", "cosine",
                    "--warmup_steps", "-5"])
        assert code == cli.EXIT_USAGE
        assert "warmup_steps" in capsys.readouterr().err


@pytest.fixture()
def trained(tmp_path):
    """A run root holding a small trained checkpoint under train/."""
    out = tmp_path / "runs"
    corpus_args = ["--corpus.kind", "zipf", "--corpus.vocab_size", "16",
                   "--corpus.num_seqs", "24", "--corpus.seq_len", "12",
                   "--corpus.seed", "4", "--max_context_len", "1"]
    assert run(["train", "--out", str(out), "--width", "4", "--steps", "60",
                "--lr", "0.02", "--eval_every", "20"] + corpus_args) == 0
    return out


def _diag_args(out, name):
    return [
        "diagnose", "--out", str(out), "--name", name,
        "--checkpoint", str(out / "train" / "checkpoint.bin"),
        "--corpus.kind", "zipf", "--corpus.vocab_size", "16",
        "--corpus.num_seqs", "24", "--corpus.seq_len", "12", "--corpus.seed", "4",
        "--max_context_len", "1",
        "--token_counts", "[1,8,32,128]",
    ]


class TestDiagnoseCommand:
    def test_round_trip_byte_identical(self, trained):
        assert run(_diag_args(trained, "d1")) == 0
        assert run(_diag_args(trained, "d2")) == 0
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

    def test_head_wider_than_its_vocabulary_reports_zero_lost(self, tmp_path):
        """V=4 < D=8: the head spans every logit direction, so nothing is lost."""
        out = tmp_path / "runs"
        corpus_args = ["--corpus.vocab_size", "4", "--corpus.num_seqs", "16",
                       "--corpus.seq_len", "8", "--max_context_len", "1"]
        assert run(["train", "--out", str(out), "--width", "8", "--steps", "20"]
                   + corpus_args) == 0
        assert run(["diagnose", "--out", str(out), "--token_counts", "[1,8]",
                    "--checkpoint", str(out / "train" / "checkpoint.bin")] + corpus_args) == 0
        summary = json.loads((out / "diagnose" / "summary.json").read_text())
        assert summary["lost_fraction"] == 0.0

    def test_corrupt_checkpoint_is_usage_error(self, trained):
        bad = trained / "train" / "checkpoint.bin"
        data = bytearray(bad.read_bytes())
        data[0] ^= 0xFF
        bad.write_bytes(bytes(data))
        assert run(_diag_args(trained, "d3")) == cli.EXIT_USAGE

    def test_dimension_mismatch_is_usage_error(self, trained):
        args = _diag_args(trained, "d4")
        idx = args.index("--corpus.vocab_size")
        args[idx + 1] = "32"
        assert run(args) == cli.EXIT_USAGE

    def test_unknown_corpus_key_is_usage_error(self, trained, capsys):
        args = _diag_args(trained, "d5")
        args[args.index("--corpus.vocab_size")] = "--corpus.vocab_sze"
        assert run(args) == cli.EXIT_USAGE
        assert "vocab_sze" in capsys.readouterr().err
        assert not (trained / "d5" / "summary.json").exists()

    @pytest.mark.parametrize("token_counts", ["[0,4]", "[16,4]", "[-3]"])
    def test_bad_token_counts_refused_before_the_first_pass(
        self, token_counts, trained, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli.diagnostics, "gradient_pass", lambda *args: calls.append(args))
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)  # the spy runs here
        args = _diag_args(trained, "d7")
        args[args.index("[1,8,32,128]")] = token_counts
        assert run(args) == cli.EXIT_USAGE
        assert calls == []
        assert "token_counts must be positive and ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--token_counts", "[]", "token_counts must not be empty"),
        ("--fractions", "[]", "fractions must hold at least one"),
    ])
    def test_bad_lists_refused_before_the_checkpoint_or_the_corpus(
        self, option, value, message, trained, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("diagnose read the checkpoint or counted the corpus")

        monkeypatch.setattr(cli, "load_checkpoint", no_work)
        monkeypatch.setattr(cli, "build_counts", no_work)
        args = _diag_args(trained, "d8")
        if option in args:
            args[args.index(option) + 1] = value
        else:
            args += [option, value]
        assert run(args) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_empty_fractions_exit_usage(self, trained, capsys):
        assert run(_diag_args(trained, "d6") + ["--fractions", "[]"]) == cli.EXIT_USAGE
        assert "fractions" in capsys.readouterr().err
        assert not (trained / "d6" / "efficiency.csv").exists()


class TestVerifyCommand:
    TINY = [
        "--loss_floor.instances", "40", "--logit_rank_caps.instances", "30",
        "--top1_reachability.instances", "3", "--error_rank_floor.instances", "15",
        "--batch_rank_floor.instances", "5", "--update_residual_gap.instances", "10",
    ]
    COUNT_KEYS = [f"{check_id}.instances" for check_id in vf.CHECKS]

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
        code = run(["verify", "--out", str(tmp_path), "--rank_tol", "1e6"] + self.TINY)
        summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
        assert summary["degenerate_rank_tol"]
        # every measured rank collapses to zero: the caps hold vacuously and
        # the rank floors fail
        violations = {k: c["violations"] for k, c in summary["checks"].items()}
        assert violations["logit_rank_caps"] == 0
        assert violations["error_rank_floor"] > 0 and violations["batch_rank_floor"] > 0
        assert code == cli.EXIT_VIOLATION

    def test_rank_tol_reaches_every_rank_check(self, tmp_path, monkeypatch):
        seen = {}

        def spy(fn):
            def wrapped(m, tol=vf.RANK_TOL):
                # a verifier's instance is its local `draw`: key by the
                # enclosing verifier
                verifier = sys._getframe(1).f_code.co_qualname.partition(".")[0]
                seen.setdefault(verifier, set()).add(tol)
                return fn(m, tol)
            return wrapped

        monkeypatch.setattr(vf.linalg, "qr_rank", spy(vf.linalg.qr_rank))
        monkeypatch.setattr(vf, "_svd_rank", spy(vf._svd_rank))
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)  # the spy runs here
        assert run(["verify", "--out", str(tmp_path), "--rank_tol", "1e-3"] + self.TINY) == 0
        assert seen == {
            "verify_logit_rank_caps": {1e-3},
            "verify_top1_reachability": {1e-3},
            "verify_error_rank_floor": {1e-3},
            "verify_batch_rank_floor": {1e-3},
            # a fixed threshold of its own, independent of rank_tol
            "verify_update_residual_gap": {1e-8},
        }

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        broken = vf.VerificationResult(
            check_id="loss_floor", instances_tested=1, violations=1, worst_margin=-1.0, seed=0
        )
        monkeypatch.setitem(vf.CHECKS, "loss_floor", lambda **kw: broken)
        code = run(["verify", "--out", str(tmp_path)] + self.TINY)
        assert code == cli.EXIT_VIOLATION

    @pytest.mark.parametrize("key", COUNT_KEYS)
    def test_count_below_one_exits_usage(self, key, tmp_path, capsys):
        args = ["verify", "--out", str(tmp_path)] + self.TINY + [f"--{key}", "0"]
        assert run(args) == cli.EXIT_USAGE
        assert f"{key.split('.')[1]} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "verify" / "summary.json").exists()

    @pytest.mark.parametrize("key", COUNT_KEYS)
    def test_count_refused_naming_its_check_before_any_check_runs(
        self, key, monkeypatch, tmp_path, capsys
    ):
        ran = []

        def spy(check_id, check):
            def wrapped(**kwargs):
                ran.append(check_id)
                return check(**kwargs)
            return wrapped

        for check_id, check in list(vf.CHECKS.items()):
            monkeypatch.setitem(vf.CHECKS, check_id, spy(check_id, check))
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)  # the spy runs here
        args = ["verify", "--out", str(tmp_path)] + self.TINY + [f"--{key}", "0"]
        assert run(args) == cli.EXIT_USAGE
        assert f"error: {key} must be positive" in capsys.readouterr().err
        assert ran == []

    def test_verifier_error_names_its_check_without_a_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        # a spamlang context continues one way in the whole corpus, so no
        # draw meets the batch floor's precondition
        monkeypatch.setattr(vf, "gen_zipf_bigram", lambda v, exponent, num_seqs, seq_len, seed:
                            corpus_mod.gen_spamlang(v, num_seqs, seq_len, seed))
        assert run(["verify", "--out", str(tmp_path)] + self.TINY) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: batch_rank_floor: only 0 of 5 instances" in err
        assert "Traceback" not in err
        assert not (tmp_path / "verify" / "summary.json").exists()

    def test_every_registered_check_has_a_count_block(self):
        assert set(cli.VERIFY_DEFAULTS) - {"name", "seed", "rank_tol"} == set(vf.CHECKS)
        for check_id in vf.CHECKS:
            assert list(cli.VERIFY_DEFAULTS[check_id]) == ["instances"]

    def test_sidecar_lists_every_verifier_size(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path)] + self.TINY) == 0
        sidecar = json.loads((tmp_path / "verify" / "config.json").read_text())
        assert {check_id: sidecar[check_id] for check_id in vf.CHECKS} == {
            "loss_floor": {"instances": 40}, "logit_rank_caps": {"instances": 30},
            "top1_reachability": {"instances": 3}, "error_rank_floor": {"instances": 15},
            "batch_rank_floor": {"instances": 5}, "update_residual_gap": {"instances": 10},
        }

    def test_unknown_keys_of_every_block_refused_together(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss_floor": {"dims": 4, "instances": 3},
                                   "error_rank_floor": {"trials": 2}, "seeed": 1}))
        assert run(["verify", "--out", str(tmp_path), "--config", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error_rank_floor.trials, loss_floor.dims, seeed" in err
        assert not (tmp_path / "verify").exists()

    def test_command_matches_run_all(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path), "--seed", "3", "--rank_tol", "1e-5"]
                   + self.TINY) == 0
        config = json.loads((tmp_path / "verify" / "config.json").read_text())
        results = vf.run_all(seed=3, rank_tol=1e-5, sizes={k: config[k] for k in vf.CHECKS})
        summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
        assert summary["checks"] == {k: r.to_json_dict() for k, r in results.items()}


# a value other than every experiment's default for each TrainConfig field
NON_DEFAULT = {
    "steps": 9, "lr": 0.25, "width": 6, "head_rank": 3, "optimizer": "gd", "warmup_steps": 3,
    "batch_sequences": 2, "seed": 4, "eval_every": 7,
}
TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


class TestTrainConfigKeys:
    @pytest.fixture()
    def seen(self, monkeypatch):
        """Every TrainConfig that reaches `train`; training itself is skipped.
        The spy appends in this process, so the sweep cells run serially."""
        configs = []

        def spy(data, tc, **kwargs):
            configs.append(tc)
            raise TrainingDivergedError(0, float("nan"), float("nan"))

        monkeypatch.setattr(cli, "train", spy)
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        return configs

    @pytest.mark.parametrize("kind, size_args", [
        ("train", ["--corpus.num_seqs", "6", "--corpus.seq_len", "5"]),
        ("spamlang-sweep", TINY_SPAM[:6]),
        ("bottleneck-sweep", TINY_BOTTLENECK[:12]),
    ])
    def test_each_exposed_field_reaches_train(self, kind, size_args, seen, tmp_path):
        defaults = cli.resolve_config(kind)
        exposed = TRAIN_FIELDS & set(defaults)
        values = dict(NON_DEFAULT)
        values["schedule"] = "constant" if defaults["schedule"] == "cosine" else "cosine"
        args = [kind, "--out", str(tmp_path)] + size_args
        for key in sorted(exposed):
            assert values[key] != defaults[key], key
            args += [f"--{key}", json.dumps(values[key])]
        run(args)
        assert seen
        for tc in seen:
            assert {k: getattr(tc, k) for k in exposed} == {k: values[k] for k in exposed}

    def test_every_command_has_defaults(self):
        assert set(cli.COMMANDS) == set(cli._DEFAULTS)

    def test_experiment_key_sets(self):
        swept = {"lr", "seed", "head_rank", "batch_sequences"}
        assert TRAIN_FIELDS <= set(cli.TRAIN_DEFAULTS)
        assert TRAIN_FIELDS - set(cli.SPAMLANG_DEFAULTS) == swept
        assert TRAIN_FIELDS - set(cli.BOTTLENECK_DEFAULTS) == swept - {"lr"}

    @pytest.mark.parametrize("flag, value", [
        ("--head_rank", "full"), ("--head_rank", "0"), ("--batch_sequences", "0"),
    ])
    def test_full_head_and_full_batch_aliases(self, flag, value, seen, tmp_path):
        args = ["train", "--out", str(tmp_path), "--corpus.num_seqs", "6",
                "--corpus.seq_len", "5", "--head_rank", "2", "--batch_sequences", "3"]
        assert run(args + [flag, value]) == cli.EXIT_NUMERIC
        assert getattr(seen[0], flag[2:]) is None

    def test_json_numbers_are_cast_to_field_types(self, seen, tmp_path):
        args = ["train", "--out", str(tmp_path), "--corpus.num_seqs", "6",
                "--corpus.seq_len", "5", "--steps", "12.0", "--lr", "1", "--eval_every", "1e3"]
        assert run(args) == cli.EXIT_NUMERIC
        tc = seen[0]
        assert (tc.steps, tc.lr, tc.eval_every) == (12, 1.0, 1000)
        assert type(tc.steps) is int and type(tc.lr) is float

    @pytest.mark.parametrize("flag, value", [
        ("--width", "8.9"), ("--steps", "2.5"), ("--head_rank", "1.5"), ("--eval_every", "NaN"),
    ])
    def test_int_field_refuses_fractions(self, flag, value, tmp_path, capsys):
        args = ["train", "--out", str(tmp_path), "--corpus.num_seqs", "4",
                "--corpus.seq_len", "5", "--steps", "3", flag, value]
        assert run(args) == cli.EXIT_USAGE
        assert flag[2:] in capsys.readouterr().err
        assert not (tmp_path / "train" / "summary.json").exists()

    @pytest.mark.parametrize("args, key", [
        (["gen-corpus", "--exponent", "NaN", "--vocab_size", "8", "--num_seqs", "3",
          "--seq_len", "6"], "exponent"),
        (["train", "--lr", "Infinity"], "lr"),
        (["train", "--lr", "NaN"], "lr"),
        (["train", "--lr", "false"], "lr"),
        (["train", "--corpus.exponent", "NaN"], "corpus.exponent"),
        (["spamlang-sweep", "--lrs", "[0.01, NaN]"], "lrs"),
        (["diagnose", "--fractions", "[Infinity]"], "fractions"),
        (["verify", "--rank_tol", "NaN"], "rank_tol"),
    ])
    def test_non_finite_float_exits_usage_naming_the_key(self, args, key, tmp_path, capsys):
        assert run(args[:1] + ["--out", str(tmp_path)] + args[1:]) == cli.EXIT_USAGE
        assert f"error: {key} must be a finite number" in capsys.readouterr().err
        assert not list(tmp_path.rglob("summary.json"))

    def test_snapshot_step_beyond_the_run_exits_usage(self, tmp_path, capsys):
        args = ["train", "--out", str(tmp_path), "--corpus.num_seqs", "4",
                "--corpus.seq_len", "5", "--steps", "10", "--snapshot_steps", "[20, -1]"]
        assert run(args) == cli.EXIT_USAGE
        assert "snapshot_steps must lie in [0, steps]" in capsys.readouterr().err
        assert not list((tmp_path / "train").glob("checkpoint*"))


class TestInlineCorpusKeys:
    @pytest.mark.parametrize("kind", ["train", "diagnose"])
    @pytest.mark.parametrize("key, value", [("name", "bogus"), ("stats_prefix_sizes", "[3]")])
    def test_gen_corpus_output_keys_refused(self, kind, key, value, tmp_path, capsys):
        """An inline corpus block writes no corpus file and no stats, so the
        keys that name and describe them are refused, before config.json."""
        steps = ["--steps", "3"] if kind == "train" else []
        args = [kind, "--out", str(tmp_path), "--corpus.num_seqs", "6", "--corpus.seq_len", "5",
                *steps, f"--corpus.{key}", value]
        assert run(args) == cli.EXIT_USAGE
        assert f"corpus.{key}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("config.json"))


class TestIntegerKeys:
    """Every key whose default is whole, alone or in a list: a fraction, true
    or false is refused, a whole float is taken as its integer."""

    @pytest.mark.parametrize("args, key", [
        (["train", "--corpus.num_seqs", "6", "--corpus.seq_len", "5", "--steps", "3",
          "--max_context_len", "1.7"], "max_context_len"),
        (["train", "--corpus.num_seqs", "8.9", "--corpus.seq_len", "5", "--steps", "3"],
         "num_seqs"),
        (["bottleneck-sweep", *TINY_BOTTLENECK, "--num_seqs", "24.5"], "num_seqs"),
        (["spamlang-sweep", *TINY_SPAM, "--seqs_per_symbol", "2.5"], "seqs_per_symbol"),
        (["bottleneck-sweep", *TINY_BOTTLENECK, "--ranks", "[2.5,6]"], "ranks"),
        (["verify", "--update_residual_gap.instances", "2.5"], "update_residual_gap.instances"),
        (["diagnose", "--checkpoint", "missing.bin", "--corpus.seq_len", "4.5"],
         "corpus.seq_len"),
        (["train", "--corpus.num_seqs", "6", "--corpus.seq_len", "5", "--steps", "true"],
         "steps"),
        (["train", "--corpus.num_seqs", "6", "--corpus.seq_len", "5", "--steps", "3",
          "--batch_sequences", "false"], "batch_sequences"),
        (["bottleneck-sweep", *TINY_BOTTLENECK, "--ranks", "[2,true]"], "ranks"),
    ])
    def test_fraction_exits_usage_naming_the_key(self, args, key, tmp_path, capsys):
        assert run(args[:1] + ["--out", str(tmp_path)] + args[1:]) == cli.EXIT_USAGE
        assert f"{key} must be a whole number" in capsys.readouterr().err
        assert not list(tmp_path.rglob("summary.json"))

    def test_whole_floats_are_taken_as_integers(self, tmp_path):
        args = ["gen-corpus", "--out", str(tmp_path), "--vocab_size", "8", "--num_seqs", "8.0",
                "--seq_len", "1e1", "--stats_prefix_sizes", "[1]"]
        assert run(args) == 0
        summary = json.loads((tmp_path / "corpus" / "summary.json").read_text())
        assert (summary["num_sequences"], summary["num_tokens"]) == (8, 80)


def _like(name, default):
    """JSON values that resolve_config takes for the key `name`: ints and
    whole floats for an int (nonnegative for a seed), ints and floats for a
    float; strings and paths keep their defaults."""
    ints = st.integers(0 if name.endswith(("seed", "seeds")) else -2**53, 2**53)
    if isinstance(default, int) or default is None and name in cli._ANNOTATIONS:
        return ints | ints.map(float)
    if isinstance(default, float):
        return ints | st.floats(allow_nan=False, allow_infinity=False)
    if isinstance(default, (list, tuple)):
        return st.lists(_like(name, default[0] if default else 0), max_size=3)
    if isinstance(default, dict):
        return st.fixed_dictionaries({k: _like(f"{name}.{k}", v) for k, v in default.items()})
    return st.just(default)


def _assert_typed(value, default):
    if isinstance(default, dict):
        for key in value:
            _assert_typed(value[key], default[key])
    elif isinstance(default, (list, tuple)):
        assert type(value) is list
        for v in value:
            _assert_typed(v, default[0] if default else 0)
    elif default is None:
        assert value is None or type(value) is int
    else:
        assert type(value) is type(default)


class TestTypedConfig:
    """resolve_config types every key as its default; a value it cannot
    type exits 1 naming the key, before any file is written."""

    @pytest.mark.parametrize("args, key", [
        (["train", "--corpus.num_seqs", "6", "--corpus.seq_len", "5", "--steps", "3",
          "--snapshot_steps", "[1.5]"], "snapshot_steps"),
        (["verify", "--loss_floor.bogus", "3"], "loss_floor.bogus"),
        (["train", "--corpus.num_seqs", "6", "--corpus.seq_len", "5", "--steps", "3",
          "--lr", "abc"], "lr"),
        (["train", "--steps", "3", "--lr", "1" + "0" * 400], "lr"),
    ])
    def test_untyped_value_exits_usage_naming_the_key(self, args, key, tmp_path, capsys):
        assert run(args[:1] + ["--out", str(tmp_path)] + args[1:]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{key} must" in err or f"unknown config key(s): {key}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, key", [
        (["train", "--seed", "-1"], "seed"),
        (["train", "--corpus.seed", "-2"], "corpus.seed"),
        (["gen-corpus", "--seed", "-1"], "seed"),
        (["diagnose", "--seed", "-1"], "seed"),
        (["verify", "--seed", "-1.0"], "seed"),
        (["bottleneck-sweep", "--corpus_seed", "-1"], "corpus_seed"),
        (["bottleneck-sweep", "--seeds", "[-3]"], "seeds"),
        (["spamlang-sweep", "--seeds", "[0,-1]"], "seeds"),
    ])
    def test_negative_seed_exits_usage_naming_the_key(self, args, key, tmp_path, capsys):
        assert run(args[:1] + ["--out", str(tmp_path)] + args[1:]) == cli.EXIT_USAGE
        assert f"error: {key} must be nonnegative" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_whole_float_verifier_size(self, tmp_path):
        args = ["--loss_floor.instances", "5.0", *TestVerifyCommand.TINY[2:]]
        assert run(["verify", "--out", str(tmp_path)] + args) == 0
        summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
        assert summary["checks"]["loss_floor"]["instances"] == 5
        sidecar = json.loads((tmp_path / "verify" / "config.json").read_text())
        assert type(sidecar["loss_floor"]["instances"]) is int

    @settings(settings.get_profile("deterministic"), max_examples=40)
    @given(data=st.data())
    @pytest.mark.parametrize("kind", sorted(cli.COMMANDS))
    def test_every_key_takes_its_default_type(self, kind, data, tmp_path_factory):
        defaults = cli._DEFAULTS[kind]
        overrides = data.draw(st.fixed_dictionaries({k: _like(k, v) for k, v in defaults.items()}))
        config = cli.resolve_config(kind, overrides=overrides)
        assert config.keys() == defaults.keys()
        if isinstance(defaults.get("corpus"), dict):  # typed by gen-corpus's keys
            defaults = {**defaults, "corpus": cli.GEN_CORPUS_DEFAULTS}
        _assert_typed(config, defaults)
        run_dir = cli._prepare_dir(tmp_path_factory.getbasetemp() / "typed", config, kind)
        assert cli.resolve_config(kind, run_dir / "config.json") == config


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _cell_with_pid(shared, i):
    return shared * i, os.getpid()


@pytest.fixture()
def pools(monkeypatch):
    """The worker count of every process pool created; the pools still run."""
    made = []
    real = parallel.ProcessPoolExecutor

    def spy(max_workers, *args, **kwargs):
        made.append(max_workers)
        return real(max_workers, *args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", spy)
    return made


class TestSweepPool:
    SPAM_GRID = [
        "--vocab_sizes", "[8]", "--lrs", "[1e7,0.02]", "--seeds", "[0,1]", "--width", "4",
        "--steps", "60", "--seq_len", "12", "--eval_every", "30", "--warmup_steps", "0",
        "--schedule", "constant", "--optimizer", "gd",
    ]
    BOTTLENECK_GRID = [
        "[0,1]" if arg == "[0]" else arg for arg in TINY_BOTTLENECK
    ]

    @pytest.mark.parametrize("kind, args, cells", [
        ("spamlang-sweep", SPAM_GRID, 4),
        ("bottleneck-sweep", BOTTLENECK_GRID, 6),
    ])
    def test_one_and_two_workers_write_identical_files(
        self, kind, args, cells, pools, monkeypatch, tmp_path
    ):
        trees = []
        for limit in (1, 2):
            monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
            out = tmp_path / f"workers{limit}"
            assert run([kind, "--out", str(out)] + args) == 0
            trees.append(_tree(out))
        assert pools == [2]
        assert trees[0] == trees[1]
        names = {path.name for path in trees[0]}
        assert {"summary.json", "config.json"} <= names
        assert any(n.endswith(".svg") for n in names) and any(n.endswith(".csv") for n in names)
        summary = json.loads(next(b for p, b in trees[0].items() if p.name == "summary.json"))
        assert summary.get("num_cells", summary.get("num_runs")) == cells
        diverged = 2 if kind == "spamlang-sweep" else 0
        assert summary["num_diverged"] == diverged
        # a diverged cell reads back the step it failed at; an ok cell a blank
        table = "sweep.csv" if kind == "spamlang-sweep" else "bottleneck.csv"
        rows = list(csv.DictReader(
            next(b for p, b in trees[0].items() if p.name == table).decode().splitlines()
        ))
        steps = [int(row["diverged_step"]) for row in rows if row["status"] == "diverged"]
        assert len(steps) == diverged and all(0 <= step < 60 for step in steps)
        assert all(row["diverged_step"] == "" for row in rows if row["status"] == "ok")

    @pytest.mark.parametrize("cpus, pinned, env, workers", [
        (2, True, {}, 2),
        (2, True, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (8, True, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "2"}, 8),
        (3, True, {"GOTO_NUM_THREADS": "3"}, 3),
        (1, True, {}, 1),
        (2, False, {}, 1),
        (8, False, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (1, False, {}, 1),
    ])
    def test_pool_workers_are_the_usable_cpus_once_blas_is_pinned(
        self, cpus, pinned, env, workers, monkeypatch
    ):
        # the BLAS thread variables no longer count: the pin overrides them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(parallel, "_blas_pinned", pinned)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert parallel.cpu_budget() == workers

    @pytest.mark.parametrize("tasks, limit, workers", [
        (1, 4, None), (3, 1, None), (0, 2, None), (3, 2, 2), (2, 8, 2), (5, 3, 3),
    ])
    def test_worker_count(self, tasks, limit, workers, pools, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
        results = parallel._map_cells([partial(_cell_with_pid, 10, i) for i in range(tasks)])
        assert [value for value, _ in results] == [10 * i for i in range(tasks)]
        pids = {pid for _, pid in results}
        if workers is None:
            assert pools == [] and pids <= {os.getpid()}
        else:
            assert pools == [workers] and os.getpid() not in pids

    @pytest.mark.parametrize("limit, made", [(1, []), (2, [2])])
    def test_cell_error_exits_usage(self, limit, made, pools, monkeypatch, tmp_path, capsys):
        def broken(*args, **kwargs):
            raise ValueError("a cell failed on purpose")

        monkeypatch.setattr(cli, "train", broken)
        monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
        code = run(["bottleneck-sweep", "--out", str(tmp_path)] + TINY_BOTTLENECK)
        assert code == cli.EXIT_USAGE
        assert pools == made
        assert "a cell failed on purpose" in capsys.readouterr().err


    DIAGNOSE_FILES = {
        "rank_curve.csv", "rank_curve.svg", "compression.csv", "per_row_lost.csv",
        "coefficient_profile.csv", "coefficient_profile.svg", "efficiency.csv",
        "efficiency.svg", "summary.json",
    }

    def test_diagnose_one_and_two_workers_write_identical_files(
        self, trained, pools, monkeypatch
    ):
        trees = []
        for limit in (1, 2):
            monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
            assert run(_diag_args(trained, f"workers{limit}")) == 0
            trees.append(_tree(trained / f"workers{limit}"))
        # four measurements on two workers; only the run name in config.json differs
        assert pools == [2]
        names = {path.name for path in trees[0]}
        assert names == self.DIAGNOSE_FILES | {"config.json"}
        for path in trees[0]:
            if path.name != "config.json":
                assert trees[0][path] == trees[1][path], path

    def test_verify_one_and_two_workers_write_identical_files(self, pools, monkeypatch,
                                                             tmp_path):
        trees = []
        for limit in (1, 2):
            monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
            out = tmp_path / f"workers{limit}"
            assert run(["verify", "--out", str(out)] + TestVerifyCommand.TINY) == 0
            trees.append(_tree(out))
        # six checks on two workers
        assert pools == [2]
        assert {path.name for path in trees[0]} == {"config.json", "summary.json"} | {
            f"{check_id}{suffix}" for check_id in vf.CHECKS
            for suffix in (".json", "_instances.csv")}
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("limit, made", [(1, []), (2, [2])])
    def test_diagnose_cell_error_exits_usage(
        self, limit, made, trained, pools, monkeypatch, capsys
    ):
        # a zero head maps every hidden-state step to a zero logit update;
        # the first pass over the row blocks refuses it, in a pool worker at
        # limit 2
        path = trained / "train" / "checkpoint.bin"
        params = load_checkpoint(path)
        params.head.w[:] = 0.0
        save_checkpoint(path, params)
        monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
        assert run(_diag_args(trained, "zero_head")) == cli.EXIT_USAGE
        assert pools == made
        assert "hidden-state update direction has zero norm" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", [1, 2])
    @pytest.mark.parametrize("token_counts", ["[]", "[100000]"])
    def test_diagnose_without_usable_token_counts_exits_usage(
        self, token_counts, limit, trained, pools, monkeypatch, capsys
    ):
        monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
        args = _diag_args(trained, "no_sizes")
        args[args.index("[1,8,32,128]")] = token_counts
        assert run(args) == cli.EXIT_USAGE
        assert pools == []
        err = capsys.readouterr().err
        if token_counts == "[]":  # refused before the corpus is counted
            assert "token_counts must not be empty" in err
        else:
            total = corpus_mod.build_counts(corpus_mod.gen_zipf_bigram(16, 1.2, 24, 12, 4),
                                            1)[1].total
            assert "token_counts" in err and f"{total} tokens" in err


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

    def test_loss_above_step_zero_is_diverged(self, tmp_path):
        """Adam at lr=1e7 keeps every loss finite but ends far above where it
        started: the cell is diverged, at the first eval above step 0."""
        lrs = ["[1e7,0.02]" if arg == "[0.02]" else arg for arg in TINY_SPAM]
        assert run(["spamlang-sweep", "--out", str(tmp_path)] + lrs) == 0
        out = tmp_path / "spamlang"
        with open(out / "sweep.csv") as fh:
            rows = {row["lr"]: row for row in csv.DictReader(fh)}
        bad = rows["10000000.0"]
        assert (bad["status"], bad["final_loss"], bad["diverged_step"]) == ("diverged", "nan", "30")
        assert rows["0.02"]["status"] == "ok"
        assert not (out / "runs" / "v8_lr1e+07_seed0").exists()
        with open(out / "final_loss_table.csv") as fh:
            table = list(csv.DictReader(fh))
        assert table[0]["10000000.0"] == "" and table[0]["0.02"] != ""
        assert json.loads((out / "summary.json").read_text())["num_diverged"] == 1

    def test_nan_final_loss_is_diverged(self, tmp_path):
        """GD at lr=1e300 overflows the parameters in its one step, so only
        the final eval reads a (NaN) loss: the cell is diverged, not ok."""
        args = ["spamlang-sweep", "--out", str(tmp_path), "--vocab_sizes", "[16]",
                "--lrs", "[1e300]", "--seeds", "[0]", "--optimizer", "gd", "--steps", "1",
                "--warmup_steps", "0", "--schedule", "constant", "--eval_every", "1"]
        assert run(args) == 0
        with open(tmp_path / "spamlang" / "sweep.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["status"], row["final_loss"], row["diverged_step"]) == ("diverged", "nan", "1")

    def test_top1_is_read_from_the_trajectory(self, monkeypatch, tmp_path):
        """No second top-1 pass per cell: each ok row's top1_weighted is its
        trajectory's final top1_acc."""
        calls = []
        real = model.top1_accuracy

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # the cells run in this process, where the spy records
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        # the name in cli too, so a call through an imported name is seen
        monkeypatch.setattr(model, "top1_accuracy", spy)
        monkeypatch.setattr(cli, "top1_accuracy", spy, raising=False)
        grid = ["--vocab_sizes", "[8,16]", "--lrs", "[1e7,0.02]", "--seeds", "[0]",
                "--width", "4", "--steps", "60", "--seq_len", "12", "--eval_every", "30",
                "--warmup_steps", "0", "--schedule", "constant", "--optimizer", "gd"]
        assert run(["spamlang-sweep", "--out", str(tmp_path)] + grid) == 0
        assert calls == []
        out = tmp_path / "spamlang"
        with open(out / "sweep.csv") as fh:
            rows = [row for row in csv.DictReader(fh) if row["status"] == "ok"]
        assert len(rows) == 2
        for row in rows:
            label = f"v{row['vocab_size']}_lr{float(row['lr']):g}_seed{row['seed']}"
            traj = model.Trajectory.from_csv(out / "runs" / label / "trajectory.csv")
            assert float(row["top1_weighted"]) == traj.points[-1].top1_acc

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


class TestSweepGrids:
    @pytest.mark.parametrize("kind, key, value", [
        ("spamlang-sweep", "vocab_sizes", "[]"), ("spamlang-sweep", "lrs", "[]"),
        ("spamlang-sweep", "seeds", "[]"), ("spamlang-sweep", "vocab_sizes", "[8,8]"),
        ("spamlang-sweep", "lrs", "[0.02,0.02]"), ("spamlang-sweep", "seeds", "[0,1,0]"),
        ("bottleneck-sweep", "seeds", "[]"), ("bottleneck-sweep", "seeds", "[0,0]"),
        ("bottleneck-sweep", "ranks", "[2,2]"), ("bottleneck-sweep", "ranks", "[2,2,6]"),
    ])
    def test_empty_or_repeating_axis_refused_before_training(
        self, kind, key, value, monkeypatch, tmp_path, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        tiny = TINY_SPAM if kind == "spamlang-sweep" else TINY_BOTTLENECK
        assert run([kind, "--out", str(tmp_path)] + tiny + [f"--{key}", value]) == cli.EXIT_USAGE
        assert calls == []
        assert key in capsys.readouterr().err
        assert not list(tmp_path.rglob("runs"))

    @pytest.mark.parametrize("key, value, message", [
        ("vocab_sizes", "[8,1]", "vocab_sizes must be at least 2"),
        ("seq_len", "1", "seq_len must be at least 2"),
        ("seqs_per_symbol", "0", "seqs_per_symbol must be at least 1"),
        ("lrs", "[0.02,-0.01]", "lr must be nonnegative"),
    ])
    def test_spamlang_cell_refused_before_any_cell_trains(
        self, key, value, message, monkeypatch, tmp_path, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        assert run(["spamlang-sweep", "--out", str(tmp_path)] + TINY_SPAM
                   + [f"--{key}", value]) == cli.EXIT_USAGE
        assert calls == []
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("runs"))

    def test_learning_rates_that_share_a_run_directory_refused_before_training(
        self, monkeypatch, tmp_path, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        lrs = ["[0.01,0.0100000001]" if arg == "[0.02]" else arg for arg in TINY_SPAM]
        assert run(["spamlang-sweep", "--out", str(tmp_path)] + lrs) == cli.EXIT_USAGE
        assert calls == []
        err = capsys.readouterr().err
        assert "0.01 and 0.0100000001" in err and "runs/v8_lr0.01_seed0" in err
        assert not list(tmp_path.rglob("runs"))


class TestSpearman:
    @settings(settings.get_profile("deterministic"), max_examples=300)
    @given(st.lists(st.tuples(*2 * [st.one_of(st.integers(0, 3).map(float), st.floats())]),
                    max_size=12))
    def test_equals_scipy_spearmanr(self, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = float(scipy.stats.spearmanr(xs, ys).statistic)
        got = cli._spearman(xs, ys)
        assert got == want or (np.isnan(got) and np.isnan(want))

    def test_importing_the_cli_leaves_scipy_stats_unloaded(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, headlab.cli; sys.exit('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


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

    # 0.01 of 24 sequences rounds to no validation sequence
    @pytest.mark.parametrize("fraction", ["0", "0.01"])
    def test_no_validation_sequences_refused_before_training(
        self, fraction, monkeypatch, tmp_path, capsys
    ):
        calls = []
        real = cli.train

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        code = run(["bottleneck-sweep", "--out", str(tmp_path), "--val_fraction", fraction]
                   + TINY_BOTTLENECK)
        assert code == cli.EXIT_USAGE
        assert calls == []
        assert "val_fraction" in capsys.readouterr().err

    def test_empty_ranks_refused_before_training(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        args = list(TINY_BOTTLENECK)
        args[args.index("[2,6]")] = "[]"
        assert run(["bottleneck-sweep", "--out", str(tmp_path)] + args) == cli.EXIT_USAGE
        assert calls == []
        assert "ranks" in capsys.readouterr().err

    def test_sweep_after_threaded_train_equals_serial_run(self, two_cpus, monkeypatch, tmp_path):
        """A train on kernel threads, then a forked sweep in the same process:
        the sweep completes and writes the files of a fresh serial run."""
        monkeypatch.setattr(model, "BLOCK_BYTES", 4 * 8 * 24)  # several blocks per pass
        train_args = ["train", "--out", str(tmp_path / "threads"), "--width", "4",
                      "--steps", "20", "--eval_every", "10", "--corpus.vocab_size", "24",
                      "--corpus.num_seqs", "24", "--corpus.seq_len", "12",
                      "--max_context_len", "1"]
        monkeypatch.setattr(parallel, "_executor", None)
        assert run(train_args) == 0
        assert parallel._executor is not None  # the train ran on threads
        grid = TestSweepPool.BOTTLENECK_GRID
        assert run(["bottleneck-sweep", "--out", str(tmp_path / "threads")] + grid) == 0
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        assert run(["bottleneck-sweep", "--out", str(tmp_path / "serial")] + grid) == 0
        threaded = _tree(tmp_path / "threads" / "bottleneck")
        assert threaded == _tree(tmp_path / "serial" / "bottleneck")


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

    def test_sweeps_sharing_a_cell_label_keep_their_plots_apart(self, tmp_path):
        out = tmp_path / "runs"
        for name in ("a", "b"):
            assert run(["spamlang-sweep", "--out", str(out), "--name", name] + TINY_SPAM) == 0
        assert run(["report", "--out", str(tmp_path), "--run_dir", str(out)]) == 0
        plots = json.loads((tmp_path / "report" / "summary.json").read_text())["plots"]
        assert len(plots) == len(set(plots)) == 2
        assert all(Path(plot).is_file() for plot in plots)

    def test_plot_equals_the_runs_own(self, tmp_path):
        assert run(["train", "--out", str(tmp_path), "--corpus.num_seqs", "8",
                    "--corpus.seq_len", "6", "--steps", "20", "--eval_every", "5",
                    "--val_fraction", "0.25"]) == 0
        assert run(["report", "--out", str(tmp_path), "--run_dir", str(tmp_path / "train")]) == 0
        own = (tmp_path / "train" / "trajectory.svg").read_bytes()
        assert (tmp_path / "report" / "train_trajectory.svg").read_bytes() == own

    @pytest.mark.parametrize("text, problem", [
        ("step,train_loss\n0,1.5\n", "missing trajectory column(s) val_loss, top1_acc"),
        ("step,train_loss,val_loss,top1_acc\n0,1.5,,\n10,abc,,\n", "line 3: could not convert"),
        ("step,train_loss,val_loss,top1_acc\n0,1.5,,\n10\n", "line 3: float() argument"),
    ])
    def test_malformed_trajectory_exits_usage_naming_the_file(self, text, problem, tmp_path,
                                                               capsys):
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "trajectory.csv").write_text(text)
        assert run(["report", "--out", str(tmp_path), "--run_dir", str(tmp_path / "old")]
                   ) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'old' / 'trajectory.csv'}" in err and problem in err
        assert "Traceback" not in err
        assert not (tmp_path / "report" / "summary.json").exists()

    def test_blank_val_loss_before_a_filled_one_is_left_out_of_the_val_series(self, tmp_path):
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "trajectory.csv").write_text(
            "step,train_loss,val_loss,top1_acc\n0,1.5,,0.25\n10,0.75,0.8,0.5\n")
        assert run(["report", "--out", str(tmp_path), "--run_dir", str(tmp_path / "old")]) == 0
        plot = (tmp_path / "report" / "old_trajectory.svg").read_text()
        train, val = re.findall(r'<polyline points="([^"]*)"', plot)
        assert len(train.split()) == 2 and len(val.split()) == 1
        assert ">val</text>" in plot

    def test_trajectory_with_an_extra_column_gets_its_plot(self, tmp_path):
        (tmp_path / "new").mkdir()
        (tmp_path / "new" / "trajectory.csv").write_text(
            "step,train_loss,val_loss,top1_acc,lr\n0,1.5,1.6,0.25,0.01\n10,0.75,0.8,0.5,0.01\n")
        assert run(["report", "--out", str(tmp_path), "--run_dir", str(tmp_path / "new")]) == 0
        assert (tmp_path / "report" / "new_trajectory.svg").is_file()


class TestArgHandling:
    def test_unknown_command_is_usage_error(self, tmp_path):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_command_is_usage_error(self):
        assert run([]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("kind", sorted(cli.COMMANDS))
    def test_subcommand_help_lists_its_default_config(self, kind, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            run([kind, "--help"])
        assert exited.value.code == 0
        out = capsys.readouterr().out
        for key, value in cli._DEFAULTS[kind].items():
            assert f"--{key} {json.dumps(value)}" in out

    def test_help_exits_zero_from_the_command_line(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-m", "headlab", "train", "-h"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "--steps 1000" in done.stdout
        assert list(tmp_path.iterdir()) == []

    def test_runner_returns_its_summary_and_main_writes_it(self, tmp_path):
        args = ["--num_seqs", "4", "--seq_len", "5"]
        config = cli.resolve_config("gen-corpus", overrides={"num_seqs": 4, "seq_len": 5})
        run_dir = cli._prepare_dir(tmp_path, config, "gen-corpus")
        summary = cli.run_gen_corpus(config, run_dir)
        assert not (run_dir / "summary.json").exists()
        assert run(["gen-corpus", "--out", str(tmp_path)] + args) == 0
        assert json.loads((run_dir / "summary.json").read_text()) == summary

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

    @pytest.mark.parametrize("name", ["../escaped", "absolute", "a/b", "..", ".", ""])
    def test_name_must_be_one_path_component(self, name, tmp_path, capsys):
        if name == "absolute":
            name = str(tmp_path / "elsewhere")
        out = tmp_path / "out"
        assert run(["gen-corpus", "--out", str(out), "--name", name,
                    "--num_seqs", "4", "--seq_len", "5"]) == cli.EXIT_USAGE
        assert "name" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        assert run(["train", "--out", str(tmp_path), "--widht", "4", "--steps", "2"]) == 1
        assert "widht" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_seqs": 4, "seq_lenn": 5}))
        assert run(["gen-corpus", "--out", str(tmp_path), "--config", str(cfg)]) == 1
        assert "seq_lenn" in capsys.readouterr().err

    def test_unknown_corpus_key_is_usage_error(self, tmp_path, capsys):
        args = ["train", "--out", str(tmp_path), "--steps", "2", "--corpus.num_seqs", "4",
                "--corpus.seq_len", "5", "--corpus.vocab_sze", "10"]
        assert run(args) == cli.EXIT_USAGE
        assert "vocab_sze" in capsys.readouterr().err
        assert not (tmp_path / "train" / "summary.json").exists()

    @pytest.mark.parametrize("args, key", [
        (["--corpus.vocab_size", "10", "--corpus", "corpus.txt"], "'corpus'"),
        (["--corpus", "corpus.txt", "--corpus.vocab_size", "10"], "'corpus.vocab_size'"),
    ])
    def test_corpus_path_and_corpus_flags_refused_together(self, args, key, tmp_path,
                                                           capsys):
        assert run(["train", "--out", str(tmp_path / "out"), "--steps", "2"] + args) == 1
        assert f"error: override {key} conflicts with" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corpus_flags_refused_over_a_config_files_corpus_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": "corpus.txt"}))
        assert run(["train", "--out", str(tmp_path / "out"), "--config", str(cfg),
                    "--corpus.vocab_size", "10"]) == 1
        assert "error: corpus.* keys conflict with corpus 'corpus.txt'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_sidecar_is_accepted_as_config(self, tmp_path):
        assert run(["gen-corpus", "--out", str(tmp_path / "a"), "--num_seqs", "4",
                    "--seq_len", "5", "--stats_prefix_sizes", "[]"]) == 0
        sidecar = tmp_path / "a" / "corpus" / "config.json"
        assert run(["gen-corpus", "--out", str(tmp_path / "b"), "--config", str(sidecar)]) == 0
        a = (tmp_path / "a" / "corpus" / "corpus.txt").read_bytes()
        assert a == (tmp_path / "b" / "corpus" / "corpus.txt").read_bytes()
        assert run(["train", "--out", str(tmp_path / "c"), "--config", str(sidecar)]) == 1

    @pytest.mark.parametrize("kind", ["train", "spamlang-sweep", "bottleneck-sweep"])
    def test_sidecar_naming_removed_keys_refused_naming_them_all(self, kind, tmp_path, capsys):
        """A sidecar written while Adam's constants, the init scale and the
        full-head baseline were config keys is refused, each key named."""
        removed = {"adam_beta1": 0.9, "adam_beta2": 0.95, "adam_eps": 1e-8, "init_scale": 1.0}
        if kind == "bottleneck-sweep":
            removed["include_full_baseline"] = True
        sidecar = tmp_path / "config.json"
        sidecar.write_text(json.dumps({**cli.resolve_config(kind), **removed, "experiment": kind}))
        assert run([kind, "--out", str(tmp_path / "out"), "--config", str(sidecar)]
                   ) == cli.EXIT_USAGE
        assert f"error: unknown config key(s): {', '.join(sorted(removed))}\n" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestDenseSizeGuard:
    """With room for the model's matrices and the V x V ones but for no
    dense C x V matrix of its corpus, `train` and `diagnose` still run on
    their row blocks; the paths that form one exit 1 before allocating."""

    @pytest.fixture(autouse=True)
    def tiny_limit(self, monkeypatch):
        # the `streamed` model: 124 x 4 rows (3968 bytes) and a 16 x 4 head;
        # the 16 x 16 Zipf table and Gram matrix take 2048 bytes, and its
        # 124 x 16 count matrix 15872
        monkeypatch.setattr(corpus_mod, "MAX_DENSE_BYTES", 4096)

    CORPUS = ["--corpus.kind", "zipf", "--corpus.vocab_size", "16", "--corpus.num_seqs", "24",
              "--corpus.seq_len", "12", "--corpus.seed", "4", "--max_context_len", "2"]

    @pytest.fixture()
    def streamed(self, tiny_limit, tmp_path):
        """A run root whose train/ checkpoint, trained under the limit, has
        more contexts (124, at two tokens of context) than tokens (16)."""
        out = tmp_path / "runs"
        assert run(["train", "--out", str(out), "--width", "4", "--steps", "60", "--lr", "0.02",
                    "--eval_every", "20", *self.CORPUS]) == 0
        return out

    def _diag_args(self, out, name):
        return ["diagnose", "--out", str(out), "--name", name,
                "--checkpoint", str(out / "train" / "checkpoint.bin"), *self.CORPUS,
                "--token_counts", "[1,8,32,128]"]

    def test_train_and_diagnose_stream(self, streamed):
        assert run(self._diag_args(streamed, "streamed")) == 0
        assert (streamed / "streamed" / "summary.json").exists()

    def test_model_over_the_limit_exits_usage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(corpus_mod, "MAX_DENSE_BYTES", 64)
        args = ["train", "--out", str(tmp_path), "--width", "4", "--steps", "2",
                "--corpus.kind", "spamlang", "--corpus.vocab_size", "16",
                "--corpus.num_seqs", "24", "--corpus.seq_len", "12", "--max_context_len", "1"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "the model's context rows (contexts x width): " in err and " x 4 exceed 64 bytes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "train" / "summary.json").exists()

    def test_gram_matrix_of_the_gap_exits_usage(self, tmp_path, monkeypatch, capsys):
        # a spamlang corpus draws no table, and its model fits: the 16 x 16
        # Gram matrix (2048 bytes) is the first matrix over the limit
        monkeypatch.setattr(corpus_mod, "MAX_DENSE_BYTES", 1024)
        spamlang = ["--corpus.kind", "spamlang", "--corpus.vocab_size", "16",
                    "--corpus.num_seqs", "24", "--corpus.seq_len", "12", "--max_context_len", "1"]
        assert run(["train", "--out", str(tmp_path), "--width", "4", "--steps", "5",
                    *spamlang]) == 0
        assert run(["diagnose", "--out", str(tmp_path), "--token_counts", "[1,8]",
                    "--checkpoint", str(tmp_path / "train" / "checkpoint.bin"), *spamlang]) == 1
        err = capsys.readouterr().err
        assert ("error: the Eckart-Young gap's Gram matrix (tokens x tokens): 16 x 16 exceed "
                "1024 bytes") in err
        assert "Traceback" not in err
        assert not (tmp_path / "diagnose" / "summary.json").exists()

    def test_to_dense_exits_usage(self, tmp_path, monkeypatch, capsys):
        # room for batch_rank_floor's 32 x 32 Zipf table (the first check's
        # first matrix), not for the dense count matrices of its batches
        monkeypatch.setattr(corpus_mod, "MAX_DENSE_BYTES", 8 * 32 * 32)
        assert run(["verify", "--out", str(tmp_path)] + TestVerifyCommand.TINY) == 1
        assert "the dense count matrix" in capsys.readouterr().err
        assert not (tmp_path / "verify" / "summary.json").exists()

    def test_svd_fallback_of_the_gap_exits_usage(self, streamed, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "_GRAM_TAIL_FLOOR", 1.0)  # every tail takes the fallback
        assert run(self._diag_args(streamed, "fallback")) == 1
        assert "SVD fallback" in capsys.readouterr().err
        assert not (streamed / "fallback" / "summary.json").exists()
