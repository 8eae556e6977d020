"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The trend criteria train real models
through the sweep runners, so this module takes several minutes of CPU.
"""

import csv
import json
import time

import numpy as np
import pytest
import scipy.stats

from headlab import cli
from headlab import corpus as cp
from headlab import diagnostics as dg
from headlab import linalg
from headlab import model as md
from headlab import verify as vf
from reference import logit_gradient, logit_state, lost_norm_fraction


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fun()
        x[idx] = orig - h
        fm = fun()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


def random_counts(rng, c, v):
    n = rng.integers(0, 5, size=(c, v))
    for i in np.flatnonzero(n.sum(axis=1) == 0):
        n[i, rng.integers(v)] = 1
    return cp.CountMatrix.from_counts(n)


def run_cli(args):
    assert cli.main(args) == 0


# ---------------------------------------------------------------------------
# shared trained models


@pytest.fixture(scope="module")
def efficiency_checkpoints():
    """Ten far-from-convergence checkpoints of width-8 models on V=512."""
    corpus = cp.gen_zipf_bigram(512, 1.2, 512, 64, seed=88)
    _, counts = cp.build_counts(corpus, 1)
    snapshots = []
    for seed in (0, 1):
        cfg = md.TrainConfig(
            steps=500, lr=1e-2, width=8, optimizer="adam", schedule="cosine",
            warmup_steps=50, eval_every=250, seed=seed,
        )
        result = md.train(counts, cfg, snapshot_steps=[50, 100, 200, 350, 500])
        snapshots.extend(result.snapshots)
    return counts, snapshots


@pytest.fixture(scope="module")
def trained_wide_model():
    """A width-16 model trained on a V=1024 Markov corpus."""
    corpus = cp.gen_zipf_bigram(1024, 1.2, 512, 64, seed=77)
    _, counts = cp.build_counts(corpus, 1)
    cfg = md.TrainConfig(
        steps=400, lr=1e-2, width=16, optimizer="adam", schedule="cosine",
        warmup_steps=40, eval_every=200, seed=0,
    )
    return counts, md.train(counts, cfg).params


@pytest.fixture(scope="module")
def spamlang_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("spamlang")
    config = cli.resolve_config("spamlang-sweep")
    run_dir = cli._prepare_dir(out, config, "spamlang-sweep")
    summary = cli.run_spamlang_sweep(config, run_dir)
    return config, run_dir, summary


@pytest.fixture(scope="module")
def bottleneck_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("bottleneck")
    config = cli.resolve_config("bottleneck-sweep")
    run_dir = cli._prepare_dir(out, config, "bottleneck-sweep")
    started = time.monotonic()
    summary = cli.run_bottleneck_sweep(config, run_dir)
    return config, run_dir, summary, time.monotonic() - started


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    worst = 0.0
    for trial in range(50):
        c = int(rng.integers(1, 11))
        v = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        r = int(rng.integers(1, min(d, 3) + 1)) if trial % 2 else None
        counts = random_counts(rng, c, v)
        params = md.init_params(c, v, d, head_rank=r, rng=rng)

        lm = md.logits(params)
        p, _ = md.probs_and_loss(counts, lm)
        fd_l = fd_gradient(lambda: md.loss_from_logits(counts, lm), lm)
        worst = max(worst, rel_err(logit_gradient(counts, p), fd_l))

        grads = md.param_gradients(counts, params)
        worst = max(worst, rel_err(grads.h, fd_gradient(lambda: md.loss(counts, params), params.h)))
        if r is None:
            worst = max(
                worst, rel_err(grads.w, fd_gradient(lambda: md.loss(counts, params), params.head.w))
            )
        else:
            worst = max(
                worst, rel_err(grads.a, fd_gradient(lambda: md.loss(counts, params), params.head.a))
            )
            worst = max(
                worst, rel_err(grads.b, fd_gradient(lambda: md.loss(counts, params), params.head.b))
            )
    elapsed = time.monotonic() - started
    report(
        "criterion 1: gradients match central finite differences",
        worst < 1e-5 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_loss_floor():
    started = time.monotonic()
    res = vf.verify_loss_floor(trials=1000, seed=0)
    elapsed = time.monotonic() - started
    report(
        "criterion 2: loss floor holds with tight equality branch",
        res.violations == 0 and elapsed < 10.0,
        f"{res.instances_tested} trials, worst margin {res.worst_margin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_logit_rank_caps():
    res = vf.verify_logit_rank_caps(trials=500, seed=0)
    report(
        "criterion 3: logit and log-prob rank caps",
        res.violations == 0,
        f"{res.instances_tested} trials",
    )


def test_criterion_04_top1_construction():
    started = time.monotonic()
    res = vf.verify_top1_reachability(instances=20, dims=(64, 256), epsilon=1e-3, seed=0)
    # pin the extreme corner explicitly: C = 64, V = 256
    rng = np.random.default_rng(7)
    n = rng.integers(0, 4, size=(64, 256))
    for i in np.flatnonzero(n.sum(axis=1) == 0):
        n[i, rng.integers(256)] = 1
    n[0] = 0
    n[0, 17] = 9  # a one-hot row pushes the target probability to 1
    counts = cp.CountMatrix.from_counts(n)
    params = vf.construct_top1(counts, epsilon=1e-3)
    probs = linalg.softmax_rows(md.logits(params))
    normalized = counts.to_dense(normalized=True)
    targets = normalized.argmax(axis=1)
    idx = np.arange(64)
    corner_dev = float(np.abs(probs[idx, targets] - normalized[idx, targets]).max())
    elapsed = time.monotonic() - started
    report(
        "criterion 4: width-2 top-1 construction at epsilon 1e-3",
        res.violations == 0 and corner_dev < 1e-3 and elapsed < 30.0,
        f"corner dev {corner_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_error_rank_floor():
    res = vf.verify_error_rank_floor(instances=200, seed=0, v_max=32)
    svd_ok = all(d["rank_svd"] >= d["bound"] for d in res.details)
    report(
        "criterion 5: prediction-error rank floor with SVD cross-check",
        res.violations == 0 and svd_ok,
        f"{res.instances_tested} planted instances",
    )


def test_criterion_06_update_residual_gap():
    res = vf.verify_update_residual_gap(instances=100, seed=0)
    strict = min(
        min(d["excess_raw"] for d in res.details),
        min(d["excess_weighted"] for d in res.details),
    )
    report(
        "criterion 6: rank-capped update strictly misses the error matrix",
        res.violations == 0 and strict > 0,
        f"100 instances, smallest strict excess {strict:.3e}",
    )


def test_criterion_07_batch_rank_floor():
    res = vf.batch_rank_floor_suite(
        n_instances=50, vocab_size=32, batch_fraction=0.25, seed=0, assert_delta=1e-3
    )
    report(
        "criterion 7: in-batch rank floor on connected instances",
        res.violations == 0 and res.instances_tested == 50,
        f"50 instances, {res.skipped} draws skipped for the precondition",
    )


def test_criterion_08_compression_magnitude(trained_wide_model):
    rng = np.random.default_rng(314)
    v, d = 1024, 16
    fractions, cosines = [], []
    for _ in range(20):
        g = rng.standard_normal((256, v))
        head = md.FullHead(rng.standard_normal((v, d)))
        fractions.append(lost_norm_fraction(g, head))
        cosines.append(dg.kernel_cosine(g, head)[0])
    lost_mean = float(np.mean(fractions))
    cos_mean = float(np.mean(cosines))
    lost_target = float(np.sqrt(1 - d / v))
    cos_target = float(np.sqrt(d / v))

    counts, params = trained_wide_model
    trained_report = dg.compression_report(logit_state(counts, params)[3], params.head)

    ok = (
        abs(lost_mean - lost_target) < 0.01
        and abs(cos_mean - cos_target) < 0.02
        and trained_report.lost_fraction >= 0.8
    )
    report(
        "criterion 8: kernel compression magnitude",
        ok,
        f"isotropic lost {lost_mean:.4f} (target {lost_target:.4f}), "
        f"cosine {cos_mean:.4f} (target {cos_target:.4f}), "
        f"trained lost {trained_report.lost_fraction:.4f}",
    )


def test_criterion_09_update_efficiency(efficiency_checkpoints):
    counts, snapshots = efficiency_checkpoints
    alphas = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
    good = 0
    worst = np.inf
    for _, params in snapshots:
        curve = dg.update_efficiency(counts, params, dg.gradient_pass(counts, params), alphas)
        margin = min(d2 - d1 for d1, d2 in zip(curve.delta_logit, curve.delta_hidden))
        worst = min(worst, margin)
        good += margin >= 0
    report(
        "criterion 9: logit-gradient direction dominates at every step size",
        good == len(snapshots) == 10,
        f"{good}/10 checkpoints, worst margin {worst:.4f}",
    )


def test_criterion_10_spamlang_trend(spamlang_sweep):
    config, run_dir, summary = spamlang_sweep
    with open(run_dir / "best_per_cell.csv") as fh:
        best = list(csv.DictReader(fh))
    pairs = [(int(row["vocab_size"]), float(row["final_loss"])) for row in best]
    rho = float(
        scipy.stats.spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic
    )
    v16 = [float(row["final_loss"]) for row in best if row["vocab_size"] == "16"]
    ok = (
        rho >= 0.8
        and len(v16) == len(config["seeds"])
        and all(loss < 0.05 for loss in v16)
        and summary["num_diverged"] == 0
    )
    report(
        "criterion 10: loss grows with vocabulary at the best learning rate",
        ok,
        f"spearman {rho:.3f}, V=16 best losses {[round(x, 4) for x in v16]}",
    )


def test_criterion_11_bottleneck_trend(bottleneck_sweep):
    config, run_dir, summary, elapsed = bottleneck_sweep
    rho = summary["spearman_valloss_vs_rank"]
    ok = rho <= -0.8 and elapsed < 900.0 and summary["num_diverged"] == 0
    detail = f"spearman {rho:.3f}, {elapsed:.0f}s"
    if summary["speedup_ratio_mean"]:
        detail += f", convergence speedup x{summary['speedup_ratio_mean']:.1f}"
    report("criterion 11: validation loss falls with head rank", ok, detail)


def test_criterion_12_determinism(tmp_path):
    spam_args = [
        "spamlang-sweep", "--vocab_sizes", "[16]", "--lrs", "[0.003,0.01]",
        "--seeds", "[0]", "--steps", "120", "--eval_every", "60", "--warmup_steps", "12",
    ]
    bottleneck_args = [
        "bottleneck-sweep", "--vocab_size", "64", "--width", "8", "--ranks", "[2,8]",
        "--seeds", "[0]", "--num_seqs", "64", "--seq_len", "24", "--steps", "120",
        "--eval_every", "60", "--warmup_steps", "12",
    ]
    train_args = [
        "train", "--corpus.kind", "zipf", "--corpus.vocab_size", "32",
        "--corpus.num_seqs", "40", "--corpus.seq_len", "20", "--corpus.seed", "9",
        "--max_context_len", "1", "--width", "6", "--steps", "150", "--lr", "0.01",
        "--eval_every", "50", "--val_fraction", "0.2", "--batch_sequences", "8",
    ]
    verify_args = [
        "verify", "--loss_floor.trials", "60", "--logit_rank_caps.trials", "40",
        "--top1_reachability.instances", "4", "--error_rank_floor.instances", "20",
        "--batch_rank_floor.n_instances", "6", "--update_residual_gap.instances", "12",
    ]
    compared = 0
    for args in (spam_args, bottleneck_args, train_args, verify_args):
        a = tmp_path / f"a{args[0]}"
        b = tmp_path / f"b{args[0]}"
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        csvs_a = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
        csvs_b = sorted(p.relative_to(b) for p in b.rglob("*.csv"))
        assert csvs_a and csvs_a == csvs_b
        for rel in csvs_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
            compared += 1
    report(
        "criterion 12: identical configs reproduce bit-identical CSVs",
        compared > 0,
        f"{compared} CSV files compared across 4 experiment kinds",
    )
