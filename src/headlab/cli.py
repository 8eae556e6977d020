"""Configuration-driven experiment runner.

Subcommands: gen-corpus, train, diagnose, verify, spamlang-sweep,
bottleneck-sweep, report. Each experiment reads a JSON config (defaults are
built in), applies dotted-key command-line overrides, writes its outputs into
one directory under the output root, and drops a `config.json` sidecar with
the fully resolved configuration so every artifact is reproducible from its
own metadata.

Exit codes: 0 success, 1 usage/config error, 2 verification violation,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy.stats

from . import corpus as corpus_mod
from . import diagnostics, svg, verify
from .corpus import (
    ContextOverflowError,
    CorpusFormatError,
    build_counts,
    counts_for_table,
    load_corpus,
    save_corpus,
)
from .linalg import SvdConvergenceError
from .model import (
    CheckpointError,
    Dataset,
    TrainConfig,
    TrainingDivergedError,
    entropy_floor,
    load_checkpoint,
    logit_gradient,
    logits,
    probs_and_loss,
    save_checkpoint,
    top1_accuracy,
    train,
)

OUTPUT_ROOT_ENV = "HEADLAB_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad command line or configuration."""


GEN_CORPUS_DEFAULTS = {
    "name": "corpus",
    "kind": "zipf",  # "spamlang" | "zipf"
    "vocab_size": 64,
    "num_seqs": 256,
    "seq_len": 64,
    "exponent": 1.2,
    "seed": 0,
    "stats_prefix_sizes": [1, 2, 4, 8, 16],
}

TRAIN_DEFAULTS = {
    "name": "train",
    "corpus": {"kind": "zipf", "vocab_size": 64, "num_seqs": 128, "seq_len": 64,
               "exponent": 1.2, "seed": 0},
    "max_context_len": 16,
    "val_fraction": 0.0,
    "width": 8,
    "head_rank": None,
    "steps": 1000,
    "lr": 1e-2,
    "optimizer": "adam",
    "adam_beta1": 0.9,
    "adam_beta2": 0.95,
    "adam_eps": 1e-8,
    "schedule": "constant",
    "warmup_steps": 0,
    "batch_sequences": None,
    "seed": 0,
    "init_scale": 1.0,
    "eval_every": 50,
    "snapshot_steps": [],
    "update_h": True,
    "update_head": True,
}

DIAGNOSE_DEFAULTS = {
    "name": "diagnose",
    "checkpoint": None,
    "corpus": None,
    "max_context_len": 16,
    "token_counts": [1, 4, 16, 64, 256, 1024],
    "fractions": [1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
    "seed": 0,
}

VERIFY_DEFAULTS = {
    "name": "verify",
    "seed": 0,
    "rank_tol": 1e-6,
    "loss_floor": {"trials": 1000},
    "logit_rank_caps": {"trials": 500},
    "top1_reachability": {"instances": 20, "epsilon": 1e-3},
    "error_rank_floor": {"instances": 200},
    "batch_rank_floor": {"n_instances": 50},
    "update_residual_gap": {"instances": 100},
}

SPAMLANG_DEFAULTS = {
    "name": "spamlang",
    "vocab_sizes": [16, 64, 256, 1024],
    "lrs": [1e-3, 3e-3, 1e-2, 3e-2],
    "seeds": [0, 1, 2],
    "width": 8,
    "steps": 1500,
    "seq_len": 64,
    "seqs_per_symbol": 4,
    "max_context_len": 1,
    "optimizer": "adam",
    "adam_beta1": 0.9,
    "adam_beta2": 0.95,
    "adam_eps": 1e-8,
    "schedule": "cosine",
    "warmup_steps": 150,
    "eval_every": 250,
    "init_scale": 1.0,
    "update_h": True,
    "update_head": True,
}

# Desk-scale regime note: runs stay far from convergence (web-scale corpora
# are approximated by ~6e4 tokens and a few hundred steps); at much larger
# step counts every head rank memorizes the sparse empirical counts and the
# validation ordering collapses.
BOTTLENECK_DEFAULTS = {
    "name": "bottleneck",
    "vocab_size": 512,
    "width": 32,
    "ranks": [2, 4, 8, 16, 32],
    "seeds": [0, 1, 2],
    "corpus_seed": 123,
    "exponent": 1.2,
    "num_seqs": 1024,
    "seq_len": 64,
    "val_fraction": 0.125,
    "max_context_len": 1,
    "steps": 500,
    "lr": 3e-3,
    "optimizer": "adam",
    "adam_beta1": 0.9,
    "adam_beta2": 0.95,
    "adam_eps": 1e-8,
    "schedule": "cosine",
    "warmup_steps": 50,
    "eval_every": 100,
    "init_scale": 1.0,
    "update_h": True,
    "update_head": True,
    "include_full_baseline": True,
}

REPORT_DEFAULTS = {
    "name": "report",
    "run_dir": None,
}

_DEFAULTS = {
    "gen-corpus": GEN_CORPUS_DEFAULTS,
    "train": TRAIN_DEFAULTS,
    "diagnose": DIAGNOSE_DEFAULTS,
    "verify": VERIFY_DEFAULTS,
    "spamlang-sweep": SPAMLANG_DEFAULTS,
    "bottleneck-sweep": BOTTLENECK_DEFAULTS,
    "report": REPORT_DEFAULTS,
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_overrides(tokens) -> dict:
    """Turn ["--a.b", "1", "--c", "[2,3]"] into nested config overrides."""
    out: dict = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise UsageError(f"expected a --dotted.key flag, got {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, raw = key.split("=", 1)
        else:
            if i + 1 >= len(tokens):
                raise UsageError(f"flag {tok!r} is missing a value")
            raw = tokens[i + 1]
            i += 1
        i += 1
        if not key:
            raise UsageError(f"empty key in override {tok!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"override {key!r} conflicts with a scalar")
        node[parts[-1]] = value
    return out


def _check_keys(kind: str, extra: dict, source: str) -> None:
    """Refuse top-level keys the experiment does not define."""
    unknown = sorted(set(extra) - set(_DEFAULTS[kind]))
    if unknown:
        raise UsageError(f"unknown {kind} config key(s) in {source}: {', '.join(unknown)}")


def resolve_config(kind: str, config_path=None, overrides=None) -> dict:
    """Defaults, then the config file, then the overrides; unknown top-level
    keys are refused (a run's own config.json sidecar is accepted back)."""
    if kind not in _DEFAULTS:
        raise UsageError(f"unknown experiment kind {kind!r}")
    config = copy.deepcopy(_DEFAULTS[kind])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        if file_cfg.pop("experiment", kind) != kind:
            raise UsageError(f"config file {config_path} is not a {kind} config")
        _check_keys(kind, file_cfg, f"config file {config_path}")
        config = _deep_merge(config, file_cfg)
    if overrides:
        _check_keys(kind, overrides, "the command line")
        config = _deep_merge(config, overrides)
    return config


def _out_root(explicit=None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path("headlab_runs")


def _prepare_dir(out_root: Path, config: dict, kind: str) -> Path:
    run_dir = out_root / str(config.get("name") or kind)
    run_dir.mkdir(parents=True, exist_ok=True)
    sidecar = dict(config)
    sidecar["experiment"] = kind
    with open(run_dir / "config.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_dir


def _make_corpus(spec, default_seed=0):
    """A corpus from either a file path or an inline generator block."""
    if spec is None:
        raise UsageError("a corpus path or generator block is required")
    if isinstance(spec, str):
        return load_corpus(spec)
    if not isinstance(spec, dict):
        raise UsageError("corpus must be a path or a generator object")
    kind = spec.get("kind", "zipf")
    vocab_size = int(spec.get("vocab_size", 64))
    num_seqs = int(spec.get("num_seqs", 256))
    seq_len = int(spec.get("seq_len", 64))
    seed = int(spec.get("seed", default_seed))
    if kind == "spamlang":
        return corpus_mod.gen_spamlang(vocab_size, num_seqs, seq_len, seed)
    if kind == "zipf":
        exponent = float(spec.get("exponent", 1.2))
        return corpus_mod.gen_zipf_bigram(vocab_size, exponent, num_seqs, seq_len, seed)
    raise UsageError(f"unknown corpus kind {kind!r}")


def _split_corpus(corpus, val_fraction: float):
    """Deterministic train/validation split: the trailing sequences validate."""
    if not 0 <= val_fraction < 1:
        raise UsageError("val_fraction must lie in [0, 1)")
    n = len(corpus.sequences)
    n_val = int(round(val_fraction * n))
    if n_val == 0:
        return corpus, None
    if n - n_val < 1:
        raise UsageError("val_fraction leaves no training sequences")
    train_part = corpus_mod.Corpus(
        corpus.vocab_size, [s.copy() for s in corpus.sequences[: n - n_val]], corpus.seed
    )
    val_part = corpus_mod.Corpus(
        corpus.vocab_size, [s.copy() for s in corpus.sequences[n - n_val :]], corpus.seed
    )
    return train_part, val_part


def _train_config(cfg: dict) -> TrainConfig:
    head_rank = cfg.get("head_rank")
    return TrainConfig(
        steps=int(cfg["steps"]),
        lr=float(cfg["lr"]),
        width=int(cfg["width"]),
        head_rank=None if head_rank in (None, 0, "full") else int(head_rank),
        optimizer=str(cfg.get("optimizer", "adam")),
        adam_beta1=float(cfg.get("adam_beta1", 0.9)),
        adam_beta2=float(cfg.get("adam_beta2", 0.95)),
        adam_eps=float(cfg.get("adam_eps", 1e-8)),
        schedule=str(cfg.get("schedule", "constant")),
        warmup_steps=int(cfg.get("warmup_steps", 0)),
        batch_sequences=(
            None if cfg.get("batch_sequences") in (None, 0) else int(cfg["batch_sequences"])
        ),
        seed=int(cfg.get("seed", 0)),
        init_scale=float(cfg.get("init_scale", 1.0)),
        eval_every=int(cfg.get("eval_every", 50)),
        update_h=bool(cfg.get("update_h", True)),
        update_head=bool(cfg.get("update_head", True)),
    )


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trajectory_svg(path, trajectory, title: str) -> None:
    steps = [p.step for p in trajectory.points]
    losses = [p.train_loss for p in trajectory.points]
    series = [("train", steps, losses)]
    if trajectory.points and trajectory.points[-1].val_loss is not None:
        series.append(("val", steps, [p.val_loss for p in trajectory.points]))
    svg.line_plot(path, series, title=title, xlabel="step", ylabel="loss")


# --------------------------------------------------------------------------
# subcommands


def run_gen_corpus(config: dict, run_dir: Path) -> dict:
    corpus = _make_corpus(
        {k: config[k] for k in ("kind", "vocab_size", "num_seqs", "seq_len", "exponent", "seed")}
    )
    corpus_path = run_dir / "corpus.txt"
    save_corpus(corpus_path, corpus)
    table, counts = build_counts(corpus, max_context_len=corpus_mod.DEFAULT_CONTEXT_LEN)
    stats = corpus_mod.assumption_stats(
        corpus, table, counts, prefix_sizes=config["stats_prefix_sizes"]
    )
    corpus_mod.write_stats_csv(run_dir / "stats.csv", stats)
    summary = {
        "corpus": str(corpus_path),
        "num_sequences": len(corpus.sequences),
        "num_tokens": corpus.num_tokens,
        "num_contexts": counts.num_contexts,
        "unique_context_count": stats.unique_context_count,
        "unique_next_token_count": stats.unique_next_token_count,
    }
    _write_json(run_dir / "summary.json", summary)
    return summary


def run_train(config: dict, run_dir: Path) -> dict:
    corpus = _make_corpus(config["corpus"], default_seed=config.get("seed", 0))
    train_part, val_part = _split_corpus(corpus, float(config.get("val_fraction", 0.0)))
    mcl = int(config["max_context_len"])
    table, counts = build_counts(train_part, mcl)
    val_counts = None
    skipped = 0
    if val_part is not None:
        val_counts, skipped = counts_for_table(val_part, table, mcl)
    tc = _train_config(config)
    data = Dataset(train_part, table, counts, mcl) if tc.batch_sequences else counts
    result = train(
        data, tc, val_counts=val_counts, snapshot_steps=config.get("snapshot_steps", ())
    )
    save_checkpoint(run_dir / "checkpoint.bin", result.params)
    result.trajectory.to_csv(run_dir / "trajectory.csv")
    for step, snap in result.snapshots:
        save_checkpoint(run_dir / f"checkpoint_step{step}.bin", snap)
    _trajectory_svg(run_dir / "trajectory.svg", result.trajectory, config["name"])
    summary = {
        "final_train_loss": result.trajectory.final_train_loss,
        "final_val_loss": result.trajectory.final_val_loss,
        "entropy_floor": entropy_floor(counts),
        "num_contexts": counts.num_contexts,
        "val_tokens_skipped": skipped,
        "checkpoint": str(run_dir / "checkpoint.bin"),
    }
    _write_json(run_dir / "summary.json", summary)
    return summary


def run_diagnose(config: dict, run_dir: Path) -> dict:
    if not config.get("checkpoint"):
        raise UsageError("diagnose needs a checkpoint path")
    params = load_checkpoint(config["checkpoint"])
    corpus = _make_corpus(config["corpus"])
    table, counts = build_counts(corpus, int(config["max_context_len"]))
    if params.h.shape[0] != counts.num_contexts or params.vocab_size != counts.vocab_size:
        raise CheckpointError(
            f"checkpoint dimensions (C={params.h.shape[0]}, V={params.vocab_size}) do not "
            f"match the corpus counts (C={counts.num_contexts}, V={counts.vocab_size})"
        )
    seed = int(config.get("seed", 0))

    sizes = [int(k) for k in config["token_counts"] if int(k) <= counts.total]
    curve = diagnostics.gradient_rank_curve(counts, params, sizes, seed=seed)
    curve.to_csv(run_dir / "rank_curve.csv")
    svg.line_plot(
        run_dir / "rank_curve.svg",
        [
            ("rank", [p[0] for p in curve.points], [p[1] for p in curve.points]),
            ("max", [p[0] for p in curve.points], [p[2] for p in curve.points]),
        ],
        title="per-token gradient rank",
        xlabel="tokens",
        ylabel="rank",
        logx=True,
    )

    report = diagnostics.compression_report(counts, params)
    report.to_csv(run_dir / "compression.csv")
    report.per_row_to_csv(run_dir / "per_row_lost.csv")

    p, _ = probs_and_loss(counts, logits(params))
    g = logit_gradient(counts, p)
    from .linalg import kernel_basis, project_rows_onto_span

    lost = project_rows_onto_span(g, kernel_basis(params.head.matrix))
    profile = diagnostics.coefficient_profile(g, lost)
    profile.to_csv(run_dir / "coefficient_profile.csv")
    positions = list(range(1, len(profile.full_mean) + 1))
    svg.line_plot(
        run_dir / "coefficient_profile.svg",
        [
            ("full mean", positions, profile.full_mean.tolist()),
            ("projected mean", positions, profile.proj_mean.tolist()),
            ("full std", positions, profile.full_std.tolist()),
            ("projected std", positions, profile.proj_std.tolist()),
        ],
        title="sorted logit-gradient coefficients",
        xlabel="position",
        ylabel="coefficient",
        logx=True,
    )

    curve_eff = diagnostics.update_efficiency(counts, params, config["fractions"])
    curve_eff.to_csv(run_dir / "efficiency.csv")
    svg.line_plot(
        run_dir / "efficiency.svg",
        [
            ("logit direction", curve_eff.fractions, curve_eff.delta_logit),
            ("hidden direction", curve_eff.fractions, curve_eff.delta_hidden),
        ],
        title="update-direction efficiency",
        xlabel="norm fraction",
        ylabel="loss change",
        logx=True,
    )

    summary = {
        "lost_fraction": report.lost_fraction,
        "cosine_mean": report.cosine_mean,
        "cosine_std": report.cosine_std,
        "eckart_young_gap": report.eckart_young_gap,
        "zero_gradient": report.zero_gradient,
    }
    _write_json(run_dir / "summary.json", summary)
    return summary


def run_verify(config: dict, run_dir: Path):
    seed = int(config.get("seed", 0))
    rank_tol = float(config.get("rank_tol", 1e-6))
    degenerate_tol = not (1e-12 <= rank_tol <= 1e-2)
    results = {}
    results["loss_floor"] = verify.verify_loss_floor(seed=seed, **config["loss_floor"])
    results["logit_rank_caps"] = verify.verify_logit_rank_caps(
        seed=seed, rank_tol=rank_tol, **config["logit_rank_caps"]
    )
    results["top1_reachability"] = verify.verify_top1_reachability(
        seed=seed, **config["top1_reachability"]
    )
    results["error_rank_floor"] = verify.verify_error_rank_floor(
        seed=seed, **config["error_rank_floor"]
    )
    results["batch_rank_floor"] = verify.batch_rank_floor_suite(
        seed=seed, **config["batch_rank_floor"]
    )
    results["update_residual_gap"] = verify.verify_update_residual_gap(
        seed=seed, **config["update_residual_gap"]
    )
    summary = {"degenerate_rank_tol": degenerate_tol, "checks": {}}
    for check_id, res in results.items():
        res.write_json(run_dir / f"{check_id}.json")
        res.write_instances_csv(run_dir / f"{check_id}_instances.csv")
        summary["checks"][check_id] = res.to_json_dict()
    violations = sum(r.violations for r in results.values())
    summary["total_violations"] = violations
    _write_json(run_dir / "summary.json", summary)
    return results, violations


def _spamlang_cell(counts, vocab_size, lr, seed, cfg) -> dict:
    tc = _train_config(
        {
            **cfg,
            "lr": lr,
            "seed": seed,
            "head_rank": None,
            "batch_sequences": None,
        }
    )
    cell = {
        "vocab_size": vocab_size,
        "lr": lr,
        "seed": seed,
        "entropy_floor": entropy_floor(counts),
    }
    try:
        result = train(counts, tc)
    except TrainingDivergedError as exc:
        cell.update(
            status="diverged",
            final_loss=float("nan"),
            top1_weighted=float("nan"),
            diverged_step=exc.step,
            trajectory=None,
        )
        return cell
    cell.update(
        status="ok",
        final_loss=result.trajectory.final_train_loss,
        top1_weighted=top1_accuracy(counts, result.params).weighted,
        trajectory=result.trajectory,
    )
    return cell


def run_spamlang_sweep(config: dict, run_dir: Path) -> dict:
    """Final-loss grid over vocabulary sizes and learning rates (fixed width).

    Cells whose training diverges are recorded as failed cells, not crashes.
    """
    cells = []
    for vocab_size in config["vocab_sizes"]:
        for seed in config["seeds"]:
            # the corpus depends only on (V, seed): cells stay independent of
            # the learning-rate grid composition
            corpus = corpus_mod.gen_spamlang(
                int(vocab_size),
                int(config["seqs_per_symbol"]) * int(vocab_size),
                int(config["seq_len"]),
                int(seed),
            )
            _, counts = build_counts(corpus, int(config["max_context_len"]))
            for lr in config["lrs"]:
                cell = _spamlang_cell(counts, int(vocab_size), float(lr), int(seed), config)
                traj = cell.pop("trajectory")
                if traj is not None:
                    cell_dir = run_dir / "runs" / (
                        f"v{vocab_size}_lr{lr:g}_seed{seed}"
                    )
                    cell_dir.mkdir(parents=True, exist_ok=True)
                    traj.to_csv(cell_dir / "trajectory.csv")
                cells.append(cell)

    with open(run_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["vocab_size", "lr", "seed", "status", "final_loss", "top1_weighted", "entropy_floor"]
        )
        for cell in cells:
            writer.writerow(
                [
                    cell["vocab_size"],
                    repr(cell["lr"]),
                    cell["seed"],
                    cell["status"],
                    repr(cell["final_loss"]),
                    repr(cell["top1_weighted"]),
                    repr(cell["entropy_floor"]),
                ]
            )

    # final-loss table, averaged over seeds (Fig-5-style V x lr grid)
    lrs = [float(x) for x in config["lrs"]]
    vocab_sizes = [int(v) for v in config["vocab_sizes"]]
    with open(run_dir / "final_loss_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vocab_size"] + [repr(lr) for lr in lrs])
        for v in vocab_sizes:
            row = [v]
            for lr in lrs:
                vals = [
                    c["final_loss"]
                    for c in cells
                    if c["vocab_size"] == v and c["lr"] == lr and c["status"] == "ok"
                ]
                row.append(repr(float(np.mean(vals))) if vals else "")
            writer.writerow(row)

    # best learning rate per (V, seed)
    best = {}
    for cell in cells:
        if cell["status"] != "ok" or not math.isfinite(cell["final_loss"]):
            continue
        key = (cell["vocab_size"], cell["seed"])
        if key not in best or cell["final_loss"] < best[key]["final_loss"]:
            best[key] = cell
    with open(run_dir / "best_per_cell.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vocab_size", "seed", "best_lr", "final_loss", "top1_weighted"])
        for (v, seed), cell in sorted(best.items()):
            writer.writerow(
                [v, seed, repr(cell["lr"]), repr(cell["final_loss"]), repr(cell["top1_weighted"])]
            )

    pairs = [(v, cell["final_loss"]) for (v, _), cell in sorted(best.items())]
    spearman = float("nan")
    if len({v for v, _ in pairs}) > 1:
        spearman = float(scipy.stats.spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic)
    series = []
    for lr in lrs:
        xs, ys = [], []
        for v in vocab_sizes:
            vals = [
                c["final_loss"]
                for c in cells
                if c["vocab_size"] == v and c["lr"] == lr and c["status"] == "ok"
            ]
            if vals:
                xs.append(v)
                ys.append(float(np.mean(vals)))
        series.append((f"lr={lr:g}", xs, ys))
    svg.line_plot(
        run_dir / "final_loss.svg",
        series,
        title="final loss vs vocabulary size",
        xlabel="vocabulary size",
        ylabel="final loss",
        logx=True,
        logy=True,
    )

    summary = {
        "spearman_loss_vs_vocab": spearman,
        "best_per_cell": {
            f"v{v}_seed{s}": cell["final_loss"] for (v, s), cell in sorted(best.items())
        },
        "num_cells": len(cells),
        "num_diverged": sum(1 for c in cells if c["status"] != "ok"),
    }
    _write_json(run_dir / "summary.json", summary)
    return summary


def run_bottleneck_sweep(config: dict, run_dir: Path) -> dict:
    """Validation-loss trend against the head rank on one shared corpus."""
    ranks = [int(r) for r in config["ranks"]]
    if ranks != sorted(ranks):
        raise UsageError("ranks must be ascending")
    width = int(config["width"])
    if any(r < 1 or r > width for r in ranks):
        raise UsageError("every rank must lie in [1, width]")
    corpus = corpus_mod.gen_zipf_bigram(
        int(config["vocab_size"]),
        float(config["exponent"]),
        int(config["num_seqs"]),
        int(config["seq_len"]),
        int(config["corpus_seed"]),
    )
    train_part, val_part = _split_corpus(corpus, float(config["val_fraction"]))
    mcl = int(config["max_context_len"])
    table, counts = build_counts(train_part, mcl)
    val_counts = None
    if val_part is not None:
        val_counts, _ = counts_for_table(val_part, table, mcl)

    rows = []
    trajectories = {}
    variants = [(r, False) for r in ranks]
    if config.get("include_full_baseline", True):
        variants.append((width, True))
    for seed in [int(s) for s in config["seeds"]]:
        for rank, is_baseline in variants:
            tc = _train_config(
                {
                    **config,
                    "seed": seed,
                    "head_rank": None if is_baseline else rank,
                    "batch_sequences": None,
                }
            )
            label = f"{'full' if is_baseline else 'rank' + str(rank)}_seed{seed}"
            row = {
                "rank": rank,
                "head": "full" if is_baseline else "factored",
                "seed": seed,
                "baseline": int(is_baseline),
            }
            try:
                result = train(counts, tc, val_counts=val_counts)
            except TrainingDivergedError as exc:
                row.update(
                    status="diverged",
                    final_train_loss=float("nan"),
                    final_val_loss=float("nan"),
                    diverged_step=exc.step,
                )
                rows.append(row)
                continue
            run_sub = run_dir / "runs" / label
            run_sub.mkdir(parents=True, exist_ok=True)
            result.trajectory.to_csv(run_sub / "trajectory.csv")
            trajectories[label] = result.trajectory
            row.update(
                status="ok",
                final_train_loss=result.trajectory.final_train_loss,
                final_val_loss=result.trajectory.final_val_loss,
            )
            rows.append(row)

    with open(run_dir / "bottleneck.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "head", "seed", "baseline", "status", "final_train_loss", "final_val_loss"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["rank"],
                    row["head"],
                    row["seed"],
                    row["baseline"],
                    row["status"],
                    repr(row["final_train_loss"]),
                    repr(row["final_val_loss"]),
                ]
            )

    factored = [r for r in rows if r["head"] == "factored" and r["status"] == "ok"]
    spearman = float("nan")
    if len({r["rank"] for r in factored}) > 1:
        spearman = float(
            scipy.stats.spearmanr(
                [r["rank"] for r in factored], [r["final_val_loss"] for r in factored]
            ).statistic
        )

    # tokens-to-match ratio: how much sooner the widest head reaches the
    # narrowest head's final validation loss (full-batch, so steps ~ tokens)
    speedups = []
    for seed in [int(s) for s in config["seeds"]]:
        lo = trajectories.get(f"rank{ranks[0]}_seed{seed}")
        hi = trajectories.get(f"rank{ranks[-1]}_seed{seed}")
        if lo is None or hi is None or lo.final_val_loss is None:
            continue
        target = lo.final_val_loss
        reach = next(
            (p.step for p in hi.points if p.val_loss is not None and p.val_loss <= target),
            None,
        )
        if reach and reach > 0:
            speedups.append(int(config["steps"]) / reach)
    val_series = []
    for seed in [int(s) for s in config["seeds"]]:
        for rank in ranks:
            traj = trajectories.get(f"rank{rank}_seed{seed}")
            if traj is not None and seed == int(config["seeds"][0]):
                val_series.append(
                    (
                        f"r={rank}",
                        [p.step for p in traj.points],
                        [p.val_loss for p in traj.points],
                    )
                )
    svg.line_plot(
        run_dir / "val_loss.svg",
        val_series,
        title="validation loss by head rank",
        xlabel="step",
        ylabel="val loss",
    )

    summary = {
        "spearman_valloss_vs_rank": spearman,
        "speedup_ratio_mean": float(np.mean(speedups)) if speedups else None,
        "speedup_ratios": speedups,
        "num_runs": len(rows),
        "num_diverged": sum(1 for r in rows if r["status"] != "ok"),
    }
    _write_json(run_dir / "summary.json", summary)
    return summary


def run_report(config: dict, run_dir: Path) -> dict:
    """Regenerate SVG plots for every trajectory CSV under a run directory."""
    target = config.get("run_dir")
    if not target:
        raise UsageError("report needs run_dir")
    target = Path(target)
    if not target.is_dir():
        raise UsageError(f"run_dir {target} is not a directory")
    written = []
    for path in sorted(target.rglob("trajectory.csv")):
        steps, train_losses, val_losses = [], [], []
        with open(path) as fh:
            for row in csv.DictReader(fh):
                steps.append(int(row["step"]))
                train_losses.append(float(row["train_loss"]))
                val_losses.append(float(row["val_loss"]) if row["val_loss"] else None)
        series = [("train", steps, train_losses)]
        if any(v is not None for v in val_losses):
            series.append(
                ("val", steps, [v if v is not None else float("nan") for v in val_losses])
            )
        out = run_dir / (path.parent.name + "_trajectory.svg")
        svg.line_plot(out, series, title=str(path.parent.name), xlabel="step", ylabel="loss")
        written.append(str(out))
    summary = {"plots": written}
    _write_json(run_dir / "summary.json", summary)
    return summary


# --------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="headlab",
        description="matrix-LM gradient-bottleneck experiments",
        add_help=True,
    )
    sub = parser.add_subparsers(dest="command")
    for kind in _DEFAULTS:
        p = sub.add_parser(kind, add_help=False)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args, rest = _build_parser().parse_known_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        overrides = _parse_overrides(rest)
        config = resolve_config(args.command, args.config, overrides)
        run_dir = _prepare_dir(_out_root(args.out), config, args.command)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "gen-corpus":
            run_gen_corpus(config, run_dir)
        elif args.command == "train":
            run_train(config, run_dir)
        elif args.command == "diagnose":
            run_diagnose(config, run_dir)
        elif args.command == "verify":
            _, violations = run_verify(config, run_dir)
            if violations:
                print(f"verification violations: {violations}", file=sys.stderr)
                return EXIT_VIOLATION
        elif args.command == "spamlang-sweep":
            run_spamlang_sweep(config, run_dir)
        elif args.command == "bottleneck-sweep":
            run_bottleneck_sweep(config, run_dir)
        elif args.command == "report":
            run_report(config, run_dir)
    except (UsageError, CorpusFormatError, CheckpointError, ContextOverflowError,
            FileNotFoundError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergedError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SvdConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"wrote {run_dir}")
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
