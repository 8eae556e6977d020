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
import inspect
import json
import math
import os
import sys
from dataclasses import MISSING, fields
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
from .parallel import _map_cells
from .tables import write_csv, write_json

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

# TrainConfig's own defaults; each experiment writes out only the values it
# changes. The sweeps set seed, head_rank and batch_sequences per cell, so
# those are not sweep config keys.
_TRAIN_CONFIG_DEFAULTS = {
    f.name: f.default for f in fields(TrainConfig) if f.default is not MISSING
}
_SWEEP_TRAIN_DEFAULTS = {
    k: v for k, v in _TRAIN_CONFIG_DEFAULTS.items()
    if k not in ("seed", "head_rank", "batch_sequences")
}

TRAIN_DEFAULTS = {
    "name": "train",
    "corpus": {"kind": "zipf", "vocab_size": 64, "num_seqs": 128, "seq_len": 64,
               "exponent": 1.2, "seed": 0},
    "max_context_len": 16,
    "val_fraction": 0.0,
    "width": 8,
    "steps": 1000,
    "lr": 1e-2,
    "snapshot_steps": [],
    **_TRAIN_CONFIG_DEFAULTS,
    "eval_every": 50,
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
    "rank_tol": verify.RANK_TOL,
    # one block per check: its verifier's keyword defaults
    **{
        check_id: {
            name: param.default
            for name, param in inspect.signature(check).parameters.items()
            if param.default is not param.empty and name not in ("seed", "rank_tol")
        }
        for check_id, check in verify.CHECKS.items()
    },
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
    **_SWEEP_TRAIN_DEFAULTS,
    "schedule": "cosine",
    "warmup_steps": 150,
    "eval_every": 250,
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
    **_SWEEP_TRAIN_DEFAULTS,
    "schedule": "cosine",
    "warmup_steps": 50,
    "eval_every": 100,
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
    if kind not in COMMANDS:
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
    write_json(run_dir / "config.json", {**config, "experiment": kind})
    return run_dir


def _make_corpus(spec, default_seed=0):
    """A corpus from either a file path or an inline generator block."""
    if spec is None:
        raise UsageError("a corpus path or generator block is required")
    if isinstance(spec, str):
        return load_corpus(spec)
    if not isinstance(spec, dict):
        raise UsageError("corpus must be a path or a generator object")
    spec = {**GEN_CORPUS_DEFAULTS, "seed": default_seed, **spec}
    kind = spec["kind"]
    vocab_size = int(spec["vocab_size"])
    num_seqs = int(spec["num_seqs"])
    seq_len = int(spec["seq_len"])
    seed = int(spec["seed"])
    if kind == "spamlang":
        return corpus_mod.gen_spamlang(vocab_size, num_seqs, seq_len, seed)
    if kind == "zipf":
        exponent = float(spec["exponent"])
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


# values that mean a full head / full-batch training
_NONE_ALIASES = {"head_rank": (None, 0, "full"), "batch_sequences": (None, 0)}
_FIELD_TYPES = {"int": int, "float": float, "str": str}


def _cast_field(name: str, type_name: str, value):
    if type_name != "bool":
        return _FIELD_TYPES[type_name](value)
    # bool("False") is True, so only JSON true/false and 0/1 are accepted
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise UsageError(f"{name} must be true, false, 0 or 1, got {value!r}")


def _train_config(cfg: dict) -> TrainConfig:
    """TrainConfig from the config keys named like its fields, each cast to
    its field's type; the dataclass supplies the missing ones."""
    return TrainConfig(**{
        f.name: None if cfg[f.name] in _NONE_ALIASES.get(f.name, ())
        else _cast_field(f.name, f.type.removesuffix(" | None"), cfg[f.name])
        for f in fields(TrainConfig)
        if f.name in cfg
    })


def _write_table(path, columns, rows) -> None:
    """One CSV line per row dict, its values in `columns` order; a key the
    row lacks is a blank cell."""
    write_csv(path, columns, ([row.get(k) for k in columns] for row in rows))


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
    corpus = _make_corpus(config)
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
    write_json(run_dir / "summary.json", summary)
    return summary


def run_train(config: dict, run_dir: Path) -> dict:
    corpus = _make_corpus(config["corpus"], default_seed=config["seed"])
    train_part, val_part = _split_corpus(corpus, float(config["val_fraction"]))
    mcl = int(config["max_context_len"])
    table, counts = build_counts(train_part, mcl)
    val_counts = None
    skipped = 0
    if val_part is not None:
        val_counts, skipped = counts_for_table(val_part, table, mcl)
    tc = _train_config(config)
    data = Dataset(train_part, table, counts, mcl) if tc.batch_sequences else counts
    result = train(data, tc, val_counts=val_counts, snapshot_steps=config["snapshot_steps"])
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
    write_json(run_dir / "summary.json", summary)
    return summary


def _diagnose_cell(shared, part):
    """One of diagnose's independent measurements, on the logits, `p` and `g`
    the parent formed once. Every result is small: the compression cell
    reduces the gradient's kernel part to its coefficient profile."""
    config, counts, params, lm, base_loss, p, g = shared
    if part == "gap":
        return diagnostics.eckart_young_gap(g, params.width)
    if part == "rank_curve":
        return diagnostics.gradient_rank_curve(
            counts, p, config["token_counts"], seed=int(config["seed"])
        )
    if part == "compression":
        report = diagnostics.compression_report(g, params.head)
        profile = diagnostics.coefficient_profile(g, report.lost)
        report.lost = None
        return report, profile
    return diagnostics.update_efficiency(
        counts, lm, base_loss, g, params.head, config["fractions"]
    )


def run_diagnose(config: dict, run_dir: Path) -> dict:
    if not config["checkpoint"]:
        raise UsageError("diagnose needs a checkpoint path")
    params = load_checkpoint(config["checkpoint"])
    corpus = _make_corpus(config["corpus"])
    table, counts = build_counts(corpus, int(config["max_context_len"]))
    if params.h.shape[0] != counts.num_contexts or params.vocab_size != counts.vocab_size:
        raise CheckpointError(
            f"checkpoint dimensions (C={params.h.shape[0]}, V={params.vocab_size}) do not "
            f"match the corpus counts (C={counts.num_contexts}, V={counts.vocab_size})"
        )
    sizes = [int(k) for k in config["token_counts"] if int(k) <= counts.total]
    if not sizes:
        raise UsageError(
            f"no entry of token_counts {config['token_counts']} fits the corpus's "
            f"{counts.total} tokens"
        )
    lm = logits(params)
    p, base_loss = probs_and_loss(counts, lm)
    g = logit_gradient(counts, p)
    # the exact SVD of the gap is the longest part: first, so that one worker
    # runs it while the other runs the rest
    gap, curve, (report, profile), curve_eff = _map_cells(
        _diagnose_cell,
        ({**config, "token_counts": sizes}, counts, params, lm, base_loss, p, g),
        [("gap",), ("rank_curve",), ("compression",), ("efficiency",)],
    )

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

    report.to_csv(run_dir / "compression.csv", gap)
    report.per_row_to_csv(run_dir / "per_row_lost.csv")

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
        "eckart_young_gap": gap,
        "zero_gradient": report.zero_gradient,
    }
    write_json(run_dir / "summary.json", summary)
    return summary


def run_verify(config: dict, run_dir: Path) -> dict:
    rank_tol = float(config["rank_tol"])
    results = verify.run_all(
        int(config["seed"]), rank_tol, {check_id: config[check_id] for check_id in verify.CHECKS}
    )
    summary = {"degenerate_rank_tol": not (1e-12 <= rank_tol <= 1e-2), "checks": {}}
    for check_id, res in results.items():
        res.write_json(run_dir / f"{check_id}.json")
        res.write_instances_csv(run_dir / f"{check_id}_instances.csv")
        summary["checks"][check_id] = res.to_json_dict()
    summary["total_violations"] = sum(r.violations for r in results.values())
    write_json(run_dir / "summary.json", summary)
    return summary


def _spamlang_cell(config, vocab_size, seed, lr):
    """One (V, seed, lr) cell: its row and its trajectory (None if diverged)."""
    # the corpus depends only on (V, seed): cells stay independent of the
    # learning-rate grid composition
    corpus = corpus_mod.gen_spamlang(
        vocab_size, int(config["seqs_per_symbol"]) * vocab_size, int(config["seq_len"]), seed
    )
    _, counts = build_counts(corpus, int(config["max_context_len"]))
    tc = _train_config({**config, "lr": lr, "seed": seed})
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
        )
        return cell, None
    cell.update(
        status="ok",
        final_loss=result.trajectory.final_train_loss,
        top1_weighted=top1_accuracy(counts, result.params).weighted,
    )
    return cell, result.trajectory


def run_spamlang_sweep(config: dict, run_dir: Path) -> dict:
    """Final-loss grid over vocabulary sizes and learning rates (fixed width).

    Cells whose training diverges are recorded as failed cells, not crashes.
    """
    tasks = [
        (int(vocab_size), int(seed), float(lr))
        for vocab_size in config["vocab_sizes"]
        for seed in config["seeds"]
        for lr in config["lrs"]
    ]
    cells = []
    for cell, traj in _map_cells(_spamlang_cell, config, tasks):
        if traj is not None:
            cell_dir = run_dir / "runs" / (
                f"v{cell['vocab_size']}_lr{cell['lr']:g}_seed{cell['seed']}"
            )
            cell_dir.mkdir(parents=True, exist_ok=True)
            traj.to_csv(cell_dir / "trajectory.csv")
        cells.append(cell)

    _write_table(
        run_dir / "sweep.csv",
        ["vocab_size", "lr", "seed", "status", "final_loss", "top1_weighted", "entropy_floor",
         "diverged_step"],
        cells,
    )

    # final loss averaged over the seeds, per (V, lr) with an ok cell: the
    # table and the plot of the Fig-5-style V x lr grid
    lrs = [float(x) for x in config["lrs"]]
    vocab_sizes = [int(v) for v in config["vocab_sizes"]]
    means = {}
    for v in vocab_sizes:
        for lr in lrs:
            vals = [
                c["final_loss"]
                for c in cells
                if c["vocab_size"] == v and c["lr"] == lr and c["status"] == "ok"
            ]
            if vals:
                means[v, lr] = float(np.mean(vals))
    write_csv(
        run_dir / "final_loss_table.csv",
        ["vocab_size"] + lrs,
        [[v] + [means.get((v, lr)) for lr in lrs] for v in vocab_sizes],
    )

    # best learning rate per (V, seed)
    best = {}
    for cell in cells:
        if cell["status"] != "ok" or not math.isfinite(cell["final_loss"]):
            continue
        key = (cell["vocab_size"], cell["seed"])
        if key not in best or cell["final_loss"] < best[key]["final_loss"]:
            best[key] = cell
    _write_table(
        run_dir / "best_per_cell.csv",
        ["vocab_size", "seed", "best_lr", "final_loss", "top1_weighted"],
        [{**cell, "best_lr": cell["lr"]} for _, cell in sorted(best.items())],
    )

    pairs = [(v, cell["final_loss"]) for (v, _), cell in sorted(best.items())]
    spearman = float("nan")
    if len({v for v, _ in pairs}) > 1:
        spearman = float(scipy.stats.spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic)
    series = []
    for lr in lrs:
        xs = [v for v in vocab_sizes if (v, lr) in means]
        series.append((f"lr={lr:g}", xs, [means[v, lr] for v in xs]))
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
    write_json(run_dir / "summary.json", summary)
    return summary


def _bottleneck_cell(shared, seed, rank, is_baseline):
    """One (seed, rank) run on the shared counts: its row and its trajectory
    (None if diverged)."""
    config, counts, val_counts = shared
    tc = _train_config({**config, "seed": seed, "head_rank": None if is_baseline else rank})
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
        return row, None
    row.update(
        status="ok",
        final_train_loss=result.trajectory.final_train_loss,
        final_val_loss=result.trajectory.final_val_loss,
    )
    return row, result.trajectory


def run_bottleneck_sweep(config: dict, run_dir: Path) -> dict:
    """Validation-loss trend against the head rank on one shared corpus."""
    ranks = [int(r) for r in config["ranks"]]
    if not ranks:
        raise UsageError("ranks must name at least one head rank")
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
    if val_part is None:
        raise UsageError(
            f"val_fraction {config['val_fraction']} leaves no validation sequences of "
            f"{len(corpus.sequences)}; bottleneck-sweep ranks the heads by validation loss"
        )
    mcl = int(config["max_context_len"])
    table, counts = build_counts(train_part, mcl)
    val_counts, _ = counts_for_table(val_part, table, mcl)

    variants = [(r, False) for r in ranks]
    if config["include_full_baseline"]:
        variants.append((width, True))
    tasks = [(int(seed), rank, is_baseline)
             for seed in config["seeds"] for rank, is_baseline in variants]
    rows = []
    trajectories = {}
    for row, traj in _map_cells(_bottleneck_cell, (config, counts, val_counts), tasks):
        rows.append(row)
        if traj is None:
            continue
        label = f"{'full' if row['baseline'] else 'rank' + str(row['rank'])}_seed{row['seed']}"
        run_sub = run_dir / "runs" / label
        run_sub.mkdir(parents=True, exist_ok=True)
        traj.to_csv(run_sub / "trajectory.csv")
        trajectories[label] = traj

    _write_table(
        run_dir / "bottleneck.csv",
        ["rank", "head", "seed", "baseline", "status", "final_train_loss", "final_val_loss",
         "diverged_step"],
        rows,
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
        if lo is None or hi is None:
            continue
        target = lo.final_val_loss
        reach = next((p.step for p in hi.points if p.val_loss <= target), None)
        if reach and reach > 0:
            speedups.append(int(config["steps"]) / reach)
    # the factored heads of the first seed
    val_series = [
        (f"r={rank}", [p.step for p in traj.points], [p.val_loss for p in traj.points])
        for seed in config["seeds"][:1]
        for rank in ranks
        if (traj := trajectories.get(f"rank{rank}_seed{int(seed)}")) is not None
    ]
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
    write_json(run_dir / "summary.json", summary)
    return summary


def run_report(config: dict, run_dir: Path) -> dict:
    """Regenerate SVG plots for every trajectory CSV under a run directory."""
    target = config["run_dir"]
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
    write_json(run_dir / "summary.json", summary)
    return summary


# subcommand -> the runner itself, for the same reason as verify.CHECKS
COMMANDS = {
    "gen-corpus": run_gen_corpus,
    "train": run_train,
    "diagnose": run_diagnose,
    "verify": run_verify,
    "spamlang-sweep": run_spamlang_sweep,
    "bottleneck-sweep": run_bottleneck_sweep,
    "report": run_report,
}


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
    for kind in COMMANDS:
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
        summary = COMMANDS[args.command](config, run_dir)
    except (UsageError, CorpusFormatError, CheckpointError, ContextOverflowError,
            FileNotFoundError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, SvdConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    violations = summary.get("total_violations", 0)
    if violations:
        print(f"verification violations: {violations}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"wrote {run_dir}")
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
