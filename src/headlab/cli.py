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
import inspect
import json
import os
import sys
import typing
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import numpy as np

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
    TrainConfig,
    TrainingDivergedError,
    Trajectory,
    entropy_floor,
    load_checkpoint,
    save_checkpoint,
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

# an inline corpus block takes gen-corpus's keys, less the two that only
# name and describe gen-corpus's own outputs
_INLINE_CORPUS_KEYS = {
    k: v for k, v in GEN_CORPUS_DEFAULTS.items() if k not in ("name", "stats_prefix_sizes")
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
    # one block per check: its verifier's instance count, {"instances": N}
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
    """`extra`'s keys over `base`'s, block by block. A block is refused over
    a string: its keys would silently replace a path such as a corpus file."""
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        elif isinstance(value, dict) and isinstance(out.get(key), str):
            raise UsageError(f"{key}.* keys conflict with {key} {out[key]!r}")
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
        if isinstance(node.get(parts[-1]), dict):  # would drop the earlier flags' keys
            raise UsageError(f"override {key!r} conflicts with the {key}.* flags before it")
        node[parts[-1]] = value
    return out


# values that mean a full head / full-batch training
_NONE_ALIASES = {"head_rank": (None, 0, "full"), "batch_sequences": (None, 0)}

# a key whose default is None takes the annotation of the TrainConfig field
# it feeds; any other such key is a path
_ANNOTATIONS = typing.get_type_hints(TrainConfig)


def _typed(name: str, value, default):
    """`value`, given for the config key `name`, as the type of its `default`.

    A whole float is taken as an int (int(8.9) is 8, so a fraction is
    refused: the run would differ from what config.json records), a finite
    number as a float, and a number as a string's text; true and false are
    not numbers. A list is typed element by element, a block key by key. A
    None default takes the annotation of the TrainConfig field it feeds, and
    is otherwise a path.
    """
    if isinstance(default, dict):
        if isinstance(value, dict):
            return _typed_block(value, default, f"{name}.")
        if name != "corpus":
            raise UsageError(f"{name} must be a block of keys, got {value!r}")
        if value is None or isinstance(value, str):
            return value  # a corpus file, or none yet
        raise UsageError(f"corpus must be a path or a block of keys, got {value!r}")
    if isinstance(default, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise UsageError(f"{name} must be a list, got {value!r}")
        # the one empty default, snapshot_steps, holds step numbers
        return [_typed(name, v, default[0] if default else 0) for v in value]
    if default is None:
        if value in _NONE_ALIASES.get(name, (None,)) and value is not False:  # False == 0
            return None
        hint = _ANNOTATIONS.get(name)
        if hint is None:
            if isinstance(value, str):
                return value
            raise UsageError(f"{name} must be a path, got {value!r}")
        default = typing.get_args(hint)[0]()  # int | None: typed as an int
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        if number and (isinstance(value, int) or value.is_integer()):
            if value < 0 and name.endswith(("seed", "seeds")):  # numpy refuses it unnamed
                raise UsageError(f"{name} must be nonnegative, got {value!r}")
            return int(value)
        raise UsageError(f"{name} must be a whole number, got {value!r}")
    if isinstance(default, float):
        # json.loads reads NaN and Infinity: a float must be finite
        if number and abs(value) <= sys.float_info.max:
            return float(value)
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    if isinstance(value, str) or number:
        return str(value)
    raise UsageError(f"{name} must be a string, got {value!r}")


def _unknown_keys(block: dict, template: dict, prefix: str = "") -> list:
    """The dotted keys of `block`, in every nested block, that `template` lacks."""
    unknown = [prefix + key for key in block if key not in template]
    for key, value in block.items():
        if isinstance(template.get(key), dict) and isinstance(value, dict):
            unknown += _unknown_keys(value, template[key], f"{prefix}{key}.")
    return unknown


def _typed_block(block: dict, template: dict, prefix: str = "") -> dict:
    """Every key of `block` typed by `_typed`; the keys `template` lacks, in
    this block and every nested one, are refused together."""
    unknown = sorted(_unknown_keys(block, template, prefix))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    return {key: _typed(prefix + key, value, template[key]) for key, value in block.items()}


def resolve_config(kind: str, config_path=None, overrides=None) -> dict:
    """Defaults, then the config file, then the overrides, every value typed
    as its default (`_typed`); an unknown key is refused, and a run's own
    config.json sidecar is accepted back."""
    if kind not in COMMANDS:
        raise UsageError(f"unknown experiment kind {kind!r}")
    config = _DEFAULTS[kind]
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
        config = _deep_merge(config, file_cfg)
    config = _deep_merge(config, overrides or {})
    template = dict(_DEFAULTS[kind])
    if "corpus" in template:
        template["corpus"] = _INLINE_CORPUS_KEYS
    return _typed_block(config, template)


def _out_root(explicit=None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path("headlab_runs")


def _prepare_dir(out_root: Path, config: dict, kind: str) -> Path:
    name = config["name"]
    if name in ("", ".", "..") or "/" in name or os.sep in name:
        raise UsageError(f"name must be one plain path component, got {name!r}")
    run_dir = out_root / name
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "config.json", {**config, "experiment": kind})
    return run_dir


def _make_corpus(spec):
    """A corpus from either a file path or an inline generator block."""
    if spec is None:
        raise UsageError("a corpus path or generator block is required")
    if isinstance(spec, str):
        return load_corpus(spec)
    spec = {**GEN_CORPUS_DEFAULTS, **spec}
    v, n, length, seed = spec["vocab_size"], spec["num_seqs"], spec["seq_len"], spec["seed"]
    if spec["kind"] == "spamlang":
        return corpus_mod.gen_spamlang(v, n, length, seed)
    if spec["kind"] == "zipf":
        return corpus_mod.gen_zipf_bigram(v, spec["exponent"], n, length, seed)
    raise UsageError(f"unknown corpus kind {spec['kind']!r}")


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
    seqs = [s.copy() for s in corpus.sequences]
    return (corpus_mod.Corpus(corpus.vocab_size, seqs[: n - n_val]),
            corpus_mod.Corpus(corpus.vocab_size, seqs[n - n_val :]))


def _train_config(cfg: dict) -> TrainConfig:
    """TrainConfig from the config keys named like its fields; the dataclass
    supplies the missing ones."""
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name in cfg})


def _write_table(path, columns, rows) -> None:
    """One CSV line per row dict, its values in `columns` order; a key the
    row lacks is a blank cell."""
    write_csv(path, columns, ([row.get(k) for k in columns] for row in rows))


def _trajectory_svg(path, trajectory, title: str) -> None:
    steps = [p.step for p in trajectory.points]
    losses = [p.train_loss for p in trajectory.points]
    series = [("train", steps, losses)]
    # a file `report` reads may leave some points' val_loss blank
    val = [(p.step, p.val_loss) for p in trajectory.points if p.val_loss is not None]
    if val:
        series.append(("val", *map(list, zip(*val))))
    svg.line_plot(path, series, title=title, xlabel="step", ylabel="loss")


# --------------------------------------------------------------------------
# subcommands


def run_gen_corpus(config: dict, run_dir: Path) -> dict:
    if any(size < 0 for size in config["stats_prefix_sizes"]):
        raise UsageError(
            f"stats_prefix_sizes must be nonnegative, got {config['stats_prefix_sizes']}"
        )
    corpus = _make_corpus(config)
    corpus_path = run_dir / "corpus.txt"
    save_corpus(corpus_path, corpus)
    table, counts = build_counts(corpus, max_context_len=corpus_mod.DEFAULT_CONTEXT_LEN)
    stats = corpus_mod.assumption_stats(table, counts, prefix_sizes=config["stats_prefix_sizes"])
    corpus_mod.write_stats_csv(run_dir / "stats.csv", stats)
    return {
        "corpus": str(corpus_path),
        "num_sequences": len(corpus.sequences),
        "num_tokens": corpus.num_tokens,
        "num_contexts": counts.num_contexts,
        "unique_context_count": stats.unique_context_count,
        "unique_next_token_count": stats.unique_next_token_count,
    }


def run_train(config: dict, run_dir: Path) -> dict:
    corpus = _make_corpus(config["corpus"])
    train_part, val_part = _split_corpus(corpus, config["val_fraction"])
    table, counts = build_counts(train_part, config["max_context_len"])
    val_counts = None
    skipped = 0
    if val_part is not None:
        val_counts, skipped = counts_for_table(val_part, table)
    result = train(counts, _train_config(config), val_counts=val_counts,
                   snapshot_steps=config["snapshot_steps"], table=table)
    save_checkpoint(run_dir / "checkpoint.bin", result.params)
    result.trajectory.to_csv(run_dir / "trajectory.csv")
    for step, snap in result.snapshots:
        save_checkpoint(run_dir / f"checkpoint_step{step}.bin", snap)
    _trajectory_svg(run_dir / "trajectory.svg", result.trajectory, config["name"])
    return {
        "final_train_loss": result.trajectory.final_train_loss,
        "final_val_loss": result.trajectory.final_val_loss,
        "entropy_floor": entropy_floor(counts),
        "num_contexts": counts.num_contexts,
        "val_tokens_skipped": skipped,
        "checkpoint": str(run_dir / "checkpoint.bin"),
    }


def _gradient_passes(counts, params, fractions):
    """`diagnostics.gradient_pass`, then the update efficiency's second pass
    over the same blocks, which reads the first's loss and norms."""
    first = diagnostics.gradient_pass(counts, params)
    return first, diagnostics.update_efficiency(counts, params, first, fractions)


def run_diagnose(config: dict, run_dir: Path) -> dict:
    """The checkpoint's gradient bottleneck on its corpus, read in row blocks
    with no C x V matrix. Three independent jobs run in the fork pool
    (`parallel._map_cells`): the two passes of `_gradient_passes` (the kernel
    split and the coefficient profile, then the update efficiency), the
    Eckart-Young gap (from the top eigenvalues of a Gram matrix summed in its
    own walk of the blocks, see `linalg.gram_residual`) and the rank curve.
    This process checks the lists first, then loads, counts, forks and
    writes."""
    if not config["checkpoint"]:
        raise UsageError("diagnose needs a checkpoint path")
    token_counts = diagnostics.check_token_counts(config["token_counts"])
    fractions = diagnostics.check_fractions(config["fractions"])
    params = load_checkpoint(config["checkpoint"])
    corpus = _make_corpus(config["corpus"])
    _, counts = build_counts(corpus, config["max_context_len"])
    sizes = [k for k in token_counts if k <= counts.total]
    if not sizes:
        raise UsageError(
            f"no entry of token_counts {token_counts} fits the corpus's {counts.total} tokens"
        )
    # each worker takes the next job when it is free: on one core at V = 2048,
    # C = 2049 the passes took 0.5 s, the Gram matrix's eigenvalues 1.15 s and
    # the rank curve 0.7 s, so the curve follows the passes
    (first, curve_eff), gap, curve = _map_cells([
        partial(_gradient_passes, counts, params, fractions),
        partial(diagnostics.gradient_gap, counts, params),
        partial(diagnostics.gradient_rank_curve, counts, params, sizes, seed=config["seed"]),
    ])
    report, profile = first.report, first.profile

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

    return {
        "lost_fraction": report.lost_fraction,
        "cosine_mean": report.cosine_mean,
        "cosine_std": report.cosine_std,
        "eckart_young_gap": gap,
        "zero_gradient": report.zero_gradient,
    }


def run_verify(config: dict, run_dir: Path) -> dict:
    rank_tol = config["rank_tol"]
    results = verify.run_all(
        config["seed"], rank_tol, {check_id: config[check_id] for check_id in verify.CHECKS}
    )
    summary = {"degenerate_rank_tol": not (1e-12 <= rank_tol <= 1e-2), "checks": {}}
    for check_id, res in results.items():
        res.write_json(run_dir / f"{check_id}.json")
        res.write_instances_csv(run_dir / f"{check_id}_instances.csv")
        summary["checks"][check_id] = res.to_json_dict()
    summary["total_violations"] = sum(r.violations for r in results.values())
    return summary


def _train_cell(row, counts, tc, val_counts, measures):
    """Train one sweep cell. Returns its row, completed with its status and
    each of `measures` (name -> function of the TrainResult), and its
    trajectory.

    A cell diverged when a loss turns non-finite, or when its final train
    loss ends above its step-0 train loss (its `diverged_step` is then the
    first eval step above step 0's loss). A diverged cell has NaN measures
    and no trajectory.
    """
    try:
        result = train(counts, tc, val_counts=val_counts)
    except TrainingDivergedError as exc:
        diverged_step = exc.step
    else:
        points = result.trajectory.points
        start = points[0].train_loss
        # `not loss <= start` also holds for a NaN loss, which the final eval
        # can read after the last step overflowed the parameters
        above = [p.step for p in points if not p.train_loss <= start]
        diverged_step = above[0] if not points[-1].train_loss <= start else None
    if diverged_step is not None:
        nan = {name: float("nan") for name in measures}
        return {**row, "status": "diverged", **nan, "diverged_step": diverged_step}, None
    done = {name: measure(result) for name, measure in measures.items()}
    return {**row, "status": "ok", **done}, result.trajectory


def _run_cells(run_dir, jobs, label):
    """Every sweep cell's job through `parallel._map_cells`; writes the
    trajectory of each cell that did not diverge to
    runs/<label(row)>/trajectory.csv. Returns the rows in job order and the
    trajectories by label."""
    rows, trajectories = [], {}
    for row, traj in _map_cells(jobs):
        rows.append(row)
        if traj is not None:
            cell_dir = run_dir / "runs" / label(row)
            cell_dir.mkdir(parents=True, exist_ok=True)
            traj.to_csv(cell_dir / "trajectory.csv")
            trajectories[label(row)] = traj
    return rows, trajectories


def _grid(config: dict, key: str) -> list:
    """The sweep axis `key`, refused when empty or when it repeats a value:
    a repeated value would train the same cells again."""
    values = config[key]
    if not values:
        raise UsageError(f"{key} must hold at least one value")
    if len(set(values)) < len(values):
        raise UsageError(f"{key} must not repeat a value, got {values}")
    return values


def _spearman(xs, ys) -> float:
    """Spearman's rank correlation, in `scipy.stats.spearmanr`'s own two
    steps: average ranks (ties share the mean of their positions), then
    their Pearson correlation. NaN for fewer than two pairs, a constant
    input or a NaN, as there."""
    pairs = np.column_stack([xs, ys]).astype(np.float64)
    if len(pairs) < 2 or np.isnan(pairs).any() or (pairs == pairs[0]).all(axis=0).any():
        return float("nan")
    ranks = []
    for column in pairs.T:
        _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2)[inverse])
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


def _spamlang_cell(config, vocab_size, tc):
    """One (V, seed, lr) cell trained by `tc`: its row and trajectory (None if diverged)."""
    # the corpus depends only on (V, seed): cells stay independent of the
    # learning-rate grid composition
    corpus = corpus_mod.gen_spamlang(
        vocab_size, config["seqs_per_symbol"] * vocab_size, config["seq_len"], tc.seed
    )
    _, counts = build_counts(corpus, config["max_context_len"])
    row = {"vocab_size": vocab_size, "lr": tc.lr, "seed": tc.seed,
           "entropy_floor": entropy_floor(counts)}
    return _train_cell(row, counts, tc, None, {
        "final_loss": lambda result: result.trajectory.final_train_loss,
        # the final eval's top-1, on these counts and the final params
        "top1_weighted": lambda result: result.trajectory.points[-1].top1_acc,
    })


def _spamlang_label(cell) -> str:
    """A spamlang cell's run directory name, from its row."""
    return f"v{cell['vocab_size']}_lr{cell['lr']:g}_seed{cell['seed']}"


def _bottleneck_label(row) -> str:
    """A bottleneck-sweep cell's run directory name, from its row."""
    return f"{'full' if row['baseline'] else 'rank' + str(row['rank'])}_seed{row['seed']}"


def run_spamlang_sweep(config: dict, run_dir: Path) -> dict:
    """Final-loss grid over vocabulary sizes and learning rates (fixed width).

    Cells whose training diverges are recorded as failed cells, not crashes.
    """
    vocab_sizes, seeds, lrs = (_grid(config, key) for key in ("vocab_sizes", "seeds", "lrs"))
    # gen_spamlang's own sizes, refused here before any cell trains
    for key, least in (("vocab_sizes", 2), ("seq_len", 2), ("seqs_per_symbol", 1)):
        if np.min(config[key]) < least:
            raise UsageError(f"{key} must be at least {least}, got {config[key]}")
    grid = [
        {"vocab_size": vocab_size, "seed": seed, "lr": lr}
        for vocab_size in vocab_sizes
        for seed in seeds
        for lr in lrs
    ]
    # two learning rates that print alike would share their cells' run directories
    named = {}
    for cell in grid:
        label = _spamlang_label(cell)
        if named.setdefault(label, cell) is not cell:
            raise UsageError(
                f"lrs {named[label]['lr']!r} and {cell['lr']!r} would share the run "
                f"directory runs/{label}"
            )
    jobs = [partial(_spamlang_cell, config, cell["vocab_size"],
                    _train_config({**config, "lr": cell["lr"], "seed": cell["seed"]}))
            for cell in grid]
    cells, _ = _run_cells(run_dir, jobs, _spamlang_label)

    _write_table(
        run_dir / "sweep.csv",
        ["vocab_size", "lr", "seed", "status", "final_loss", "top1_weighted", "entropy_floor",
         "diverged_step"],
        cells,
    )

    # final loss averaged over the seeds, per (V, lr) with an ok cell: the
    # table and the plot of the Fig-5-style V x lr grid
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
        if cell["status"] != "ok":
            continue
        key = (cell["vocab_size"], cell["seed"])
        if key not in best or cell["final_loss"] < best[key]["final_loss"]:
            best[key] = cell
    _write_table(
        run_dir / "best_per_cell.csv",
        ["vocab_size", "seed", "best_lr", "final_loss", "top1_weighted"],
        [{**cell, "best_lr": cell["lr"]} for _, cell in sorted(best.items())],
    )

    ranked = sorted(best.items())
    spearman = _spearman([v for (v, _), _ in ranked], [cell["final_loss"] for _, cell in ranked])
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

    return {
        "spearman_loss_vs_vocab": spearman,
        "best_per_cell": {
            f"v{v}_seed{s}": cell["final_loss"] for (v, s), cell in sorted(best.items())
        },
        "num_cells": len(cells),
        "num_diverged": sum(1 for c in cells if c["status"] != "ok"),
    }


def run_bottleneck_sweep(config: dict, run_dir: Path) -> dict:
    """Validation-loss trend against the head rank on one shared corpus:
    each seed trains a factored head of every rank and the full-head baseline."""
    ranks, seeds = _grid(config, "ranks"), _grid(config, "seeds")
    if ranks != sorted(ranks):
        raise UsageError("ranks must be strictly ascending")
    width = config["width"]
    if any(r < 1 or r > width for r in ranks):
        raise UsageError("every rank must lie in [1, width]")
    corpus = corpus_mod.gen_zipf_bigram(
        config["vocab_size"],
        config["exponent"],
        config["num_seqs"],
        config["seq_len"],
        config["corpus_seed"],
    )
    train_part, val_part = _split_corpus(corpus, config["val_fraction"])
    if val_part is None:
        raise UsageError(
            f"val_fraction {config['val_fraction']} leaves no validation sequences of "
            f"{len(corpus.sequences)}; bottleneck-sweep ranks the heads by validation loss"
        )
    table, counts = build_counts(train_part, config["max_context_len"])
    val_counts, _ = counts_for_table(val_part, table)

    variants = [(r, False) for r in ranks] + [(width, True)]
    measures = {
        "final_train_loss": lambda result: result.trajectory.final_train_loss,
        "final_val_loss": lambda result: result.trajectory.final_val_loss,
    }
    jobs = []
    for seed in seeds:
        for rank, is_baseline in variants:
            row = {"rank": rank, "head": "full" if is_baseline else "factored", "seed": seed,
                   "baseline": int(is_baseline)}
            tc = _train_config({**config, "seed": seed, "head_rank": None if is_baseline else rank})
            jobs.append(partial(_train_cell, row, counts, tc, val_counts, measures))
    rows, trajectories = _run_cells(run_dir, jobs, _bottleneck_label)

    _write_table(
        run_dir / "bottleneck.csv",
        ["rank", "head", "seed", "baseline", "status", "final_train_loss", "final_val_loss",
         "diverged_step"],
        rows,
    )

    factored = [r for r in rows if r["head"] == "factored" and r["status"] == "ok"]
    spearman = _spearman([r["rank"] for r in factored], [r["final_val_loss"] for r in factored])

    def factored_trajectory(rank, seed):
        return trajectories.get(_bottleneck_label({"rank": rank, "seed": seed, "baseline": 0}))

    # tokens-to-match ratio: how much sooner the widest head reaches the
    # narrowest head's final validation loss (full-batch, so steps ~ tokens)
    speedups = []
    for seed in seeds:
        lo, hi = factored_trajectory(ranks[0], seed), factored_trajectory(ranks[-1], seed)
        if lo is None or hi is None:
            continue
        target = lo.final_val_loss
        reach = next((p.step for p in hi.points if p.val_loss <= target), None)
        if reach and reach > 0:
            speedups.append(config["steps"] / reach)
    # the factored heads of the first seed
    val_series = [
        (f"r={rank}", [p.step for p in traj.points], [p.val_loss for p in traj.points])
        for seed in seeds[:1]
        for rank in ranks
        if (traj := factored_trajectory(rank, seed)) is not None
    ]
    svg.line_plot(
        run_dir / "val_loss.svg",
        val_series,
        title="validation loss by head rank",
        xlabel="step",
        ylabel="val loss",
    )

    return {
        "spearman_valloss_vs_rank": spearman,
        "speedup_ratio_mean": float(np.mean(speedups)) if speedups else None,
        "speedup_ratios": speedups,
        "num_runs": len(rows),
        "num_diverged": sum(1 for r in rows if r["status"] != "ok"),
    }


def run_report(config: dict, run_dir: Path) -> dict:
    """Regenerate SVG plots for every trajectory CSV under a run directory.
    Each plot is named by the CSV's directory relative to `run_dir`, its
    components joined by `__` (a CSV at the top by that directory's own
    name), so the cells of one label in two sweeps get two plots."""
    target = config["run_dir"]
    if not target:
        raise UsageError("report needs run_dir")
    target = Path(target)
    if not target.is_dir():
        raise UsageError(f"run_dir {target} is not a directory")
    written = []
    for path in sorted(target.rglob("trajectory.csv")):
        name = "__".join(path.parent.relative_to(target).parts) or path.parent.name
        out = run_dir / (name + "_trajectory.svg")
        _trajectory_svg(out, Trajectory.from_csv(path), path.parent.name)
        written.append(str(out))
    return {"plots": written}


# subcommand -> the runner itself, for the same reason as verify.CHECKS. A
# runner writes its outputs into its run directory and returns its summary,
# which only `main` writes, to summary.json.
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
        p = sub.add_parser(
            kind, formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog="config keys, each with its default (a block's keys are also "
                   "set one by one, as --block.key VALUE):\n" + "\n".join(
                       f"  --{key} {json.dumps(value)}" for key, value in _DEFAULTS[kind].items()),
        )
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
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, SvdConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    write_json(run_dir / "summary.json", summary)
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
