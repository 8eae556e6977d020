"""Output checks on headlab run directories.

Every check returns a list of ``(operation, ok)`` pairs; the benchmark counts
each pair as one attempted operation and each ``ok=False`` as one failure.
The checks read only the files the CLI writes, never headlab's internals.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

# A cross-entropy may undercut its entropy floor only by rounding.
FLOOR_SLACK = 1e-9


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def entropy_floor_mcl1(corpus_path, val_fraction: float):
    """Entropy floor, context count and token count of the training split of
    a corpus file, counted with one token of context (the empty context
    first), as the CLI counts it at ``max_context_len`` 1."""
    lines = Path(corpus_path).read_text().splitlines()[1:]
    seqs = [[int(t) for t in line.split()] for line in lines if line.strip()]
    seqs = seqs[: len(seqs) - int(round(val_fraction * len(seqs)))]
    pairs = Counter()
    for seq in seqs:
        pairs.update(zip([None] + seq[:-1], seq))
    rows = Counter()
    for (ctx, _), n in pairs.items():
        rows[ctx] += n
    total = sum(rows.values())
    floor = -sum(n / total * math.log(n / rows[ctx]) for (ctx, _), n in pairs.items())
    return floor, len(rows), total


def check_trajectory(path, floor, label):
    """Every loss in a trajectory is finite and no train loss undercuts the floor."""
    losses, train = [], []
    for row in _rows(path):
        train.append(float(row["train_loss"]))
        losses.append(train[-1])
        if row.get("val_loss"):
            losses.append(float(row["val_loss"]))
    return [
        (f"{label}: losses finite", bool(losses) and all(map(math.isfinite, losses))),
        (f"{label}: train loss >= entropy floor", all(t >= floor - FLOOR_SLACK for t in train)),
    ]


def check_train(run_dir):
    """A `train` run: one training operation plus its trajectory checks."""
    run_dir = Path(run_dir)
    summary = json.loads((run_dir / "summary.json").read_text())
    ops = [("train: training run finished", _finite(summary.get("final_train_loss")))]
    if summary.get("final_val_loss") is not None:
        ops.append(("train: final val loss finite", _finite(summary["final_val_loss"])))
    ops += check_trajectory(run_dir / "trajectory.csv", summary["entropy_floor"], "train")
    return ops, summary


def check_sweep(run_dir, floor, cells: int):
    """A `bottleneck-sweep` run: one training operation per cell."""
    run_dir = Path(run_dir)
    rows = _rows(run_dir / "bottleneck.csv")
    ops = [("sweep: cell count", len(rows) == cells)]
    for row in rows:
        label = f"{'full' if row['head'] == 'full' else 'rank' + row['rank']}_seed{row['seed']}"
        ops.append((f"{label}: training run ok", row["status"] == "ok"))
        if row["status"] == "ok":
            ops += check_trajectory(run_dir / "runs" / label / "trajectory.csv", floor, label)
    return ops, rows


def check_diagnose(run_dir, num_contexts: int):
    run_dir = Path(run_dir)
    summary = json.loads((run_dir / "summary.json").read_text())
    per_row = _rows(run_dir / "per_row_lost.csv")
    return [
        ("diagnose: lost_fraction in [0, 1]",
         _finite(summary.get("lost_fraction")) and 0 <= summary["lost_fraction"] <= 1),
        ("diagnose: cosine_mean in [0, 1]",
         _finite(summary.get("cosine_mean")) and 0 <= summary["cosine_mean"] <= 1),
        ("diagnose: per_row_lost has C rows", len(per_row) == num_contexts),
    ], summary


def check_verify(run_dir):
    """A `verify` run: one operation per verifier check plus the total."""
    summary = json.loads((Path(run_dir) / "summary.json").read_text())
    ops = [(f"verify {name}: no violation", check.get("violations") == 0)
           for name, check in sorted(summary["checks"].items())]
    ops.append(("verify: total_violations is 0", summary.get("total_violations") == 0))
    return ops, summary


def check_reference(values: dict, reference: dict, rtol: float):
    """Values of the default seed against the recorded reference values."""
    ops = [("reference: same quantities", sorted(values) == sorted(reference))]
    for name, want in sorted(reference.items()):
        got = values.get(name)
        ops.append((f"reference: {name}",
                    _finite(got) and math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)))
    return ops
