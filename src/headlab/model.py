"""Rank-constrained matrix language models.

The model assigns each distinct context its own trainable representation row
(C x D matrix) and scores tokens through a linear head, either a full V x D
matrix or a low-rank factorization A (V x r) times B (r x D). The loss is the
token-count-weighted cross-entropy between the softmaxed logits and the
empirical next-token distributions; its gradients are analytic and exact.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, ContextTable, CountMatrix, batch_counts
from .linalg import as_matrix, softmax_rows

CHECKPOINT_MAGIC = b"MLMCKPT1"

# Mixing weight toward uniform used when an exactly row-stochastic target
# must be made interior before taking logs.
INTERIOR_SMOOTHING = 1e-6

# Size of one row block of logits in the evaluation pass (`loss`, trajectory
# points); the block row count follows from the vocabulary size.
EVAL_BLOCK_BYTES = 8 * 1024**2


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss."""

    def __init__(self, step: int, loss_value: float, max_abs_logit: float):
        super().__init__(
            f"non-finite loss at step {step}: loss={loss_value!r}, "
            f"max|logit|={max_abs_logit!r}"
        )
        self.step = step
        self.loss_value = loss_value
        self.max_abs_logit = max_abs_logit


class CheckpointError(RuntimeError):
    """A checkpoint file has a bad magic string, dimensions, or payload size."""


@dataclass
class FullHead:
    w: np.ndarray  # (V, D)

    def __post_init__(self):
        self.w = as_matrix(self.w)

    @property
    def matrix(self) -> np.ndarray:
        return self.w

    @property
    def vocab_size(self) -> int:
        return self.w.shape[0]

    @property
    def width(self) -> int:
        return self.w.shape[1]

    def copy(self) -> "FullHead":
        return FullHead(self.w.copy())


@dataclass
class FactoredHead:
    a: np.ndarray  # (V, r)
    b: np.ndarray  # (r, D)

    def __post_init__(self):
        self.a = as_matrix(self.a)
        self.b = as_matrix(self.b)
        if self.a.shape[1] != self.b.shape[0]:
            raise ValueError("inner dimensions of the factors do not match")
        if self.rank > self.width:
            raise ValueError("factor rank must not exceed the head width")

    @property
    def matrix(self) -> np.ndarray:
        return self.a @ self.b

    @property
    def vocab_size(self) -> int:
        return self.a.shape[0]

    @property
    def width(self) -> int:
        return self.b.shape[1]

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def copy(self) -> "FactoredHead":
        return FactoredHead(self.a.copy(), self.b.copy())


@dataclass
class ModelParams:
    h: np.ndarray  # (C, D)
    head: FullHead | FactoredHead

    def __post_init__(self):
        self.h = as_matrix(self.h)
        if self.h.shape[1] != self.head.width:
            raise ValueError("representation width does not match the head width")

    @property
    def num_contexts(self) -> int:
        return self.h.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.head.vocab_size

    @property
    def width(self) -> int:
        return self.h.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.h.copy(), self.head.copy())


@dataclass
class Gradients:
    """Analytic gradient blocks, mirroring the parameter layout."""

    h: np.ndarray
    w: np.ndarray | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None


@dataclass
class TrainConfig:
    steps: int
    lr: float
    width: int
    head_rank: int | None = None  # None for a full head
    optimizer: str = "adam"  # "gd" | "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    schedule: str = "constant"  # "constant" | "cosine"
    warmup_steps: int = 0
    batch_sequences: int | None = None  # None = full batch
    seed: int = 0
    init_scale: float = 1.0
    eval_every: int = 100
    update_h: bool = True
    update_head: bool = True

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.head_rank is not None and not (1 <= self.head_rank <= self.width):
            raise ValueError("head_rank must lie in [1, width]")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.warmup_steps > self.steps:
            raise ValueError("warmup_steps must not exceed steps")
        if self.eval_every < 1:
            raise ValueError("eval_every must be positive")
        if self.batch_sequences is not None and self.batch_sequences < 1:
            raise ValueError("batch_sequences must be positive")


@dataclass
class TrajectoryPoint:
    step: int
    train_loss: float
    val_loss: float | None = None
    top1_acc: float | None = None


@dataclass
class Trajectory:
    points: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "train_loss", "val_loss", "top1_acc"])
            for p in self.points:
                writer.writerow(
                    [
                        p.step,
                        repr(p.train_loss),
                        "" if p.val_loss is None else repr(p.val_loss),
                        "" if p.top1_acc is None else repr(p.top1_acc),
                    ]
                )

    @property
    def final_train_loss(self) -> float:
        return self.points[-1].train_loss

    @property
    def final_val_loss(self):
        return self.points[-1].val_loss


@dataclass
class Dataset:
    """A corpus together with its counted form; needed for mini-batch training."""

    corpus: Corpus
    table: ContextTable
    counts: CountMatrix
    max_context_len: int


@dataclass
class TrainResult:
    params: ModelParams
    trajectory: Trajectory
    snapshots: list = field(default_factory=list)  # (step, ModelParams)


def init_params(
    num_contexts: int,
    vocab_size: int,
    width: int,
    head_rank: int | None = None,
    init_scale: float = 1.0,
    seed: int = 0,
    rng=None,
) -> ModelParams:
    """Fan-in-scaled normal initialization for all parameter matrices."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if init_scale <= 0:
        raise ValueError("init_scale must be positive")
    h = rng.normal(0.0, init_scale / math.sqrt(width), size=(num_contexts, width))
    if head_rank is None:
        w = rng.normal(0.0, init_scale / math.sqrt(width), size=(vocab_size, width))
        return ModelParams(h, FullHead(w))
    a = rng.normal(0.0, init_scale / math.sqrt(head_rank), size=(vocab_size, head_rank))
    b = rng.normal(0.0, init_scale / math.sqrt(width), size=(head_rank, width))
    return ModelParams(h, FactoredHead(a, b))


def _effective_logits(h: np.ndarray, head) -> np.ndarray:
    # overflow of diverging parameters is allowed through; the training loop
    # detects it downstream
    with np.errstate(over="ignore"):
        if isinstance(head, FactoredHead):
            return (h @ head.b.T) @ head.a.T
        return h @ head.w.T


def logits(params: ModelParams) -> np.ndarray:
    """Pre-softmax scores, one row per context."""
    return _effective_logits(params.h, params.head)


def probs_and_loss(counts: CountMatrix, logit_matrix: np.ndarray):
    """Softmax probabilities and the count-weighted cross-entropy, in one pass.

    Cells with a zero count contribute exactly zero regardless of the logit
    value, so the loss equals the per-token average negative log-likelihood.
    """
    lm = np.asarray(logit_matrix, dtype=np.float64)
    if lm.shape != counts.counts.shape:
        raise ValueError(
            f"logit shape {lm.shape} does not match counts shape {counts.counts.shape}"
        )
    # non-finite logits are allowed to flow through: the caller inspects the
    # returned loss for divergence
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = lm - lm.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        z = e.sum(axis=1, keepdims=True)
        p = e / z
        logp = shifted - np.log(z)
        loss_value = -float((counts.counts * logp).sum()) / counts.total
    return p, loss_value


def loss_from_logits(counts: CountMatrix, logit_matrix: np.ndarray) -> float:
    return probs_and_loss(counts, logit_matrix)[1]


def loss(counts: CountMatrix, params: ModelParams) -> float:
    return _blocked_eval(counts, params)[0]


def _blocked_eval(counts: CountMatrix, params: ModelParams, with_top1: bool = False):
    """Loss, and optionally top-1 accuracy, over row blocks of the logits.

    Each block holds about EVAL_BLOCK_BYTES of logits, so no C x V temporary
    is formed. Per block the loss takes n_ij * log p_ij over the nonzero
    counts only, with log p computed as in `probs_and_loss`; the top-1 argmax
    runs over the same normalized probabilities as `_top1_from_probs`, so
    ties break identically. Returns (loss, Top1Accuracy or None).
    """
    c, v = counts.counts.shape
    if (counts.row_ids is None and params.num_contexts != c) or params.vocab_size != v:
        raise ValueError(
            f"model shape ({params.num_contexts}, {params.vocab_size}) does not match "
            f"counts shape {counts.counts.shape}"
        )
    block = max(1, EVAL_BLOCK_BYTES // (8 * v))
    nz_rows, nz_cols = counts.nonzero
    nz_bounds = np.searchsorted(nz_rows, np.arange(0, c + block, block))
    logp_sum = 0.0
    match = np.empty(c, dtype=bool) if with_top1 else None
    for b, lo in enumerate(range(0, c, block)):
        rows = slice(lo, lo + block)
        h = params.h[rows] if counts.row_ids is None else params.h[counts.row_ids[rows]]
        nz = slice(nz_bounds[b], nz_bounds[b + 1])
        i, j = nz_rows[nz], nz_cols[nz]
        lm = _effective_logits(h, params.head)
        # non-finite logits flow through to a non-finite loss, as in probs_and_loss
        with np.errstate(over="ignore", invalid="ignore"):
            lm -= lm.max(axis=1, keepdims=True)
            shifted = lm[i - lo, j]
            np.exp(lm, out=lm)
            z = lm.sum(axis=1, keepdims=True)
            logp = shifted - np.log(z[i - lo, 0])
            logp_sum += float((counts.counts[i, j] * logp).sum())
            if with_top1:
                lm /= z
                match[rows] = lm.argmax(axis=1) == counts.normalized[rows].argmax(axis=1)
    top1 = _top1_from_match(counts, match) if with_top1 else None
    return -logp_sum / counts.total, top1


def entropy_floor(counts: CountMatrix) -> float:
    """Weighted entropy of the empirical rows: the unconstrained loss optimum."""
    n = counts.counts
    nz = n > 0
    val = float((n[nz] * np.log(counts.normalized[nz])).sum())
    return -val / counts.total


def smoothed_log_target(counts: CountMatrix, delta: float = INTERIOR_SMOOTHING) -> np.ndarray:
    """Log of the normalized rows mixed with uniform: a finite logit target."""
    v = counts.vocab_size
    return np.log((1.0 - delta) * counts.normalized + delta / v)


def logit_gradient(counts: CountMatrix, p: np.ndarray) -> np.ndarray:
    """Loss gradient with respect to the logits, given probabilities `p`.

    Rows are weighted by the context weights; every row sums to zero because
    both `p` and the normalized counts are row-stochastic.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != counts.counts.shape:
        raise ValueError("probability shape does not match counts shape")
    return counts.weights[:, None] * (p - counts.normalized)


def _grads_from_logit_gradient(h: np.ndarray, head, g: np.ndarray) -> Gradients:
    if isinstance(head, FactoredHead):
        gh = (g @ head.a) @ head.b
        gw_eff = g.T @ h  # (V, D)
        ga = gw_eff @ head.b.T
        gb = head.a.T @ gw_eff
        return Gradients(h=gh, a=ga, b=gb)
    gh = g @ head.w
    gw = g.T @ h
    return Gradients(h=gh, w=gw)


def param_gradients(counts: CountMatrix, params: ModelParams) -> Gradients:
    """Exact analytic gradients for the representations and the head."""
    p, _ = probs_and_loss(counts, _logits_for_counts(counts, params))
    g = logit_gradient(counts, p)
    return _grads_from_logit_gradient(params.h, params.head, g)


def _logits_for_counts(counts: CountMatrix, params: ModelParams) -> np.ndarray:
    """Logits for the rows the counts refer to (all rows, or a batch subset)."""
    if counts.row_ids is None:
        return logits(params)
    return _effective_logits(params.h[counts.row_ids], params.head)


def _fused_logit_gradient(counts: CountMatrix, h: np.ndarray, head):
    """In-place softmax pass producing the logit gradient, or None on a
    non-finite normalizer (the divergence signal). Arithmetic is identical to
    the logit_gradient(softmax(logits)) composition."""
    lm = _effective_logits(h, head)
    with np.errstate(over="ignore", invalid="ignore"):
        lm -= lm.max(axis=1, keepdims=True)
        np.exp(lm, out=lm)
        z = lm.sum(axis=1, keepdims=True)
        if not np.all(np.isfinite(z)):
            return None
        lm /= z
        lm -= counts.normalized
        lm *= counts.weights[:, None]
    return lm


def _head_matrix_step(params: ModelParams, grads: Gradients) -> np.ndarray:
    """First-order change of the effective head matrix under a unit-lr step."""
    head = params.head
    if isinstance(head, FactoredHead):
        return grads.a @ head.b + head.a @ grads.b
    return grads.w


def first_order_logit_update(
    counts: CountMatrix,
    params: ModelParams,
    update_h: bool = True,
    update_head: bool = True,
) -> np.ndarray:
    """Rescaled first-order logit change under one plain gradient step.

    Equals -(grad_H @ W^T + H @ grad_W^T) when both parameter groups move;
    either term can be switched off. Its rank is at most twice the head width
    for a full head.
    """
    grads = param_gradients(counts, params)
    wm = params.head.matrix
    delta = np.zeros((params.num_contexts, params.vocab_size))
    if update_h:
        delta -= grads.h @ wm.T
    if update_head:
        delta -= params.h @ _head_matrix_step(params, grads).T
    return delta


def exact_logit_update(
    counts: CountMatrix,
    params: ModelParams,
    lr: float,
    update_h: bool = True,
    update_head: bool = True,
) -> np.ndarray:
    """(logits(params - lr * grad) - logits(params)) / lr, computed exactly."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    grads = param_gradients(counts, params)
    stepped = params.copy()
    if update_h:
        stepped.h -= lr * grads.h
    if update_head:
        if isinstance(stepped.head, FactoredHead):
            stepped.head.a -= lr * grads.a
            stepped.head.b -= lr * grads.b
        else:
            stepped.head.w -= lr * grads.w
    return (logits(stepped) - logits(params)) / lr


class Top1Accuracy(tuple):
    """(weighted, unweighted) argmax agreement between model and counts."""

    __slots__ = ()

    def __new__(cls, weighted: float, unweighted: float):
        return super().__new__(cls, (weighted, unweighted))

    @property
    def weighted(self) -> float:
        return self[0]

    @property
    def unweighted(self) -> float:
        return self[1]


def _top1_from_probs(counts: CountMatrix, p: np.ndarray) -> Top1Accuracy:
    return _top1_from_match(counts, p.argmax(axis=1) == counts.normalized.argmax(axis=1))


def _top1_from_match(counts: CountMatrix, match: np.ndarray) -> Top1Accuracy:
    weighted = float(min((counts.weights * match).sum(), 1.0))
    unweighted = float(match.mean())
    return Top1Accuracy(weighted, unweighted)


def top1_accuracy(counts: CountMatrix, params: ModelParams) -> Top1Accuracy:
    """Fraction of contexts whose argmax token matches the empirical argmax.

    Ties break toward the lowest token id on both sides.
    """
    p = softmax_rows(_logits_for_counts(counts, params))
    return _top1_from_probs(counts, p)


def _lr_at(config: TrainConfig, step: int) -> float:
    """Learning rate for the 0-based update index `step`."""
    if config.schedule == "constant":
        return config.lr
    w = config.warmup_steps
    if w > 0 and step < w:
        return config.lr * (step + 1) / w
    if config.steps <= w:
        return config.lr
    progress = (step - w) / (config.steps - w)
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class _PlainGd:
    def __init__(self, config: TrainConfig):
        self.config = config

    def step(self, params: ModelParams, grads: Gradients, lr: float, h_rows=None):
        cfg = self.config
        if cfg.update_h:
            if h_rows is None:
                params.h -= lr * grads.h
            else:
                params.h[h_rows] -= lr * grads.h
        if cfg.update_head:
            head = params.head
            if isinstance(head, FactoredHead):
                head.a -= lr * grads.a
                head.b -= lr * grads.b
            else:
                head.w -= lr * grads.w


class _Adam:
    """Adam with bias correction; moment rows of H are only touched when the
    corresponding context appears in the step's batch."""

    def __init__(self, config: TrainConfig, params: ModelParams):
        self.config = config
        self.t = 0
        self.m = {}
        self.v = {}
        self._init_slot("h", params.h)
        head = params.head
        if isinstance(head, FactoredHead):
            self._init_slot("a", head.a)
            self._init_slot("b", head.b)
        else:
            self._init_slot("w", head.w)

    def _init_slot(self, name: str, ref: np.ndarray):
        self.m[name] = np.zeros_like(ref)
        self.v[name] = np.zeros_like(ref)

    def _update(self, name: str, target: np.ndarray, grad: np.ndarray, lr: float, rows=None):
        cfg = self.config
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        if rows is None:
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad**2
            target -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
        else:
            m = b1 * self.m[name][rows] + (1.0 - b1) * grad
            v = b2 * self.v[name][rows] + (1.0 - b2) * grad**2
            self.m[name][rows] = m
            self.v[name][rows] = v
            target[rows] -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)

    def step(self, params: ModelParams, grads: Gradients, lr: float, h_rows=None):
        cfg = self.config
        self.t += 1
        if cfg.update_h:
            self._update("h", params.h, grads.h, lr, rows=h_rows)
        if cfg.update_head:
            head = params.head
            if isinstance(head, FactoredHead):
                self._update("a", head.a, grads.a, lr)
                self._update("b", head.b, grads.b, lr)
            else:
                self._update("w", head.w, grads.w, lr)


def _eval_point(
    step: int,
    counts: CountMatrix,
    params: ModelParams,
    val_counts: CountMatrix | None,
) -> TrajectoryPoint:
    train_loss, top1 = _blocked_eval(counts, params, with_top1=True)
    val_loss = None
    if val_counts is not None:
        val_loss = loss(val_counts, params)
    return TrajectoryPoint(
        step=step, train_loss=train_loss, val_loss=val_loss, top1_acc=top1.weighted
    )


def train(
    data,
    config: TrainConfig,
    params: ModelParams | None = None,
    val_counts: CountMatrix | None = None,
    snapshot_steps=(),
) -> TrainResult:
    """Run the configured optimizer and record a loss trajectory.

    `data` is a CountMatrix for full-batch training, or a Dataset when
    `config.batch_sequences` requests per-step sequence batches. Batches are
    drawn without replacement within an epoch; contexts absent from a batch
    keep their representation rows (and Adam moments) untouched. Fully
    deterministic given the config seed; a non-finite loss aborts with a
    TrainingDivergedError.
    """
    if isinstance(data, Dataset):
        counts = data.counts
        dataset = data
    elif isinstance(data, CountMatrix):
        counts = data
        dataset = None
    else:
        raise TypeError("data must be a CountMatrix or Dataset")
    if config.batch_sequences is not None and dataset is None:
        raise ValueError("mini-batch training needs a Dataset, not a bare CountMatrix")

    rng = np.random.default_rng(config.seed)
    if params is None:
        params = init_params(
            counts.num_contexts,
            counts.vocab_size,
            config.width,
            config.head_rank,
            config.init_scale,
            rng=rng,
        )
    else:
        params = params.copy()
        if params.width != config.width:
            raise ValueError("explicit params width does not match the config")

    optimizer = _Adam(config, params) if config.optimizer == "adam" else _PlainGd(config)
    wanted_snapshots = set(int(s) for s in snapshot_steps)
    trajectory = Trajectory()
    snapshots = []
    trajectory.points.append(_eval_point(0, counts, params, val_counts))
    if 0 in wanted_snapshots:
        snapshots.append((0, params.copy()))

    epoch_order = None
    epoch_pos = 0
    num_seqs = len(dataset.corpus.sequences) if dataset is not None else 0

    for step in range(config.steps):
        if config.batch_sequences is None:
            step_counts = counts
            h_rows = None
        else:
            k = min(config.batch_sequences, num_seqs)
            if epoch_order is None or epoch_pos + k > num_seqs:
                epoch_order = rng.permutation(num_seqs)
                epoch_pos = 0
            batch = epoch_order[epoch_pos : epoch_pos + k]
            epoch_pos += k
            step_counts = batch_counts(
                dataset.corpus, dataset.table, batch, dataset.max_context_len
            )
            h_rows = step_counts.row_ids

        h_active = params.h if h_rows is None else params.h[h_rows]
        g = _fused_logit_gradient(step_counts, h_active, params.head)
        if g is None:
            logit_matrix = _effective_logits(h_active, params.head)
            _, bad_loss = probs_and_loss(step_counts, logit_matrix)
            with np.errstate(invalid="ignore"):
                max_abs = float(np.abs(logit_matrix).max())
            raise TrainingDivergedError(step, bad_loss, max_abs)
        grads = _grads_from_logit_gradient(h_active, params.head, g)
        optimizer.step(params, grads, _lr_at(config, step), h_rows=h_rows)

        done = step + 1
        if done % config.eval_every == 0 or done == config.steps:
            trajectory.points.append(_eval_point(done, counts, params, val_counts))
        if done in wanted_snapshots:
            snapshots.append((done, params.copy()))

    return TrainResult(params=params, trajectory=trajectory, snapshots=snapshots)


def save_checkpoint(path, params: ModelParams) -> None:
    """Binary checkpoint: magic, (C, V, D, r or 0) int64 LE, then the matrices.

    A full head stores H then W; a factored head stores H then A then B.
    All matrices are row-major little-endian float64.
    """
    head = params.head
    c, d = params.h.shape
    v = head.vocab_size
    r = head.rank if isinstance(head, FactoredHead) else 0
    blobs = [np.ascontiguousarray(params.h, dtype="<f8").tobytes()]
    if isinstance(head, FactoredHead):
        blobs.append(np.ascontiguousarray(head.a, dtype="<f8").tobytes())
        blobs.append(np.ascontiguousarray(head.b, dtype="<f8").tobytes())
    else:
        blobs.append(np.ascontiguousarray(head.w, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<4q", c, v, d, r))
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(CHECKPOINT_MAGIC) + 32:
        raise CheckpointError("file too short for a checkpoint header")
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic string")
    c, v, d, r = struct.unpack_from("<4q", data, len(CHECKPOINT_MAGIC))
    if c < 1 or v < 1 or d < 1 or r < 0 or r > d:
        raise CheckpointError(f"bad dimensions (C={c}, V={v}, D={d}, r={r})")
    offset = len(CHECKPOINT_MAGIC) + 32
    shapes = [(c, d)] + ([(v, r), (r, d)] if r > 0 else [(v, d)])
    expected = offset + sum(rows * cols * 8 for rows, cols in shapes)
    if len(data) != expected:
        raise CheckpointError(
            f"payload size {len(data)} does not match dimensions (expected {expected})"
        )
    mats = []
    for rows, cols in shapes:
        nbytes = rows * cols * 8
        mats.append(
            np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset)
            .reshape(rows, cols)
            .astype(np.float64)
        )
        offset += nbytes
    if any(not np.all(np.isfinite(mat)) for mat in mats):
        raise CheckpointError("checkpoint contains non-finite values")
    if r > 0:
        return ModelParams(mats[0], FactoredHead(mats[1], mats[2]))
    return ModelParams(mats[0], FullHead(mats[1]))
