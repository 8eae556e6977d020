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
from typing import NamedTuple

import numpy as np

from . import linalg
from .corpus import ContextTable, CountMatrix, _dense_rows, batch_counts, check_dense
from .parallel import map_threads
from .tables import write_csv

CHECKPOINT_MAGIC = b"MLMCKPT1"

# Mixing weight toward uniform used when an exactly row-stochastic target
# must be made interior before taking logs.
INTERIOR_SMOOTHING = 1e-6

# Bytes of logits in one row block of `_row_blocks`, the one block generator
# behind every pass over the logits (training's loss, top-1 and gradients,
# and `diagnose`) at V <= 1024; a larger V keeps V = 1024's row count (64
# rows), as thinner blocks leave the kernel threads waiting on the
# interpreter lock. A fixed constant, so the block row count follows from V
# alone: blocked sums round differently for another block size, and reruns
# stay bit-identical on any machine.
BLOCK_BYTES = 512 * 1024

# Contiguous runs of whole row blocks that one `_sharded_pass` is cut into,
# each run on its own thread where the CPU budget allows. A fixed count, for
# the same reason as BLOCK_BYTES: the shards' sums are combined in shard
# order, so the thread count never changes a bit.
SHARDS = 2

# Adam's moment decay rates and denominator floor: the one optimizer recipe
# every run trains with.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.95, 1e-8


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

    def __reduce__(self):
        # rebuilt from its fields: without this the parent cannot unpickle a
        # pool worker's error, and the pool reports itself broken in place
        # of the divergence
        return type(self), (self.step, self.loss_value, self.max_abs_logit)


class CheckpointError(RuntimeError):
    """A checkpoint file has a bad magic string, dimensions, or payload size."""


@dataclass
class FullHead:
    w: np.ndarray  # (V, D)

    def __post_init__(self):
        self.w = linalg.as_matrix(self.w)

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

    @property
    def parts(self) -> dict:
        """The head's trainable matrices by name, in checkpoint order."""
        return {"w": self.w}

    def logits(self, h: np.ndarray, out=None) -> np.ndarray:
        """The logits h W^T, written to `out` where given."""
        return np.matmul(h, self.w.T, out=out)

    def pullback(self, g: np.ndarray, out=None) -> np.ndarray:
        """The rows' gradient g W from the logit gradient `g`, written to
        `out` where given."""
        return np.matmul(g, self.w, out=out)

    def part_grads(self, gw: np.ndarray) -> dict:
        """The parts' gradients from the V x D effective head gradient."""
        return {"w": gw}

    def matrix_step(self, grads: dict) -> np.ndarray:
        """First-order change of the head matrix under a unit-lr step, from
        the gradients keyed as `ModelParams.parts`."""
        return grads["w"]


@dataclass
class FactoredHead:
    a: np.ndarray  # (V, r)
    b: np.ndarray  # (r, D)

    def __post_init__(self):
        self.a = linalg.as_matrix(self.a)
        self.b = linalg.as_matrix(self.b)
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

    @property
    def parts(self) -> dict:
        return {"a": self.a, "b": self.b}

    def logits(self, h: np.ndarray, out=None) -> np.ndarray:
        return np.matmul(h @ self.b.T, self.a.T, out=out)

    def pullback(self, g: np.ndarray, out=None) -> np.ndarray:
        return np.matmul(g @ self.a, self.b, out=out)

    def part_grads(self, gw: np.ndarray) -> dict:
        return {"a": gw @ self.b.T, "b": self.a.T @ gw}

    def matrix_step(self, grads: dict) -> np.ndarray:
        return grads["a"] @ self.b + self.a @ grads["b"]


@dataclass
class ModelParams:
    h: np.ndarray  # (C, D)
    head: FullHead | FactoredHead

    def __post_init__(self):
        self.h = linalg.as_matrix(self.h)
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

    @property
    def parts(self) -> dict:
        """Every trainable matrix by name, in checkpoint order: the one
        layout that gradients, optimizer state and checkpoints follow."""
        return {"h": self.h, **self.head.parts}


@dataclass
class TrainConfig:
    steps: int
    lr: float
    width: int
    head_rank: int | None = None  # None for a full head
    optimizer: str = "adam"  # "gd" | "adam"
    schedule: str = "constant"  # "constant" | "cosine"
    warmup_steps: int = 0
    batch_sequences: int | None = None  # None = full batch
    seed: int = 0
    eval_every: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not self.lr >= 0:  # also refuses NaN
            raise ValueError(f"lr must be nonnegative, got {self.lr!r}")
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.head_rank is not None and not (1 <= self.head_rank <= self.width):
            raise ValueError("head_rank must lie in [1, width]")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not 0 <= self.warmup_steps <= self.steps:
            raise ValueError("warmup_steps must lie in [0, steps]")
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

    COLUMNS = ("step", "train_loss", "val_loss", "top1_acc")

    def to_csv(self, path) -> None:
        rows = [[p.step, p.train_loss, p.val_loss, p.top1_acc] for p in self.points]
        write_csv(path, self.COLUMNS, rows)

    @classmethod
    def from_csv(cls, path) -> Trajectory:
        """The trajectory `to_csv` wrote; a blank cell reads back as None and
        other columns are ignored. A missing column or a cell that does not
        parse raises a ValueError naming the file."""
        def cell(text):
            return float(text) if text else None

        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in cls.COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise ValueError(f"{path}: missing trajectory column(s) {', '.join(missing)}")
            try:
                return cls([
                    TrajectoryPoint(int(row["step"]), float(row["train_loss"]),
                                    cell(row["val_loss"]), cell(row["top1_acc"]))
                    for row in reader
                ])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc

    @property
    def final_train_loss(self) -> float:
        return self.points[-1].train_loss

    @property
    def final_val_loss(self):
        return self.points[-1].val_loss


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
    seed: int = 0,
    rng=None,
) -> ModelParams:
    """Fan-in-scaled normal initialization for all parameter matrices: std
    1 / sqrt(fan-in). The C x D rows and the V x D head are refused before
    they are allocated when either would exceed `corpus.MAX_DENSE_BYTES`."""
    check_dense("the model's context rows (contexts x width)", num_contexts, width)
    check_dense("the model's head (tokens x width)", vocab_size, width)
    if rng is None:
        rng = np.random.default_rng(seed)
    h = rng.normal(0.0, 1.0 / math.sqrt(width), size=(num_contexts, width))
    if head_rank is None:
        w = rng.normal(0.0, 1.0 / math.sqrt(width), size=(vocab_size, width))
        return ModelParams(h, FullHead(w))
    a = rng.normal(0.0, 1.0 / math.sqrt(head_rank), size=(vocab_size, head_rank))
    b = rng.normal(0.0, 1.0 / math.sqrt(width), size=(head_rank, width))
    return ModelParams(h, FactoredHead(a, b))


def logits(params: ModelParams) -> np.ndarray:
    """Pre-softmax scores, one row per context."""
    # overflow of diverging parameters is allowed through; the training loop
    # detects it downstream
    with np.errstate(over="ignore"):
        return params.head.logits(params.h)


def probs_and_loss(counts: CountMatrix, logit_matrix: np.ndarray):
    """Softmax probabilities and the count-weighted cross-entropy, in one
    dense pass: the reference `_eval_pass` and `_grad_pass` are tested against.

    Cells with a zero count contribute exactly zero regardless of the logit
    value, so the loss equals the per-token average negative log-likelihood.
    """
    lm = np.asarray(logit_matrix, dtype=np.float64)
    if lm.shape != counts.shape:
        raise ValueError(f"logit shape {lm.shape} does not match counts shape {counts.shape}")
    # non-finite logits are allowed to flow through: the caller inspects the
    # returned loss for divergence
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = lm - lm.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        z = e.sum(axis=1, keepdims=True)
        p = e / z
        logp = shifted - np.log(z)
        loss_value = -float((counts.to_dense() * logp).sum()) / counts.total
    return p, loss_value


def loss_from_logits(counts: CountMatrix, logit_matrix: np.ndarray) -> float:
    """The loss of `probs_and_loss`, summed over the nonzero counts only and
    without forming the probabilities."""
    lm = np.array(logit_matrix, dtype=np.float64)
    if lm.shape != counts.shape:
        raise ValueError(f"logit shape {lm.shape} does not match counts shape {counts.shape}")
    cells = counts.rows * counts.vocab_size + counts.cols
    return -linalg._softmax_block(lm, cells, counts.rows, counts.n)[2] / counts.total


def loss(counts: CountMatrix, params: ModelParams) -> float:
    return -_eval_pass(counts, params.h, params.head)[0] / counts.total


def _eval_pass(counts: CountMatrix, h: np.ndarray, head, workspace: _Workspace | None = None):
    """(sum of n log p, max |row max|, top-1 matches) of the counted rows'
    logits, in one `_sharded_pass`; `h` holds every context row, gathered by
    `counts.row_ids` where it has them. The blocks are those of `workspace`,
    a `_Workspace` for counts of at most its rows, or else fresh ones. The
    matches take the argmax of e / z, the probabilities of
    `linalg.softmax_rows`, so ties break the same, against `counts.targets`.
    """
    counts.targets  # filled here: the shards only read the cached argmax
    match = np.empty(counts.num_contexts, dtype=bool)
    blocks = [s.block for s in workspace.shards] if workspace else None
    shards = _sharded_pass(_eval_shard, counts, h, head, match, buffers=blocks)
    max_abs = np.max([0.0, *(s[0] for s in shards)])  # NaN-propagating
    return sum(s[1] for s in shards), float(max_abs), match


def _grad_pass(counts: CountMatrix, h: np.ndarray, head, workspace: _Workspace | None = None):
    """(max |row max|, the gradients keyed as `ModelParams.parts`) in one
    `_sharded_pass`, `h` and `workspace` as in `_eval_pass`; without a
    workspace the gradients are fresh arrays. Per block it forms the logit
    gradient g_b, gh_b = g_b W and the V x D sum of g_b^T h_b (gW, or the
    effective head gradient behind gA and gB); no C x V gradient is formed.
    A row's normalizer is non-finite exactly when its max is, so a
    non-finite max |row max| signals divergence, and then equals max |logit|.
    """
    workspace = workspace or _Workspace(counts.vocab_size, h.shape[1], counts.num_contexts)
    gh = workspace.rows_gradient(counts.num_contexts)
    shards = _sharded_pass(_gradient_shard, counts, h, head, gh, buffers=workspace.shards)
    gw = shards[0][1]
    for shard in shards[1:]:
        gw += shard[1]
    max_abs = np.max([0.0, *(s[0] for s in shards)])  # NaN-propagating
    return float(max_abs), {"h": gh, **head.part_grads(gw)}


def _sharded_pass(shard, counts: CountMatrix, *args, buffers=None) -> list:
    """[shard(counts, *args, buffers[k], starts) for the k-th run of row
    blocks], in run order, for the shards of `_eval_pass` and `_grad_pass`:
    the one place where a pass over the logits runs on threads. `buffers`
    holds one shard's buffers per run, by default a fresh row block of
    logits (`_block_buffers`).

    The row blocks of `_block_starts` are cut into SHARDS contiguous runs,
    each on its own thread where `parallel.cpu_budget()` allows; callers
    combine the results in run order, so the thread count never changes a
    bit. `shard` calls no public headlab function (the benchmark's tracer
    keeps one span stack), so its buffers are made here, and it sets its
    own numpy error state (per thread).
    """
    starts = _block_starts(counts)
    cuts = [len(starts) * k // SHARDS for k in range(SHARDS + 1)]
    runs = [starts[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    if buffers is None:
        buffers = _block_buffers(counts.vocab_size, counts.num_contexts, len(runs))
    return map_threads(shard, [(counts, *args, b, run) for b, run in zip(buffers, runs)])


def _block_rows(vocab_size: int) -> int:
    """Rows per row block: BLOCK_BYTES of logits, V counted up to 1024, and
    no more rows than the dense-size guard lets through (binding only under
    a limit far below its default); at least one."""
    rows = BLOCK_BYTES // (8 * min(vocab_size, 1024))
    return max(1, min(rows, _dense_rows(vocab_size)))


def _block_starts(counts: CountMatrix) -> range:
    """The first rows of the row blocks of `_block_rows`."""
    return range(0, counts.num_contexts, _block_rows(counts.vocab_size))


def _block_buffers(vocab_size: int, num_contexts: int, count: int) -> list:
    """`count` buffers, each room for the logits of the largest row block of
    `num_contexts` rows, refused (`corpus.check_dense`) before they are
    allocated where even one row is too large."""
    rows = min(_block_rows(vocab_size), num_contexts)
    check_dense("a row block of logits (rows x tokens)", rows, vocab_size)
    return [np.empty((rows, vocab_size)) for _ in range(count)]


class _ShardBuffers(NamedTuple):
    """One shard's buffers: a row block of logits, its V x D gW accumulator
    and one block's V x D term of it."""

    block: np.ndarray
    gw: np.ndarray
    term: np.ndarray


class _Workspace:
    """The buffers a run's logit passes reuse from pass to pass: one
    `_ShardBuffers` per shard, for passes over at most `num_contexts` rows of
    V tokens, and the rows' gradient gh, grown only for a larger pass."""

    def __init__(self, vocab_size: int, width: int, num_contexts: int):
        self.shards = [_ShardBuffers(block, np.empty((vocab_size, width)),
                                     np.empty((vocab_size, width)))
                       for block in _block_buffers(vocab_size, num_contexts, SHARDS)]
        self._gh = np.empty((0, width))

    def rows_gradient(self, num_contexts: int) -> np.ndarray:
        """A C x D buffer for the gradient of `num_contexts` rows."""
        if num_contexts > len(self._gh):
            self._gh = np.empty((num_contexts, self._gh.shape[1]))
        return self._gh[:num_contexts]


def _check_shape(counts: CountMatrix, h: np.ndarray, head) -> None:
    """Refuse a model whose rows `h` or whose head's vocabulary do not match
    `counts`; `h` holds every context row where the counts carry `row_ids`."""
    if ((counts.row_ids is None and h.shape[0] != counts.num_contexts)
            or head.vocab_size != counts.vocab_size):
        raise ValueError(f"model shape ({h.shape[0]}, {head.vocab_size}) does not match "
                         f"counts shape {counts.shape}")


def _row_blocks(counts: CountMatrix, h, head, starts: range | None = None, out=None):
    """(rows, nz, i, cells, h_b, logits) per row block beginning at `starts`
    (a slice of `_block_starts`, by default all of it): its row slice, the
    slice of its count triplets, their rows in the block, their flat indices
    into its C-ordered logits, its rows of `h` and its logits h_b W^T. The
    logits of every block are written to leading rows of `out`, by default
    one of `_block_buffers` for the call, so a block is overwritten by the
    next.
    A model of the wrong shape is refused (`_check_shape`) at the first
    block."""
    _check_shape(counts, h, head)
    starts = _block_starts(counts) if starts is None else starts
    if out is None:
        out, = _block_buffers(counts.vocab_size, counts.num_contexts, 1)
    bounds = np.searchsorted(counts.rows, [*starts, starts.stop])
    for lo, nz_lo, nz_hi in zip(starts, bounds[:-1], bounds[1:]):
        rows, nz = slice(lo, lo + starts.step), slice(nz_lo, nz_hi)
        i = counts.rows[nz] - lo
        h_b = h[rows] if counts.row_ids is None else h[counts.row_ids[rows]]
        with np.errstate(over="ignore", invalid="ignore"):
            lm = head.logits(h_b, out=out[:len(h_b)])
        yield rows, nz, i, i * counts.vocab_size + counts.cols[nz], h_b, lm


def _gradient_in_place(counts: CountMatrix, lm: np.ndarray, rows: slice, nz: slice, i, cells,
                       logp: bool = False):
    """Overwrite a block's logits `lm` with its logit gradient
    g_b = w p - n / N, the counts read from their triplets. Returns the row
    maxima and, given `logp`, the sum of n log p over the triplets."""
    triplets = (cells, i, counts.n[nz]) if logp else ()
    z, row_max, logp_sum = linalg._softmax_block(lm, *triplets)
    lm *= counts.weights[rows, None] / z
    lm.reshape(-1)[cells] -= counts.n[nz] / counts.total
    return row_max, logp_sum


def _eval_shard(counts: CountMatrix, h, head, match, block, starts: range):
    """Writes the blocks' rows of `match`, each block's logits in `block`;
    returns (max |row max|, sum of n log p). Non-finite values of a diverged
    model flow through."""
    max_abs = logp_sum = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, nz, i, cells, _, lm in _row_blocks(counts, h, head, starts, block):
            z, row_max, block_sum = linalg._softmax_block(lm, cells, i, counts.n[nz])
            logp_sum += block_sum
            lm /= z
            match[rows] = lm.argmax(axis=1) == counts.targets[rows]
            max_abs = np.maximum(max_abs, np.abs(row_max).max())
    return max_abs, logp_sum


def _gradient_shard(counts: CountMatrix, h, head, gh, buffers: _ShardBuffers, starts: range):
    """Writes the blocks' rows of `gh`; returns (max |row max|, the blocks'
    V x D gW term, summed in `buffers.gw`). Non-finite values of a diverged
    model flow through."""
    max_abs, gw = 0.0, buffers.gw
    gw.fill(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, nz, i, cells, h_b, lm in _row_blocks(counts, h, head, starts, buffers.block):
            row_max, _ = _gradient_in_place(counts, lm, rows, nz, i, cells)
            head.pullback(lm, out=gh[rows])
            gw += np.matmul(lm.T, h_b, out=buffers.term)
            max_abs = np.maximum(max_abs, np.abs(row_max).max())
    return max_abs, gw


def entropy_floor(counts: CountMatrix) -> float:
    """Weighted entropy of the empirical rows: the unconstrained loss optimum."""
    n = counts.n
    val = float((n * np.log(n / counts.row_sums[counts.rows])).sum())
    return -val / counts.total


def smoothed_log_target(counts: CountMatrix) -> np.ndarray:
    """Log of the normalized rows mixed with uniform by INTERIOR_SMOOTHING:
    a finite logit target."""
    delta = INTERIOR_SMOOTHING
    return np.log((1.0 - delta) * counts.to_dense(normalized=True) + delta / counts.vocab_size)


def param_gradients(counts: CountMatrix, params: ModelParams) -> dict:
    """Exact analytic gradients of every part, keyed as `params.parts`."""
    return _grad_pass(counts, params.h, params.head)[1]


def first_order_logit_update(counts: CountMatrix, params: ModelParams) -> np.ndarray:
    """Rescaled first-order logit change under one plain gradient step of
    every part: -(grad_H @ W^T + H @ grad_W^T). Its rank is at most twice the
    head width for a full head.
    """
    grads = param_gradients(counts, params)
    delta = np.zeros((params.num_contexts, params.vocab_size))
    delta -= grads["h"] @ params.head.matrix.T
    delta -= params.h @ params.head.matrix_step(grads).T
    return delta


class Top1Accuracy(NamedTuple):
    """(weighted, unweighted) argmax agreement between model and counts."""

    weighted: float
    unweighted: float


def _top1_from_match(counts: CountMatrix, match: np.ndarray) -> Top1Accuracy:
    weighted = float(min((counts.weights * match).sum(), 1.0))
    unweighted = float(match.mean())
    return Top1Accuracy(weighted, unweighted)


def top1_accuracy(counts: CountMatrix, params: ModelParams) -> Top1Accuracy:
    """Fraction of contexts whose argmax token matches the empirical argmax.

    Ties break toward the lowest token id on both sides.
    """
    return _top1_from_match(counts, _eval_pass(counts, params.h, params.head)[2])


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


class _Optimizer:
    """Plain gradient descent, or Adam with bias correction, over every part
    of `ModelParams.parts`. Adam's moment rows of H are only touched when the
    corresponding context appears in the step's batch. Each part's update is
    formed in two scratch arrays of its shape (GD writes only the first), in
    place of a temporary per operation."""

    def __init__(self, config: TrainConfig, params: ModelParams):
        self.config = config
        self.t = 0
        moments = params.parts if config.optimizer == "adam" else {}
        self.m = {name: np.zeros_like(p) for name, p in moments.items()}
        self.v = {name: np.zeros_like(p) for name, p in moments.items()}
        self.scratch = {name: (np.empty_like(p), np.empty_like(p))
                        for name, p in params.parts.items()}

    def step(self, params: ModelParams, grads: dict, lr: float, h_rows=None):
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.t += 1
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for name, target in params.parts.items():
            rows = h_rows if name == "h" and h_rows is not None else slice(None)
            grad = grads[name]
            # the step's scratch rows: all of them, or as many as the batch's
            s, t = (buf[:len(grad)] for buf in self.scratch[name])
            if self.config.optimizer == "gd":
                np.multiply(lr, grad, out=s)
            else:
                # a view of the whole slot, or a copy of the batch's rows
                m, v = self.m[name][rows], self.v[name][rows]
                m *= b1
                m += np.multiply(1.0 - b1, grad, out=s)
                v *= b2
                v += np.multiply(1.0 - b2, np.square(grad, out=s), out=s)
                self.m[name][rows], self.v[name][rows] = m, v
                # lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
                np.multiply(lr, np.divide(m, c1, out=s), out=s)
                s /= np.add(np.sqrt(np.divide(v, c2, out=t), out=t), ADAM_EPS, out=t)
            target[rows] -= s


def _eval_point(
    step: int,
    counts: CountMatrix,
    params: ModelParams,
    val_counts: CountMatrix | None,
    workspace: _Workspace,
) -> TrajectoryPoint:
    logp_sum, _, match = _eval_pass(counts, params.h, params.head, workspace)
    val_loss = None
    if val_counts is not None:
        val_loss = -_eval_pass(val_counts, params.h, params.head, workspace)[0] / val_counts.total
    return TrajectoryPoint(
        step=step,
        train_loss=-logp_sum / counts.total,
        val_loss=val_loss,
        top1_acc=_top1_from_match(counts, match).weighted,
    )


def train(
    counts: CountMatrix,
    config: TrainConfig,
    params: ModelParams | None = None,
    val_counts: CountMatrix | None = None,
    snapshot_steps=(),
    table: ContextTable | None = None,
) -> TrainResult:
    """Run the configured optimizer and record a loss trajectory.

    `counts` are the full training counts. When `config.batch_sequences`
    requests per-step sequence batches, each batch is counted from `table`,
    the ContextTable `counts` were built with. Batches are drawn without
    replacement within an epoch; contexts absent from a batch keep their
    representation rows (and Adam moments) untouched. Fully deterministic
    given the config seed; a non-finite loss aborts with a
    TrainingDivergedError.
    """
    if config.batch_sequences is not None and table is None:
        raise ValueError("mini-batch training needs the ContextTable the counts were built with")
    if table is not None and len(table) != counts.num_contexts:
        raise ValueError(f"table has {len(table)} contexts but the counts have "
                         f"{counts.num_contexts}")
    wanted_snapshots = set(int(s) for s in snapshot_steps)
    if any(not 0 <= s <= config.steps for s in wanted_snapshots):
        raise ValueError(f"snapshot_steps must lie in [0, steps] = [0, {config.steps}], "
                         f"got {sorted(wanted_snapshots)}")

    rng = np.random.default_rng(config.seed)
    if params is None:
        params = init_params(
            counts.num_contexts,
            counts.vocab_size,
            config.width,
            config.head_rank,
            rng=rng,
        )
    else:
        params = params.copy()
        if params.width != config.width:
            raise ValueError("explicit params width does not match the config")

    optimizer = _Optimizer(config, params)
    # the mini-batches and the validation counts hold a subset of these rows
    workspace = _Workspace(counts.vocab_size, config.width, counts.num_contexts)
    trajectory = Trajectory()
    snapshots = []
    trajectory.points.append(_eval_point(0, counts, params, val_counts, workspace))
    if 0 in wanted_snapshots:
        snapshots.append((0, params.copy()))

    epoch_order = None
    epoch_pos = 0
    num_seqs = len(table.starts) - 1 if table is not None else 0

    for step in range(config.steps):
        if config.batch_sequences is None:
            step_counts = counts
        else:
            k = min(config.batch_sequences, num_seqs)
            if epoch_order is None or epoch_pos + k > num_seqs:
                epoch_order = rng.permutation(num_seqs)
                epoch_pos = 0
            batch = epoch_order[epoch_pos : epoch_pos + k]
            epoch_pos += k
            step_counts = batch_counts(table, batch)

        max_abs, grads = _grad_pass(step_counts, params.h, params.head, workspace)
        if not math.isfinite(max_abs):
            # a gradient pass skips the loss sum; only a diverged step pays for one
            raise TrainingDivergedError(step, loss(step_counts, params), max_abs)
        optimizer.step(params, grads, _lr_at(config, step), h_rows=step_counts.row_ids)

        done = step + 1
        if done % config.eval_every == 0 or done == config.steps:
            trajectory.points.append(_eval_point(done, counts, params, val_counts, workspace))
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
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<4q", c, v, d, r))
        for mat in params.parts.values():
            fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


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
