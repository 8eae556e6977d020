"""Measurement battery for head-gradient compression.

Every probe is a pure, read-only function over a counted corpus and a model
snapshot, or over a logit gradient the caller formed: per-token gradient
rank curves, the fraction of the logit-gradient norm falling into the kernel
of the head, cosine alignment with the retained part, sorted coefficient
profiles, update-direction efficiency, and the unavoidable low-rank residual
of the parameter-induced logit update.

`diagnose` reads them off the snapshot in the row blocks of
`model._row_blocks` and never forms a C x V matrix. Each of its passes is
one serial walk of the blocks, in row order: `gradient_pass` accumulates the
kernel split, the coefficient profile and the norms of the logit gradient,
`update_efficiency` the perturbed losses, and `gradient_gap` the V x V Gram
matrix. `compression_report` and `coefficient_profile` are the one-block
case of the first pass's accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg.blas

from . import linalg
from . import model as md
from .corpus import CountMatrix, check_dense
from .tables import write_csv

@dataclass
class RankCurve:
    """(token_count, empirical_rank, max_possible_rank) triples."""

    points: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        write_csv(path, ["token_count", "rank", "max_rank"], self.points)


def gradient_rank_curve(
    counts: CountMatrix, params: md.ModelParams, token_counts, seed: int = 0
) -> RankCurve:
    """Rank of the stacked per-token gradient rows at growing sample sizes,
    for a model `params` with one row per counted context.

    For each requested size a token subset is drawn without replacement from
    all counted occurrences; the softmax probabilities are formed in place
    for the drawn contexts only, and each drawn token's row is its context's
    probabilities minus the token's one-hot.
    """
    sizes = check_token_counts(token_counts)
    md._check_shape(counts, params.h, params.head)
    if sizes[-1] > counts.total:
        raise ValueError(
            f"requested {sizes[-1]} tokens but the corpus holds {counts.total}"
        )
    occ_rows, occ_cols = np.repeat(counts.rows, counts.n), np.repeat(counts.cols, counts.n)
    rng = np.random.default_rng(seed)
    curve = RankCurve()
    for k in sizes:
        draw = rng.choice(counts.total, size=k, replace=False)
        rows, inverse = np.unique(occ_rows[draw], return_inverse=True)
        p = params.head.logits(params.h[rows])
        p /= linalg._softmax_block(p)[0]
        m = p[inverse]
        del p
        m[np.arange(k), occ_cols[draw]] -= 1.0
        # qr_rank refuses a non-finite matrix: the logits of a diverged model
        rank = linalg.qr_rank(m)
        curve.points.append((k, rank, min(k, counts.vocab_size)))
    return curve


def kernel_cosine(g, head):
    """Mean and std over rows of cos(row, its projection off the kernel), as
    `compression_report` measures them.

    For an orthogonal projection the cosine equals the retained norm
    fraction of the row. Zero rows are excluded; an all-zero gradient is an
    error.
    """
    report = compression_report(g, head)
    if report.zero_gradient:
        raise ValueError("all gradient rows are zero")
    return report.cosine_mean, report.cosine_std


@dataclass
class CompressionReport:
    """Kernel-compression figures of a logit gradient under a head."""

    lost_fraction: float
    cosine_mean: float
    cosine_std: float
    per_row_lost: np.ndarray
    zero_gradient: bool = False

    def to_csv(self, path, eckart_young_gap: float) -> None:
        """One row of the figures, with the gradient's `eckart_young_gap`."""
        write_csv(
            path,
            ["lost_fraction", "cosine_mean", "cosine_std", "eckart_young_gap", "zero_gradient"],
            [[self.lost_fraction, self.cosine_mean, self.cosine_std, eckart_young_gap,
              int(self.zero_gradient)]],
        )

    def per_row_to_csv(self, path) -> None:
        write_csv(path, ["row", "lost_fraction"], enumerate(self.per_row_lost))


def _row_norms(x: np.ndarray, square: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of a real `x`, bit for bit, its squares
    written to `square`, an array shaped as `x`."""
    return np.sqrt(np.add.reduce(np.square(x, out=square), axis=1))


class _KernelSplit:
    """`compression_report` over the row blocks of a gradient, added in row
    order, given the head's `linalg.range_basis`: per block the split of
    `linalg._split_rows`, its squared norms and its per-row norms."""

    def __init__(self, basis: np.ndarray):
        self.basis = basis
        self.grad_sq = 0.0
        self.lost_sq = 0.0
        self.row_norms = []  # (row, kept, lost) norms of each block

    def add(self, g: np.ndarray, temps=None) -> np.ndarray:
        """Add the block `g`; return its part in the kernel. The block's
        temporaries (its kept and lost parts, then squares) are written to
        `temps`, three arrays shaped as `g`, by default fresh ones; the
        returned part is the second."""
        kept, lost, square = temps or [np.empty(g.shape) for _ in range(3)]
        linalg._split_rows(g, self.basis, out=(kept, lost))
        self.grad_sq += float(np.vdot(g, g))
        self.lost_sq += float(np.vdot(lost, lost))
        self.row_norms.append(tuple(_row_norms(x, square) for x in (g, kept, lost)))
        return lost

    def report(self) -> CompressionReport:
        row, kept, lost = (np.concatenate(parts) for parts in zip(*self.row_norms))
        if self.grad_sq == 0.0:
            return CompressionReport(0.0, 0.0, 0.0, np.zeros(len(row)), True)
        nz = row > 0
        per_row = np.zeros(len(row))
        per_row[nz] = lost[nz] / row[nz]
        cos = kept[nz] / row[nz]
        return CompressionReport(
            lost_fraction=float(np.sqrt(self.lost_sq) / np.sqrt(self.grad_sq)),
            cosine_mean=float(cos.mean()),
            cosine_std=float(cos.std()),
            per_row_lost=per_row,
        )


def compression_report(g, head) -> CompressionReport:
    """Kernel-compression measurement of the logit gradient `g` under `head`.

    The stacked lost fraction follows the Frobenius form; a per-row series is
    included, with zero rows reported as 0 and flagged through
    `zero_gradient` when the whole gradient vanishes. All figures read one
    kernel split of the gradient, taken as a single row block.
    """
    split = _KernelSplit(linalg.range_basis(head.matrix))
    split.add(linalg.as_matrix(g))
    return split.report()


@dataclass
class CoefficientProfile:
    """Per-position mean/std of signed coefficients after sorting each row
    by the absolute full-gradient value (descending).

    Rows are sign-flipped so that position 1, the coefficient of the observed
    token, is negative.
    """

    full_mean: np.ndarray
    full_std: np.ndarray
    proj_mean: np.ndarray
    proj_std: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["position", "full_mean", "full_std", "proj_mean", "proj_std"],
            zip(range(1, len(self.full_mean) + 1),
                self.full_mean, self.full_std, self.proj_mean, self.proj_std),
        )


class _ProfileMoments:
    """`coefficient_profile` over row blocks, added in row order: each
    block's per-position mean and sum of squared deviations (M2), merged
    into the running ones by Chan et al.'s pairwise update (`merge`). A
    single block gives numpy's mean and (population) std."""

    def __init__(self, vocab_size: int):
        self.rows = 0
        self.mean = np.zeros((2, vocab_size))  # full, projected
        self.m2 = np.zeros((2, vocab_size))

    def add(self, g_full: np.ndarray, g_proj: np.ndarray, temps=None) -> None:
        """Add the block `g_full` and its `g_proj`. The sorted rows are
        written to `temps`, two arrays shaped as `g_full`, by default fresh
        ones."""
        if g_full.shape != g_proj.shape:
            raise ValueError("full and projected gradients must have the same shape")
        f_sorted, p_sorted = temps or [np.empty(g_full.shape) for _ in range(2)]
        order = np.argsort(np.negative(np.abs(g_full, out=f_sorted), out=f_sorted), axis=1)
        # each row's order as flat indices: one gather per array, into its buffer
        order += np.arange(0, order.size, order.shape[1])[:, None]
        np.take(g_full, order, out=f_sorted, mode="clip")
        flip = np.where(f_sorted[:, :1] > 0, -1.0, 1.0)
        f_sorted *= flip
        np.take(g_proj, order, out=p_sorted, mode="clip")
        p_sorted *= flip
        del order
        block = _ProfileMoments(g_full.shape[1])
        block.rows = len(g_full)
        for k, x in enumerate((f_sorted, p_sorted)):
            block.mean[k] = x.mean(axis=0)
            x -= block.mean[k]
            np.square(x, out=x)
            block.m2[k] = x.sum(axis=0)
        self.merge(block)

    def merge(self, other: _ProfileMoments) -> None:
        """Merge in the moments of the rows that follow this one's."""
        before, self.rows = self.rows, self.rows + other.rows
        delta = other.mean - self.mean
        self.mean += delta * (other.rows / self.rows)
        self.m2 += other.m2 + delta**2 * (before * other.rows / self.rows)

    def profile(self) -> CoefficientProfile:
        (full_mean, proj_mean), (full_std, proj_std) = self.mean, np.sqrt(self.m2 / self.rows)
        return CoefficientProfile(full_mean, full_std, proj_mean, proj_std)


def coefficient_profile(g_full, g_proj) -> CoefficientProfile:
    """The profile of `g_full` and of `g_proj` sorted in `g_full`'s order,
    taken as a single row block."""
    g_full = np.asarray(g_full, dtype=np.float64)
    g_proj = np.asarray(g_proj, dtype=np.float64)
    moments = _ProfileMoments(g_full.shape[-1])
    moments.add(g_full, g_proj)
    return moments.profile()


@dataclass
class EfficiencyCurve:
    fractions: list
    delta_logit: list
    delta_hidden: list

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["alpha", "delta_logit", "delta_hidden"],
            zip(self.fractions, self.delta_logit, self.delta_hidden),
        )


def check_token_counts(token_counts) -> list:
    """The rank curve's sample sizes as ints, positive and ascending."""
    sizes = [int(k) for k in token_counts]
    if not sizes:
        raise ValueError("token_counts must not be empty")
    if sizes != sorted(sizes) or any(k < 1 for k in sizes):
        raise ValueError("token_counts must be positive and ascending")
    return sizes


def check_fractions(fractions) -> list:
    """The update efficiency's norm fractions as floats, each in (0, 1]."""
    fractions = [float(a) for a in fractions]
    if not fractions:
        raise ValueError("fractions must hold at least one norm fraction")
    if any(a <= 0 or a > 1 for a in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    return fractions


@dataclass
class GradientPass:
    """What `gradient_pass` accumulates over the row blocks of the logit
    gradient g of a model on its counted corpus."""

    report: CompressionReport
    profile: CoefficientProfile
    base_loss: float
    logit_norm: float  # ||logits||_F
    grad_norm: float  # ||g||_F
    hidden_norm: float  # ||g W W^T||_F, W the head matrix


def gradient_pass(counts: CountMatrix, params: md.ModelParams) -> GradientPass:
    """One walk of `model._row_blocks`: the loss, the kernel split of g
    (`_KernelSplit`), its coefficient profile (`_ProfileMoments`),
    ||logits||, ||g|| and ||g W W^T||. Every block's temporaries are written
    to three buffers shaped as a block, made once. Non-finite logits, and a
    gradient or hidden-state direction of zero norm, which leaves the update
    efficiency nothing to move along, are refused here.
    """
    wm = params.head.matrix
    split, moments, sums = (_KernelSplit(linalg.range_basis(wm)),
                            _ProfileMoments(counts.vocab_size), np.zeros(3))
    block, *buffers = md._block_buffers(counts.vocab_size, counts.num_contexts, 4)
    for rows, nz, i, cells, _, g in md._row_blocks(counts, params.h, params.head, out=block):
        kept, lost, spare = (buf[:len(g)] for buf in buffers)
        logit_sq = np.vdot(g, g)
        _, logp_sum = md._gradient_in_place(counts, g, rows, nz, i, cells, logp=True)
        split.add(g, (kept, lost, spare))
        # kept's and spare's rows are free again once the split is added
        moments.add(g, lost, (kept, spare))
        hidden = np.matmul(g @ wm, wm.T, out=kept)
        sums += (logp_sum, logit_sq, np.vdot(hidden, hidden))
    if not np.isfinite(sums).all():
        raise ValueError("the model's logits or their update directions are not finite")
    logp_sum, logit_sq, hidden_sq = sums
    grad_norm, hidden_norm = float(np.sqrt(split.grad_sq)), float(np.sqrt(hidden_sq))
    if grad_norm == 0.0:
        raise ValueError("logit gradient has zero norm")
    if hidden_norm == 0.0:
        raise ValueError("hidden-state update direction has zero norm")
    return GradientPass(split.report(), moments.profile(), -logp_sum / counts.total,
                        float(np.sqrt(logit_sq)), grad_norm, hidden_norm)


def update_efficiency(
    counts: CountMatrix, params: md.ModelParams, first: GradientPass, fractions
) -> EfficiencyCurve:
    """Loss change when moving the model's logits by a norm fraction in two
    directions, in a second walk of `model._row_blocks` after
    `gradient_pass`, which supplied `first`: the loss and the norms.

    Direction one is the (negated, unit-Frobenius) logit gradient g;
    direction two is the logit-space image g W W^T of a hidden-state gradient
    step through the head W. Both moves spend the same budget
    alpha * ||logits||_F, and the loss is evaluated directly on the perturbed
    logits: per block the sum of n log softmax(logits + b * d), for each
    direction d and then each budget b. Every block's gradient, directions
    and moved logits are written to three buffers shaped as a block, made
    once.
    """
    fractions = check_fractions(fractions)
    budgets = [a * first.logit_norm for a in fractions]
    wm = params.head.matrix
    sums = 0.0
    block, *buffers = md._block_buffers(counts.vocab_size, counts.num_contexts, 4)
    for rows, nz, i, cells, _, lm in md._row_blocks(counts, params.h, params.head, out=block):
        g, d_logit, d_hidden = (buf[:len(lm)] for buf in buffers)
        np.copyto(g, lm)
        md._gradient_in_place(counts, g, rows, nz, i, cells)
        np.divide(np.negative(g, out=d_logit), first.grad_norm, out=d_logit)
        np.matmul(g @ wm, wm.T, out=d_hidden)
        np.divide(np.negative(d_hidden, out=d_hidden), first.hidden_norm, out=d_hidden)
        # g's rows are free again: each moved block d * b + lm is formed there
        sums = sums + np.array([
            linalg._softmax_block(np.add(np.multiply(d, b, out=g), lm, out=g), cells, i,
                                  counts.n[nz])[2]
            for d in (d_logit, d_hidden) for b in budgets])
    deltas = [-s / counts.total - first.base_loss for s in sums]
    return EfficiencyCurve(fractions, deltas[: len(fractions)], deltas[len(fractions) :])


def _dense_gradient(counts: CountMatrix, params: md.ModelParams) -> np.ndarray:
    """The C x V logit gradient, assembled from `model._row_blocks`; refused
    before it is allocated when it would exceed `corpus.MAX_DENSE_BYTES`."""
    check_dense("the Eckart-Young gap's SVD fallback (the dense logit gradient)", *counts.shape)
    g = np.empty(counts.shape)
    for rows, nz, i, cells, _, block in md._row_blocks(counts, params.h, params.head):
        md._gradient_in_place(counts, block, rows, nz, i, cells)
        g[rows] = block
    return g


def gradient_gap(counts: CountMatrix, params: md.ModelParams) -> float:
    """Eckart-Young gap of the logit gradient at the model's width, the
    Frobenius error of its best rank-2*width approximation, from its V x V
    Gram matrix, summed in a walk of `model._row_blocks`. The dense gradient
    is rebuilt only where `linalg.gram_residual` needs its singular values.
    The Gram matrix and the dense gradient (`_dense_gradient`) are each
    refused before they are allocated where they would exceed the
    dense-size guard."""
    v = counts.vocab_size
    check_dense("the Eckart-Young gap's Gram matrix (tokens x tokens)", v, v)
    gram = np.zeros((v, v), order="F")
    for rows, nz, i, cells, _, g in md._row_blocks(counts, params.h, params.head):
        md._gradient_in_place(counts, g, rows, nz, i, cells)
        # g.T is the block in Fortran order: syrk adds g^T g to the lower
        # triangle in place, with no copy
        scipy.linalg.blas.dsyrk(1.0, g.T, beta=1.0, c=gram, lower=1, overwrite_c=1)
    return linalg.gram_residual(gram, 2 * params.width, min(counts.shape),
                                partial(_dense_gradient, counts, params))
