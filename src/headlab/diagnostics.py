"""Measurement battery for head-gradient compression.

Every probe is a pure, read-only function over a counted corpus and a model
snapshot, or over a logit gradient the caller formed: per-token gradient
rank curves, the fraction of the logit-gradient norm falling into the kernel
of the head, cosine alignment with the retained part, sorted coefficient
profiles, update-direction efficiency, and the unavoidable low-rank residual
of the parameter-induced logit update.

`diagnose` reads them off the snapshot in row blocks and never forms a
C x V matrix: `gradient_pass` accumulates the kernel split, the coefficient
profile, the norms and the V x V Gram matrix of the logit gradient in one
pass, and `update_efficiency` takes the perturbed losses in a second.
`compression_report` and `coefficient_profile` are the one-block case of
the first pass's accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg.blas

from . import linalg
from . import model as md
from .corpus import CountMatrix
from .tables import write_csv

# Bytes of logits in one row block of `gradient_pass` and `update_efficiency`.
# Larger than model.BLOCK_BYTES: each block adds a rank-(block rows) update
# to the V x V Gram matrix, and at V = 2048 the Gram pass took 2.6 s in
# 32-row blocks (512 KiB) against 0.7 s in 256-row blocks (4 MiB). A fixed
# constant, so that reruns sum in the same order on any machine.
BLOCK_BYTES = 4 * 1024**2


def _block_rows(vocab_size: int) -> int:
    return max(1, BLOCK_BYTES // (8 * vocab_size))


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


class _KernelSplit:
    """`compression_report` over the row blocks of a gradient, added in row
    order: one pivoted QR of the head, then per block the split of
    `linalg.split_rows`, its squared norms and its per-row norms."""

    def __init__(self, head):
        self.basis = linalg.range_basis(head.matrix)
        self.grad_sq = 0.0
        self.lost_sq = 0.0
        self.row_norms = []  # (row, kept, lost) norms of each block

    def add(self, g: np.ndarray) -> np.ndarray:
        """Add the block `g`; return its part in the kernel."""
        kept, lost = linalg.split_rows(g, self.basis)
        self.grad_sq += float(np.vdot(g, g))
        self.lost_sq += float(np.vdot(lost, lost))
        self.row_norms.append(tuple(np.linalg.norm(x, axis=1) for x in (g, kept, lost)))
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
    split = _KernelSplit(head)
    split.add(np.asarray(g, dtype=np.float64))
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
    into the running ones by Chan et al.'s pairwise update. A single block
    gives numpy's mean and (population) std."""

    def __init__(self, vocab_size: int):
        self.rows = 0
        self.mean = np.zeros((2, vocab_size))  # full, projected
        self.m2 = np.zeros((2, vocab_size))

    def add(self, g_full: np.ndarray, g_proj: np.ndarray) -> None:
        if g_full.shape != g_proj.shape:
            raise ValueError("full and projected gradients must have the same shape")
        order = np.argsort(-np.abs(g_full), axis=1)
        f_sorted = np.take_along_axis(g_full, order, axis=1)
        flip = np.where(f_sorted[:, :1] > 0, -1.0, 1.0)
        f_sorted *= flip
        p_sorted = np.take_along_axis(g_proj, order, axis=1)
        p_sorted *= flip
        del order
        before, block = self.rows, len(g_full)
        self.rows += block
        for k, x in enumerate((f_sorted, p_sorted)):
            mean = x.mean(axis=0)
            x -= mean
            np.square(x, out=x)
            delta = mean - self.mean[k]
            self.mean[k] += delta * (block / self.rows)
            self.m2[k] += x.sum(axis=0) + delta**2 * (before * block / self.rows)

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


def _perturbed_logp_sums(lm, directions, budgets, cells, i, n) -> np.ndarray:
    """Sum of n log softmax(lm + b * d) over the cells (flat indices into the
    C-ordered `lm`, with rows `i` and counts `n`), for each unit direction d
    of `directions` and then each budget b of `budgets`."""
    x = np.empty_like(lm)
    sums = []
    for d in directions:
        for b in budgets:
            np.multiply(d, b, out=x)
            x += lm
            sums.append(linalg._softmax_block(x, cells, i, n)[2])
    return np.array(sums)


@dataclass
class GradientPass:
    """What `gradient_pass` accumulates over the row blocks of the logit
    gradient g of a model on its counted corpus."""

    report: CompressionReport
    profile: CoefficientProfile
    gram: np.ndarray  # V x V, g^T g in its lower triangle, Fortran order
    base_loss: float
    logit_norm: float  # ||logits||_F
    grad_norm: float  # ||g||_F
    hidden_norm: float  # ||g W W^T||_F, W the head matrix


def gradient_pass(counts: CountMatrix, params: md.ModelParams) -> GradientPass:
    """One pass over row blocks of BLOCK_BYTES of logits: the loss, the
    kernel split of g (`_KernelSplit`), its coefficient profile
    (`_ProfileMoments`), ||logits||, ||g||, ||g W W^T|| and the Gram matrix
    sum of g_b^T g_b. At most a few blocks and the V x V Gram matrix are held
    at once. A gradient or hidden-state direction of zero norm, which leaves
    the update efficiency nothing to move along, is refused here.
    """
    v = counts.vocab_size
    split = _KernelSplit(params.head)
    moments = _ProfileMoments(v)
    wm = params.head.matrix
    gram = np.zeros((v, v), order="F")
    logp_sum = logit_sq = hidden_sq = 0.0
    for *_, lm, g, block_logp in md._gradient_blocks(counts, params, _block_rows(v)):
        logp_sum += block_logp
        logit_sq += float(np.vdot(lm, lm))
        moments.add(g, split.add(g))
        hidden = (g @ wm) @ wm.T
        hidden_sq += float(np.vdot(hidden, hidden))
        # g.T is the block in Fortran order: syrk adds g^T g to the lower
        # triangle in place, with no copy
        scipy.linalg.blas.dsyrk(1.0, g.T, beta=1.0, c=gram, lower=1, overwrite_c=1)
    grad_norm, hidden_norm = float(np.sqrt(split.grad_sq)), float(np.sqrt(hidden_sq))
    if grad_norm == 0.0:
        raise ValueError("logit gradient has zero norm")
    if hidden_norm == 0.0:
        raise ValueError("hidden-state update direction has zero norm")
    return GradientPass(split.report(), moments.profile(), gram, -logp_sum / counts.total,
                        float(np.sqrt(logit_sq)), grad_norm, hidden_norm)


def update_efficiency(
    counts: CountMatrix, params: md.ModelParams, first: GradientPass, fractions
) -> EfficiencyCurve:
    """Loss change when moving the model's logits by a norm fraction in two
    directions, in a second pass over the row blocks of `gradient_pass`,
    which supplied `first`: the loss and the norms.

    Direction one is the (negated, unit-Frobenius) logit gradient g;
    direction two is the logit-space image g W W^T of a hidden-state gradient
    step through the head W. Both moves spend the same budget
    alpha * ||logits||_F, and the loss is evaluated directly on the perturbed
    logits.
    """
    fractions = check_fractions(fractions)
    budgets = [a * first.logit_norm for a in fractions]
    wm = params.head.matrix
    sums = 0.0
    for _, nz, i, cells, lm, g, _ in md._gradient_blocks(
        counts, params, _block_rows(counts.vocab_size)
    ):
        hidden = (g @ wm) @ wm.T
        directions = [-g / first.grad_norm, -hidden / first.hidden_norm]
        del g, hidden
        sums = sums + _perturbed_logp_sums(lm, directions, budgets, cells, i, counts.n[nz])
    deltas = [-s / counts.total - first.base_loss for s in sums]
    return EfficiencyCurve(fractions, deltas[: len(fractions)], deltas[len(fractions) :])


def _dense_gradient(counts: CountMatrix, params: md.ModelParams) -> np.ndarray:
    """The C x V logit gradient, assembled from the row blocks of `gradient_pass`."""
    g = np.empty(counts.shape)
    for rows, *_, block, _ in md._gradient_blocks(counts, params, _block_rows(counts.vocab_size)):
        g[rows] = block
    return g


def gradient_gap(counts: CountMatrix, params: md.ModelParams, first: GradientPass) -> float:
    """Eckart-Young gap of the logit gradient at the model's width, the
    Frobenius error of its best rank-2*width approximation, from the Gram
    matrix of `first`, which it overwrites. The dense gradient is rebuilt
    from row blocks only where `linalg.gram_residual` needs its singular
    values; the count matrix already passed the dense-size guard."""
    return linalg.gram_residual(first.gram, 2 * params.width, min(counts.shape),
                                partial(_dense_gradient, counts, params))
