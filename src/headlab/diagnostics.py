"""Measurement battery for head-gradient compression.

Every probe is a pure, read-only function over a counted corpus and the
logits, softmax probabilities or logit gradient of a model snapshot, which
the caller forms once: per-token gradient rank curves, the fraction of the
logit-gradient norm falling into the kernel of the head, cosine alignment
with the retained part, sorted coefficient profiles, update-direction
efficiency, and the unavoidable low-rank residual of the parameter-induced
logit update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .corpus import CountMatrix
from .model import loss_from_logits
from .tables import write_csv


@dataclass
class RankCurve:
    """(token_count, empirical_rank, max_possible_rank) triples."""

    points: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        write_csv(path, ["token_count", "rank", "max_rank"], self.points)


def token_occurrences(counts: CountMatrix):
    """All counted (context row, next token) occurrences, with multiplicity."""
    return np.repeat(counts.rows, counts.n), np.repeat(counts.cols, counts.n)


def per_token_gradient_matrix(p: np.ndarray, occ_rows, occ_cols) -> np.ndarray:
    """One gradient row per token occurrence: p[context] minus the token one-hot."""
    m = p[occ_rows].copy()
    m[np.arange(len(occ_rows)), occ_cols] -= 1.0
    return m


def gradient_rank_curve(
    counts: CountMatrix,
    p,
    token_counts,
    seed: int = 0,
    rank_tol: float = linalg.DEFAULT_RANK_TOL,
) -> RankCurve:
    """Rank of the stacked per-token gradient rows at growing sample sizes,
    given the model's softmax probabilities `p`.

    For each requested size a token subset is drawn without replacement from
    all counted occurrences.
    """
    sizes = [int(k) for k in token_counts]
    if not sizes:
        raise ValueError("token_counts must not be empty")
    if sizes != sorted(sizes) or any(k < 1 for k in sizes):
        raise ValueError("token_counts must be positive and ascending")
    if sizes[-1] > counts.total:
        raise ValueError(
            f"requested {sizes[-1]} tokens but the corpus holds {counts.total}"
        )
    occ_rows, occ_cols = token_occurrences(counts)
    rng = np.random.default_rng(seed)
    curve = RankCurve()
    for k in sizes:
        draw = rng.choice(counts.total, size=k, replace=False)
        m = per_token_gradient_matrix(p, occ_rows[draw], occ_cols[draw])
        rank = linalg.qr_rank(m, rank_tol)
        curve.points.append((k, rank, min(k, counts.vocab_size)))
    return curve


def kernel_cosine(g, head, rank_tol: float = linalg.DEFAULT_RANK_TOL):
    """Mean and std over rows of cos(row, its projection off the kernel), as
    `compression_report` measures them.

    For an orthogonal projection the cosine equals the retained norm
    fraction of the row. Zero rows are excluded; an all-zero gradient is an
    error.
    """
    report = compression_report(g, head, rank_tol)
    if report.zero_gradient:
        raise ValueError("all gradient rows are zero")
    return report.cosine_mean, report.cosine_std


@dataclass
class CompressionReport:
    """Kernel-compression figures, with the gradient's part `lost` in ker(W^T)."""

    lost_fraction: float
    cosine_mean: float
    cosine_std: float
    per_row_lost: np.ndarray
    zero_gradient: bool = False
    lost: np.ndarray | None = field(default=None, repr=False)

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


def compression_report(
    g, head, rank_tol: float = linalg.DEFAULT_RANK_TOL
) -> CompressionReport:
    """Kernel-compression measurement of the logit gradient `g` under `head`.

    The stacked lost fraction follows the Frobenius form; a per-row series is
    included, with zero rows reported as 0 and flagged through
    `zero_gradient` when the whole gradient vanishes. All figures read one
    kernel split of the gradient.
    """
    g = np.asarray(g, dtype=np.float64)
    total = np.linalg.norm(g)
    if total == 0.0:
        return CompressionReport(0.0, 0.0, 0.0, np.zeros(len(g)), True, np.zeros_like(g))
    kept, lost = linalg.kernel_split(g, head.matrix, rank_tol)
    row_norms = np.linalg.norm(g, axis=1)
    nz = row_norms > 0
    per_row = np.zeros(g.shape[0])
    per_row[nz] = np.linalg.norm(lost[nz], axis=1) / row_norms[nz]
    cos = np.linalg.norm(kept[nz], axis=1) / row_norms[nz]
    return CompressionReport(
        lost_fraction=float(np.linalg.norm(lost) / total),
        cosine_mean=float(cos.mean()),
        cosine_std=float(cos.std()),
        per_row_lost=per_row,
        lost=lost,
    )


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


def coefficient_profile(g_full, g_proj) -> CoefficientProfile:
    g_full = np.asarray(g_full, dtype=np.float64)
    g_proj = np.asarray(g_proj, dtype=np.float64)
    if g_full.shape != g_proj.shape:
        raise ValueError("full and projected gradients must have the same shape")
    order = np.argsort(-np.abs(g_full), axis=1)
    f_sorted = np.take_along_axis(g_full, order, axis=1)
    p_sorted = np.take_along_axis(g_proj, order, axis=1)
    flip = np.where(f_sorted[:, 0] > 0, -1.0, 1.0)[:, None]
    f_sorted = f_sorted * flip
    p_sorted = p_sorted * flip
    return CoefficientProfile(
        full_mean=f_sorted.mean(axis=0),
        full_std=f_sorted.std(axis=0),
        proj_mean=p_sorted.mean(axis=0),
        proj_std=p_sorted.std(axis=0),
    )


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


def update_efficiency(
    counts: CountMatrix, lm, base_loss: float, g, head, fractions
) -> EfficiencyCurve:
    """Loss change when moving the logits `lm` by a norm fraction in two directions.

    `base_loss` is the loss at `lm` and `g` its logit gradient. Direction one
    is the (negated, unit-Frobenius) logit gradient; direction two is the
    logit-space image of a hidden-state gradient step through `head`. Both
    moves spend the same budget alpha * ||logits||_F, and the loss is
    evaluated directly on the perturbed logits.
    """
    fractions = [float(a) for a in fractions]
    if not fractions:
        raise ValueError("fractions must hold at least one norm fraction")
    if any(a <= 0 or a > 1 for a in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        raise ValueError("logit gradient has zero norm")
    wm = head.matrix
    hidden_dir = (g @ wm) @ wm.T
    hnorm = np.linalg.norm(hidden_dir)
    if hnorm == 0.0:
        raise ValueError("hidden-state update direction has zero norm")
    d1 = -g / gnorm
    d2 = -hidden_dir / hnorm
    budget = np.linalg.norm(lm)
    delta1, delta2 = [], []
    for a in fractions:
        delta1.append(loss_from_logits(counts, lm + a * budget * d1) - base_loss)
        delta2.append(loss_from_logits(counts, lm + a * budget * d2) - base_loss)
    return EfficiencyCurve(fractions, delta1, delta2)


def eckart_young_gap(residual_matrix, width: int) -> float:
    """Unavoidable Frobenius error of any rank-2*width update against `residual_matrix`.

    The tail of its singular values beyond the 2*width-th, from the top
    eigenvalues of its Gram matrix, or from its exact SVD where that
    difference cancels (`linalg.best_rank_k_residual`).
    """
    return linalg.best_rank_k_residual(residual_matrix, 2 * int(width))
