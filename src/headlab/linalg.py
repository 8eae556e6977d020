"""Dense float64 matrix numerics: softmax, rank estimation, the head kernel split.

All functions are pure and operate on 2-d float64 arrays. Inputs are
validated to be finite; every operation is deterministic given its inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Numerical-rank threshold on pivoted-QR diagonal entries. Ties resolve by
# strict > comparison.
DEFAULT_RANK_TOL = 1e-6

# best_rank_k_residual's Gram form is trusted down to this share of the
# squared Frobenius norm; a smaller tail is taken from the singular values.
_GRAM_TAIL_FLOOR = 1e-6


class SvdConvergenceError(RuntimeError):
    """The underlying SVD iteration exhausted its iteration budget."""


def as_matrix(m) -> np.ndarray:
    """Validate `m` as a 2-d float64 matrix with positive dims and finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def _softmax_block(lm: np.ndarray, cells=None, i=None, n=None):
    """Overwrite the C-ordered logits `lm` with exp(lm - row max): the row
    softmax before its divide by the row normalizers z. Private, as it runs
    once per row block: on training's threads (see `model._sharded_pass`)
    and in `diagnose`'s walks.

    Returns z and the row maxima (as columns) and, given the flat indices
    `cells` of some cells, their rows `i` and counts `n`, the sum of
    n * log softmax(lm) over those cells, with log p computed as in
    `model.probs_and_loss` (else None).
    """
    # non-finite logits flow through to a non-finite sum, as in probs_and_loss
    with np.errstate(over="ignore", invalid="ignore"):
        row_max = lm.max(axis=1, keepdims=True)
        lm -= row_max
        shifted = None if n is None else lm.reshape(-1)[cells]
        np.exp(lm, out=lm)
        z = lm.sum(axis=1, keepdims=True)
        if n is None:
            return z, row_max, None
        logp = shifted - np.log(z[:, 0])[i]
        return z, row_max, float((n * logp).sum())


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax: `_softmax_block` on a copy of `m`, divided by z.

    Output rows are strictly positive and sum to 1 (within 1e-12) for any
    finite input.
    """
    p = as_matrix(m).copy()
    p /= _softmax_block(p)[0]
    return p


def log_softmax_rows(m) -> np.ndarray:
    """Row-wise log-softmax: each row minus its log-sum-exp."""
    a = as_matrix(m)
    mx = a.max(axis=1, keepdims=True)
    lse = mx + np.log(np.exp(a - mx).sum(axis=1, keepdims=True))
    return a - lse


def qr_rank(m, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: count of pivoted-QR diagonal entries with |R_ii| > tol.

    Uses Householder QR with column pivoting. The count agrees with the
    number of singular values above tol * max(1, sigma_max) within +-1 for
    matrices whose spectrum is not concentrated at the threshold.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = as_matrix(m)
    r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
    return int(np.count_nonzero(np.abs(np.diag(r)) > tol))


def singular_values(m) -> np.ndarray:
    """Singular values of `m` in nonincreasing order.

    Length is min(rows, cols); the sum of squares equals the squared
    Frobenius norm. Raises SvdConvergenceError if the iteration fails.
    """
    a = as_matrix(m)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc


def range_basis(w) -> np.ndarray:
    """Orthonormal basis of range(w), as the columns of a (V, r) array.

    The first r columns of Q from a pivoted economic QR of the V x D `w`, r
    counting |R_ii| > DEFAULT_RANK_TOL as `qr_rank` does.
    """
    a = as_matrix(w)
    v, d = a.shape
    if v < d:
        raise ValueError(f"need rows >= cols, got shape {a.shape}")
    q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
    rank = int(np.count_nonzero(np.abs(np.diag(r)) > DEFAULT_RANK_TOL))
    return q[:, :rank]


def _split_rows(g: np.ndarray, basis: np.ndarray, out=None):
    """Split each row of the float64 `g` into its parts in span(basis) and
    orthogonal to it, for a `basis` of orthonormal columns (as `range_basis`
    returns): (kept, lost), kept + lost = g, written to `out`, a pair of
    arrays shaped as `g` (by default fresh ones). With as many columns as
    rows `lost` is exactly zero, with none `kept` is. Private and unchecked,
    as `diagnose` runs it once per row block."""
    kept, lost = (np.empty(g.shape), np.empty(g.shape)) if out is None else out
    if basis.shape[1] == basis.shape[0]:  # (g Q) Q^T would leave rounding-level residue
        np.copyto(kept, g)
        lost.fill(0.0)
    else:
        np.matmul(g @ basis, basis.T, out=kept)
        np.subtract(g, kept, out=lost)
    return kept, lost


def kernel_split(g, w):
    """Split each row of `g` into its parts in range(w) and in ker(w.T).

    Returns (kept, lost), kept + lost = g, from `_split_rows` on the
    `range_basis` of the V x D `w`. At rank V `lost` is exactly zero, at
    rank 0 `kept` is.
    """
    rows, basis = as_matrix(g), range_basis(w)
    if rows.shape[1] != basis.shape[0]:
        raise ValueError(f"row dimension {rows.shape[1]} does not match head rows {basis.shape[0]}")
    return _split_rows(rows, basis)


def kernel_basis(w) -> np.ndarray:
    """Orthonormal basis of the null space of w.T, as columns of a (V, V-r) array.

    Computed from a pivoted full QR of `w`: the trailing V - r columns of Q,
    where r is the diagonal count above DEFAULT_RANK_TOL. For inputs whose
    discarded singular values are at rounding level (exact low rank or full
    rank), each returned column v satisfies ||w.T @ v|| < 1e-8. This V x V construction
    and `project_rows_onto_span` are the reference path `kernel_split`
    replaces; only the tests call them.
    """
    a = as_matrix(w)
    v, d = a.shape
    if v < d:
        raise ValueError(f"need rows >= cols, got shape {a.shape}")
    q, r, _ = scipy.linalg.qr(a, mode="full", pivoting=True)
    rank = int(np.count_nonzero(np.abs(np.diag(r)) > DEFAULT_RANK_TOL))
    return q[:, rank:]


def project_rows_onto_span(g, basis) -> np.ndarray:
    """Orthogonally project each row of `g` onto the span of `basis` columns.

    `basis` must have orthonormal columns (as produced by kernel_basis); an
    empty basis projects everything to zero. Idempotent and norm-nonincreasing.
    """
    a = as_matrix(g)
    b = np.asarray(basis, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"basis must be 2-d, got shape {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"row dimension {a.shape[1]} does not match basis ambient dimension {b.shape[0]}"
        )
    if b.shape[1] == 0:
        return np.zeros_like(a)
    return (a @ b) @ b.T


def gram_residual(gram, k: int, n: int, matrix) -> float:
    """Frobenius distance from a matrix m to its best rank-k approximation,
    given its Gram matrix on either side and the smaller of its dimensions `n`.

    Equals sqrt(sum of squared singular values beyond the k-th): 0 when k
    is at least n, sqrt(trace(gram)) = ||m||_F when k = 0.

    For 0 < k < n the tail is trace(gram) minus its top k eigenvalues, with
    no SVD. `eigh` reads the lower triangle of the symmetric `gram` and
    overwrites it; a Fortran-ordered `gram` is not copied. That difference
    carries an absolute error of about p * eps * ||m||_F^2, where p grows
    with k and with the dimensions: forming the Gram matrix sums over the
    longer side, and eigh's backward error grows with its order. When the
    tail is at most `_GRAM_TAIL_FLOOR` of ||m||_F^2 the difference would
    cancel, and the singular values of `matrix()`, which returns m, are
    taken instead, as they are if eigh fails. Above that floor the gap's
    error is at most p * eps * ||m||_F / (2 * sqrt(_GRAM_TAIL_FLOOR)). The
    worst-case p, k times the longer side, would allow about 1e-8 ||m||_F
    at 2049 x 2048 and k = 64; measured there with a tail just above the
    floor, the error stays under 4e-12 ||m||_F.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= n:
        return 0.0
    total = float(np.trace(gram))
    if k == 0:
        return float(np.sqrt(total))
    order = gram.shape[0]
    try:
        top = scipy.linalg.eigh(
            gram, eigvals_only=True, subset_by_index=[order - k, order - 1], driver="evr",
            overwrite_a=True, check_finite=False,
        )
    except np.linalg.LinAlgError:
        pass  # the singular values below report a failure as SvdConvergenceError
    else:
        tail = total - float(np.sum(top))
        if tail > _GRAM_TAIL_FLOOR * total:
            return float(np.sqrt(tail))
    s = singular_values(matrix())
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def best_rank_k_residual(m, k: int) -> float:
    """Frobenius distance from `m` to its best rank-k approximation.

    Equals sqrt(sum of squared singular values beyond the k-th); 0 when k is
    at least min(rows, cols), ||m||_F when k = 0. Nonincreasing in k. Taken
    by `gram_residual` from the Gram matrix on the smaller side.
    """
    a = as_matrix(m)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    # gram is symmetric: its transpose is the same matrix in the Fortran
    # order LAPACK overwrites in place, with no copy
    return gram_residual(gram.T, k, min(a.shape), lambda: a)
