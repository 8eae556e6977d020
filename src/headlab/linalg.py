"""Dense float64 matrix numerics: softmax, rank estimation, kernel projectors.

All functions are pure and operate on 2-d float64 arrays. Inputs are
validated to be finite; every operation is deterministic given its inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Numerical-rank threshold on pivoted-QR diagonal entries. Ties resolve by
# strict > comparison.
DEFAULT_RANK_TOL = 1e-6


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


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax, computed with per-row max subtraction.

    Output rows are strictly positive and sum to 1 (within 1e-12) for any
    finite input.
    """
    a = as_matrix(m)
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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


def kernel_basis(w, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the null space of w.T, as columns of a (V, V-r) array.

    Computed from a pivoted full QR of `w`: the trailing V - r columns of Q,
    where r is the diagonal count above `tol`. For inputs whose discarded
    singular values are at rounding level (exact low rank or full rank), each
    returned column v satisfies ||w.T @ v|| < 1e-8.
    """
    a = as_matrix(w)
    v, d = a.shape
    if v < d:
        raise ValueError(f"need rows >= cols, got shape {a.shape}")
    q, r, _ = scipy.linalg.qr(a, mode="full", pivoting=True)
    rank = int(np.count_nonzero(np.abs(np.diag(r)) > tol))
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


def best_rank_k_residual(m, k: int) -> float:
    """Frobenius distance from `m` to its best rank-k approximation.

    Equals sqrt(sum of squared singular values beyond the k-th); 0 when k is
    at least min(rows, cols), ||m||_F when k = 0. Nonincreasing in k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    s = singular_values(m)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def is_orthonormal_columns(b, tol: float = 1e-10) -> bool:
    """True when pairwise column inner products are within `tol` of identity."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        return False
    if b.shape[1] == 0:
        return True
    gram = b.T @ b
    return bool(np.max(np.abs(gram - np.eye(b.shape[1]))) <= tol)
