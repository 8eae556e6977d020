"""Machine verification of the model's structural claims on brute-force instances.

Each verifier draws (or plants) random instances from its seed, checks one
inequality with explicit margins, and returns a VerificationResult with
per-instance records. A margin is the slack by which the claim held;
negative slack counts as a violation. Every verifier with a fixed instance
count states one instance as a local `draw(rng) -> (margin, details)`, and
one loop, `_instances`, refuses a count below 1, makes the one generator of
the seed, calls `draw` that many times and builds the result.
`batch_rank_floor_suite` keeps its own loop: it reseeds per attempt and
skips the draws that do not qualify.

Checks covered, in `CHECKS` order:
  - batch_rank_floor: the prediction-error rank floor of error_rank_floor
    within mini-batches whose unique batch continuations form a connected
    co-occurrence graph;
  - loss_floor: the count-weighted cross-entropy never beats the weighted
    empirical entropy, with equality when the model matches the empirical rows;
  - logit_rank_caps: logits have rank at most the width, log-probabilities at
    most width + 1;
  - top1_reachability: a shared width-2 head reaches every context's empirical
    top-1 probability to arbitrary precision;
  - error_rank_floor: the prediction-error matrix has rank at least
    min(#distinct unique continuations, V - 1) for strictly interior predictions;
  - update_residual_gap: the first-order logit update (rank <= 2D) misses the
    prediction error by more than the optimal rank-2D truncation error.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import linalg
from .corpus import Corpus, CountMatrix, batch_counts, build_counts, gen_zipf_bigram
from .model import (
    FullHead,
    ModelParams,
    entropy_floor,
    first_order_logit_update,
    init_params,
    logits,
    loss,
    loss_from_logits,
    smoothed_log_target,
)
from .parallel import _map_cells
from .tables import write_csv, write_json

RANK_TOL = linalg.DEFAULT_RANK_TOL


@dataclass
class VerificationResult:
    check_id: str
    instances_tested: int
    violations: int
    worst_margin: float
    seed: int
    skipped: int = 0
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        return {
            "proposition": self.check_id,
            "instances": self.instances_tested,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "skipped": self.skipped,
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def write_instances_csv(self, path) -> None:
        keys = list(self.details[0]) if self.details else []
        write_csv(
            path,
            ["instance"] + keys,
            ([i] + [det[k] for k in keys] for i, det in enumerate(self.details)),
        )


def _finish(check_id, seed, details, margins, skipped=0) -> VerificationResult:
    violations = int(sum(1 for m in margins if not (m >= 0.0)))
    worst = float(min(margins))
    for det, margin in zip(details, margins):
        det["margin"] = float(margin)
    return VerificationResult(
        check_id=check_id,
        instances_tested=len(margins),
        violations=violations,
        worst_margin=worst,
        seed=seed,
        skipped=skipped,
        details=details,
    )


def _random_counts(rng, c, v, interior=False) -> CountMatrix:
    if interior:
        n = rng.integers(1, 9, size=(c, v))
    else:
        n = rng.integers(0, 5, size=(c, v))
        empty = np.flatnonzero(n.sum(axis=1) == 0)
        for i in empty:
            n[i, rng.integers(v)] = 1
    return CountMatrix.from_counts(n)


def _positive(**counts) -> None:
    """Refuse a count below 1: a claim checked on no instance is not verified."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be positive")


def _instances(check_id: str, instances: int, seed: int, draw) -> VerificationResult:
    """The result of `instances` calls of draw(rng) -> (margin, details), all
    drawing from the one generator of `seed`; a count below 1 is refused
    before the first draw."""
    _positive(instances=instances)
    rng = np.random.default_rng(seed)
    margins, details = zip(*(draw(rng) for _ in range(instances)))
    return _finish(check_id, seed, list(details), margins)


def verify_loss_floor(instances: int = 1000, seed: int = 0) -> VerificationResult:
    """Loss >= weighted empirical entropy; equality at the matched model.
    C is drawn from [1, 10], V from [2, 12] and D from [1, 4]."""
    def draw(rng):
        c = int(rng.integers(1, 11))
        v = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        counts = _random_counts(rng, c, v)
        params = init_params(c, v, d, rng=rng)
        slack = loss(counts, params) - entropy_floor(counts)

        interior = _random_counts(rng, c, v, interior=True)
        eq_dev = abs(
            loss_from_logits(interior, smoothed_log_target(interior))
            - entropy_floor(interior)
        )
        margin = min(slack + 1e-10, 1e-8 - eq_dev)
        return margin, {"C": c, "V": v, "D": d, "floor_slack": float(slack),
                        "equality_dev": float(eq_dev)}

    return _instances("loss_floor", instances, seed, draw)


def verify_logit_rank_caps(
    instances: int = 500, seed: int = 0, rank_tol: float = RANK_TOL
) -> VerificationResult:
    """rank(logits) <= width and rank(log-softmax(logits)) <= width + 1.
    D is drawn from [1, 4], V from [D + 3, 16] and C from [2, 10]."""
    def draw(rng):
        d = int(rng.integers(1, 5))
        v = int(rng.integers(d + 3, 17))
        c = int(rng.integers(2, 11))
        h = rng.normal(size=(c, d))
        w = rng.normal(size=(v, d))
        lm = h @ w.T
        logit_rank = linalg.qr_rank(lm, rank_tol)
        logprob_rank = linalg.qr_rank(linalg.log_softmax_rows(lm), rank_tol)
        margin = min(d - logit_rank, d + 1 - logprob_rank)
        return float(margin), {"C": c, "V": v, "D": d, "logit_rank": logit_rank,
                               "logprob_rank": logprob_rank}

    return _instances("logit_rank_caps", instances, seed, draw)


def _unit_circle_head(v: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(v) / v
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _top1_prob(alpha: float, cos_gaps: np.ndarray) -> float:
    # probability of the anchor token when its context rides its head row
    return float(1.0 / np.exp(alpha * cos_gaps).sum())


def _solve_scale(v: int, target: float, epsilon: float):
    """Scale whose softmax puts `target` mass on the anchor token, within epsilon/2.

    The probability is continuous and increasing in the scale, from 1/V at 0
    toward 1; a geometric scan brackets the target and bisection refines it.
    """
    cos_gaps = np.cos(2.0 * np.pi * np.arange(v) / v) - 1.0
    tol = epsilon / 2.0
    if target < 1.0 / v - 1e-12:
        raise AssertionError("target below 1/V cannot be an argmax probability")
    p0 = _top1_prob(0.0, cos_gaps)
    if abs(p0 - target) < tol:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(600):
        p = _top1_prob(hi, cos_gaps)
        if p >= target or p >= 1.0 - tol:
            break
        lo, hi = hi, hi * 2.0
    if target >= 1.0 - tol:
        return hi
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        p = _top1_prob(mid, cos_gaps)
        if abs(p - target) < tol:
            return mid
        if p < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def construct_top1(counts: CountMatrix, epsilon: float) -> ModelParams:
    """Width-2 parameters matching every context's empirical top-1 probability.

    Head rows are the V distinct unit-circle points; each context
    representation is a nonnegative multiple of its target token's head row,
    with the multiple solved by bracketing and bisection.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    v = counts.vocab_size
    if v < 2:
        raise ValueError("need a vocabulary of at least 2")
    w = _unit_circle_head(v)
    normalized = counts.to_dense(normalized=True)
    h = np.zeros((counts.num_contexts, 2))
    cache: dict = {}
    for i, k in enumerate(counts.targets):
        t = float(normalized[i, k])
        alpha = cache.get(t)
        if alpha is None:
            alpha = _solve_scale(v, t, epsilon)
            cache[t] = alpha
        h[i] = alpha * w[k]
    return ModelParams(h, FullHead(w))


def verify_top1_reachability(
    instances: int = 20, seed: int = 0, rank_tol: float = RANK_TOL
) -> VerificationResult:
    """construct_top1 meets an epsilon of 1e-3 across random target matrices,
    C drawn from [1, 64] and V from [2, 256]."""
    epsilon = 1e-3

    def draw(rng):
        c = int(rng.integers(1, 65))
        v = int(rng.integers(2, 257))
        n = rng.integers(0, 5, size=(c, v))
        # mix in one-hot and near-uniform rows to hit both ends of the range
        for i in range(c):
            mode = rng.integers(3)
            if mode == 0:
                n[i] = 0
                n[i, rng.integers(v)] = int(rng.integers(1, 9))
            elif mode == 1:
                n[i] = 1
            elif n[i].sum() == 0:
                n[i, rng.integers(v)] = 1
        counts = CountMatrix.from_counts(n)
        params = construct_top1(counts, epsilon)
        probs = linalg.softmax_rows(logits(params))
        cells = (np.arange(counts.num_contexts), counts.targets)
        devs = np.abs(probs[cells] - counts.to_dense(normalized=True)[cells])
        margin = epsilon - float(devs.max())
        return margin, {"C": c, "V": v, "max_dev": float(devs.max()),
                        "head_rank": linalg.qr_rank(params.head.w, rank_tol)}

    return _instances("top1_reachability", instances, seed, draw)


def _plant_unique_structure(rng, c: int, v: int, n_unique: int):
    """Counts with exactly `n_unique` distinct single-continuation tokens.

    The first `n_unique` rows are one-hot on distinct tokens; occasional extra
    rows repeat one of those tokens (same unique-token set); remaining rows
    get at least two distinct continuations.
    """
    tokens = rng.choice(v, size=n_unique, replace=False)
    n = np.zeros((c, v), dtype=np.int64)
    for i in range(n_unique):
        n[i, tokens[i]] = int(rng.integers(1, 6))
    for i in range(n_unique, c):
        if n_unique > 0 and rng.random() < 0.25:
            n[i, tokens[rng.integers(n_unique)]] = int(rng.integers(1, 6))
        else:
            cols = rng.choice(v, size=2, replace=False)
            n[i, cols[0]] = int(rng.integers(1, 6))
            n[i, cols[1]] = int(rng.integers(1, 6))
    return CountMatrix.from_counts(n), tokens


def _interior_stochastic(rng, c: int, v: int) -> np.ndarray:
    p = rng.uniform(0.05, 1.0, size=(c, v))
    return p / p.sum(axis=1, keepdims=True)


def _svd_rank(m, tol: float = RANK_TOL) -> int:
    s = linalg.singular_values(m)
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


def verify_error_rank_floor(
    instances: int = 200, seed: int = 0, rank_tol: float = RANK_TOL
) -> VerificationResult:
    """rank(P - normalized counts) >= min(#unique continuation tokens, V-1),
    V drawn from [4, 32]."""
    def draw(rng):
        v = int(rng.integers(4, 33))
        n_unique = int(rng.integers(1, v + 1))
        c = min(64, n_unique + int(rng.integers(0, 9)))
        counts, tokens = _plant_unique_structure(rng, c, v, n_unique)
        p = _interior_stochastic(rng, c, v)
        diff = p - counts.to_dense(normalized=True)
        bound = min(n_unique, v - 1)
        rank_qr = linalg.qr_rank(diff, rank_tol)
        rank_svd = _svd_rank(diff, rank_tol)
        sub = diff[np.arange(n_unique)][:, tokens]
        sub_sigma_min = float(linalg.singular_values(sub)[-1])
        margin = float(min(rank_qr, rank_svd) - bound)
        if n_unique < v:
            # interior predictions make the planted square submatrix strictly
            # diagonally dominant, hence nonsingular
            margin = min(margin, math.inf if sub_sigma_min > 0 else -1.0)
        return margin, {"C": c, "V": v, "unique_tokens": n_unique, "bound": bound,
                        "rank_qr": rank_qr, "rank_svd": rank_svd,
                        "submatrix_sigma_min": sub_sigma_min}

    return _instances("error_rank_floor", instances, seed, draw)


def unique_batch_contexts(counts: CountMatrix, batch: CountMatrix):
    """Rows with one in-batch continuation that have several in the full data.

    When several such rows share the same batch token, the lowest-row
    representative is kept so the selected tokens are pairwise distinct.
    Returns (full-table row ids, their batch tokens).
    """
    if batch.row_ids is None:
        raise ValueError("batch counts must carry row_ids")
    batch_support = np.bincount(batch.rows, minlength=batch.num_contexts)
    full_support = np.bincount(counts.rows, minlength=counts.num_contexts)[batch.row_ids]
    candidate = np.flatnonzero((batch_support == 1) & (full_support >= 2))
    rows, tokens, seen = [], [], set()
    for i in candidate:
        tok = int(batch.targets[i])
        if tok in seen:
            continue
        seen.add(tok)
        rows.append(int(batch.row_ids[i]))
        tokens.append(tok)
    return np.asarray(rows, dtype=np.int64), np.asarray(tokens, dtype=np.int64)


def _connected(a: np.ndarray) -> bool:
    """Whether the undirected graph of the square boolean matrix `a` (k >= 1
    nodes) is connected, with an edge i-j wherever a[i, j] or a[j, i] is set.

    Squaring the reachability of A | A^T | I doubles the path length it
    covers, so ceil(log2 k) boolean products close it.
    """
    reach = a | a.T | np.eye(a.shape[0], dtype=bool)
    for _ in range((a.shape[0] - 1).bit_length()):
        reach = reach @ reach
    return bool(reach[0].all())


def verify_batch_rank_floor(
    corpus: Corpus, seed: int = 0, rank_tol: float = RANK_TOL
) -> dict | None:
    """Check the in-batch rank floor on one corpus and one batch draw of a
    quarter of its sequences, its contexts one token long.

    Builds predictions P = (1 - delta) * normalized + delta * uniform for
    each delta of 1e-4, 1e-3, 1e-2 and 1e-1, and requires
    rank(P_batch - batch-normalized counts) to reach
    min(#unique distinct batch continuations, V - 1) at delta = 1e-3.
    Returns the instance's row: its unique batch contexts, that bound,
    whether it held at 1e-3 (1 or 0), the largest delta at which it held and
    the max-norm error of P at 1e-3. An instance with no qualifying context,
    or whose co-occurrence graph is not connected, does not qualify and
    returns None.
    """
    rng = np.random.default_rng(seed)
    table, counts = build_counts(corpus, 1)
    num_seqs = len(corpus.sequences)
    k = max(1, int(round(0.25 * num_seqs)))
    batch_ids = rng.choice(num_seqs, size=k, replace=False)
    batch = batch_counts(table, batch_ids)
    rows, tokens = unique_batch_contexts(counts, batch)
    if rows.size == 0:
        return None
    normalized = counts.to_dense(normalized=True)
    cross = normalized[rows][:, tokens]
    if not _connected(cross > 0):
        return None
    v = counts.vocab_size
    bound = min(rows.size, v - 1)
    largest_held = None
    batch_normalized = batch.to_dense(normalized=True)
    for delta in (1e-4, 1e-3, 1e-2, 1e-1):
        p = (1.0 - delta) * normalized + delta / v
        diff = p[batch.row_ids] - batch_normalized
        held = min(linalg.qr_rank(diff, rank_tol), _svd_rank(diff, rank_tol)) >= bound
        if held:
            largest_held = delta
        if delta == 1e-3:
            held_at_assert = int(held)
            inf_err = float(np.abs(p[rows] - normalized[rows]).max())
    return {
        "unique_batch_contexts": int(rows.size),
        "bound": int(bound),
        "held_at_assert_delta": held_at_assert,
        "largest_held_delta": largest_held,
        "max_inf_error": inf_err,
    }


def batch_rank_floor_suite(
    instances: int = 50, seed: int = 0, rank_tol: float = RANK_TOL
) -> VerificationResult:
    """Run the batch rank floor over seeded Zipf bigram corpora (V = 32,
    exponent 0.9, 24 sequences of 9 tokens) until `instances` of them
    satisfy the connectivity precondition; non-qualifying draws count as
    skipped. At most 20 draws per instance are made."""
    _positive(instances=instances)
    details = []
    attempt = 0
    while len(details) < instances and attempt < 20 * instances:
        corpus_seed = seed * 1_000_003 + attempt
        corpus = gen_zipf_bigram(32, 0.9, 24, 9, corpus_seed)
        row = verify_batch_rank_floor(corpus, seed=corpus_seed + 1, rank_tol=rank_tol)
        attempt += 1
        if row is not None:
            details.append({"corpus_seed": corpus_seed, **row})
    if len(details) < instances:
        raise ValueError(
            f"only {len(details)} of {instances} instances met the connectivity "
            f"precondition in {attempt} draws"
        )
    margins = [0.0 if det["held_at_assert_delta"] else -1.0 for det in details]
    return _finish("batch_rank_floor", seed, details, margins, skipped=attempt - len(details))


def verify_update_residual_gap(instances: int = 100, seed: int = 0) -> VerificationResult:
    """The rank-limited first-order update misses the prediction error by more
    than the optimal rank-2D truncation, under both residual conventions."""
    def draw(rng):
        d = int(rng.integers(1, 4))
        v = int(rng.integers(2 * d + 3, 17))
        n_unique = int(rng.integers(2 * d + 1, v + 1))
        c = min(24, n_unique + int(rng.integers(0, 5)))
        counts, _ = _plant_unique_structure(rng, c, v, n_unique)
        params = init_params(c, v, d, rng=rng)
        delta = first_order_logit_update(counts, params)
        # a fixed 1e-8, not the configured rank_tol: the claim is that the
        # update's rank is at most 2D, so a looser threshold could only hide
        # a violation
        delta_rank = linalg.qr_rank(delta, 1e-8)
        p = linalg.softmax_rows(logits(params))
        raw = p - counts.to_dense(normalized=True)
        weighted = counts.weights[:, None] * raw
        gap_raw = linalg.best_rank_k_residual(raw, 2 * d)
        gap_weighted = linalg.best_rank_k_residual(weighted, 2 * d)
        dist_raw = float(np.linalg.norm(delta - raw))
        dist_weighted = float(np.linalg.norm(delta - weighted))
        margin = min(
            float(2 * d - delta_rank),
            dist_raw - gap_raw,
            dist_weighted - gap_weighted,
        )
        return margin, {"C": c, "V": v, "D": d, "unique_tokens": n_unique,
                        "delta_rank": delta_rank, "gap_raw": gap_raw,
                        "excess_raw": dist_raw - gap_raw, "gap_weighted": gap_weighted,
                        "excess_weighted": dist_weighted - gap_weighted}

    return _instances("update_residual_gap", instances, seed, draw)


# check id -> the verifier itself (not wrapped in a tuple or object), so that
# perfbench's tracer, which swaps module-level dict values, reaches every call.
# The longest checks come first: the fork pool starts its jobs in this order.
CHECKS = {
    "batch_rank_floor": batch_rank_floor_suite,
    "loss_floor": verify_loss_floor,
    "logit_rank_caps": verify_logit_rank_caps,
    "top1_reachability": verify_top1_reachability,
    "error_rank_floor": verify_error_rank_floor,
    "update_residual_gap": verify_update_residual_gap,
}


def _run_check(check_id: str, check, kwargs: dict) -> VerificationResult:
    """check(**kwargs), a ValueError it raises raised again prefixed with
    its check id."""
    try:
        return check(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{check_id}: {exc}") from exc


def run_all(seed: int = 0, rank_tol: float = RANK_TOL, sizes: dict | None = None) -> dict:
    """Run every registered check; returns {check_id: VerificationResult},
    in registry order.

    `sizes` maps a check id to the keyword arguments of its verifier, which
    are `{"instances": N}` or none. `rank_tol` goes to every verifier that
    takes one. Every block's count, and `rank_tol`, which must be positive,
    are checked before the first check draws.
    The checks are independent jobs of `parallel._map_cells`, so they run in
    its fork pool where the CPU budget allows. Each draws from its own
    generator of `seed` (made by the one instance loop, `_instances`, for
    every check but `batch_rank_floor`, which reseeds per attempt), so the
    results do not depend on the worker count.
    A ValueError a verifier raises is raised again prefixed with its check
    id, the first in registry order when several fail.
    """
    sizes = sizes or {}
    _positive(**{f"{check_id}.instances": block["instances"]
                 for check_id, block in sizes.items() if "instances" in block})
    if not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol!r}")
    jobs = []
    for check_id, check in CHECKS.items():
        kwargs = {**sizes.get(check_id, {}), "seed": seed}
        if "rank_tol" in inspect.signature(check).parameters:
            kwargs["rank_tol"] = rank_tol
        jobs.append(partial(_run_check, check_id, check, kwargs))
    return dict(zip(CHECKS, _map_cells(jobs)))
