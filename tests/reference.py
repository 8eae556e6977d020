"""Reference paths the tests check the library against; not part of headlab."""

import numpy as np

from headlab import corpus as cp
from headlab import linalg
from headlab import model as md


def context_index(table):
    """Context key tuple -> row id of a ContextTable, in row order, rebuilt
    from its tokens: each token's key is the last `max_context_len` tokens
    before it within its sequence, and each key must have one row."""
    index = {}
    for lo, hi in zip(table.starts[:-1], table.starts[1:]):
        seq = table.tokens[lo:hi].tolist()
        for t, row in enumerate(table.token_rows[lo:hi].tolist()):
            key = tuple(seq[max(0, t - table.max_context_len) : t])
            assert index.setdefault(key, row) == row, key
    return dict(sorted(index.items(), key=lambda item: item[1]))


def logit_gradient(counts, p):
    """Loss gradient with respect to the logits, given probabilities `p`: the
    dense reference of the row-block gradient pass.

    Rows are weighted by the context weights; every row sums to zero because
    both `p` and the normalized counts are row-stochastic.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != counts.shape:
        raise ValueError("probability shape does not match counts shape")
    return counts.weights[:, None] * (p - counts.to_dense(normalized=True))


def logit_state(counts, params):
    """(logits, loss, probabilities, logit gradient): the dense C x V state
    that `diagnose` never forms."""
    lm = md.logits(params)
    p, base_loss = md.probs_and_loss(counts, lm)
    return lm, base_loss, p, logit_gradient(counts, p)


def lost_norm_fraction(g, head):
    """Fraction of ||g||_F that lies in the kernel of the head transpose.

    This is exactly the part of the logit gradient that cannot reach any
    parameter below the head. Defined as 0 for an all-zero gradient.
    """
    g = np.asarray(g, dtype=np.float64)
    total = np.linalg.norm(g)
    if total == 0.0:
        return 0.0
    _, lost = linalg.kernel_split(g, head.matrix)
    return float(np.linalg.norm(lost) / total)


def compression_dense(g, head):
    """(lost_fraction, cosine_mean, cosine_std, per_row_lost, lost): the
    kernel split of the whole C x V gradient at once."""
    g = np.asarray(g, dtype=np.float64)
    total = np.linalg.norm(g)
    if total == 0.0:
        return 0.0, 0.0, 0.0, np.zeros(len(g)), np.zeros_like(g)
    kept, lost = linalg.kernel_split(g, head.matrix)
    row_norms = np.linalg.norm(g, axis=1)
    nz = row_norms > 0
    per_row = np.zeros(g.shape[0])
    per_row[nz] = np.linalg.norm(lost[nz], axis=1) / row_norms[nz]
    cos = np.linalg.norm(kept[nz], axis=1) / row_norms[nz]
    return float(np.linalg.norm(lost) / total), float(cos.mean()), float(cos.std()), per_row, lost


def coefficient_profile_dense(g_full, g_proj):
    """(full_mean, full_std, proj_mean, proj_std) from every sorted row at once."""
    order = np.argsort(-np.abs(g_full), axis=1)
    f_sorted = np.take_along_axis(g_full, order, axis=1)
    p_sorted = np.take_along_axis(g_proj, order, axis=1)
    flip = np.where(f_sorted[:, 0] > 0, -1.0, 1.0)[:, None]
    f_sorted = f_sorted * flip
    p_sorted = p_sorted * flip
    return f_sorted.mean(axis=0), f_sorted.std(axis=0), p_sorted.mean(axis=0), p_sorted.std(axis=0)


def update_efficiency_dense(counts, lm, base_loss, g, head, fractions):
    """(delta_logit, delta_hidden): the loss of each whole perturbed C x V
    logit matrix, less `base_loss`."""
    wm = head.matrix
    hidden_dir = (g @ wm) @ wm.T
    d1 = -g / np.linalg.norm(g)
    d2 = -hidden_dir / np.linalg.norm(hidden_dir)
    budget = np.linalg.norm(lm)
    return ([md.loss_from_logits(counts, lm + a * budget * d1) - base_loss for a in fractions],
            [md.loss_from_logits(counts, lm + a * budget * d2) - base_loss for a in fractions])


def softmax_rows_dense(m):
    """Row-wise softmax in three out-of-place steps: shift by the row max,
    exponentiate, divide by the row sums."""
    a = linalg.as_matrix(m)
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def token_occurrences(counts):
    """All counted (context row, next token) occurrences, with multiplicity."""
    return np.repeat(counts.rows, counts.n), np.repeat(counts.cols, counts.n)


def per_token_gradient_matrix(p, occ_rows, occ_cols):
    """One gradient row per token occurrence: p[context] minus the token one-hot."""
    m = p[occ_rows].copy()
    m[np.arange(len(occ_rows)), occ_cols] -= 1.0
    return m


def gradient_rank_curve_dense(counts, p, token_counts, seed, rank_tol=linalg.DEFAULT_RANK_TOL):
    """The (token_count, rank, max_rank) points, with the per-token rows
    read from the whole C x V probability matrix `p`."""
    occ_rows, occ_cols = token_occurrences(counts)
    rng = np.random.default_rng(seed)
    points = []
    for k in token_counts:
        draw = rng.choice(counts.total, size=k, replace=False)
        m = per_token_gradient_matrix(p, occ_rows[draw], occ_cols[draw])
        points.append((k, linalg.qr_rank(m, rank_tol), min(k, counts.vocab_size)))
    return points


def diagnose_dense(counts, params, token_counts, fractions, seed):
    """Every figure `diagnose` writes, from the dense C x V logits, softmax
    and logit gradient, keyed by output file."""
    lm, base_loss, p, g = logit_state(counts, params)
    lost_fraction, cos_mean, cos_std, per_row, lost = compression_dense(g, params.head)
    delta_logit, delta_hidden = update_efficiency_dense(
        counts, lm, base_loss, g, params.head, fractions)
    return {
        "compression": [lost_fraction, cos_mean, cos_std,
                        linalg.best_rank_k_residual(g, 2 * params.width)],
        "per_row_lost": per_row,
        "coefficient_profile": coefficient_profile_dense(g, lost),
        "efficiency": (delta_logit, delta_hidden),
        "rank_curve": gradient_rank_curve_dense(counts, p, token_counts, seed),
    }


def exact_logit_update(counts, params, lr):
    """(logits(params - lr * grad) - logits(params)) / lr, computed exactly."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    grads = md.param_gradients(counts, params)
    stepped = params.copy()
    for name, mat in stepped.parts.items():
        mat -= lr * grads[name]
    return (md.logits(stepped) - md.logits(params)) / lr


def gen_zipf_bigram_dense(vocab_size, exponent, num_seqs, seq_len, seed):
    """`corpus.gen_zipf_bigram` drawing each token by comparing u against
    every entry of its predecessor's CDF row."""
    rng = np.random.default_rng(seed)
    trans = cp.zipf_transition_matrix(vocab_size, exponent, rng)
    cdf = np.cumsum(trans, axis=1)
    cdf[:, -1] = 1.0
    init_cdf = np.cumsum(cp.zipf_weights(vocab_size, exponent))
    init_cdf[-1] = 1.0

    tokens = np.empty((num_seqs, seq_len), dtype=np.int64)
    u = rng.random(num_seqs)
    tokens[:, 0] = np.searchsorted(init_cdf, u, side="right")
    for t in range(1, seq_len):
        rows = cdf[tokens[:, t - 1]]
        u = rng.random(num_seqs)
        tokens[:, t] = (rows <= u[:, None]).sum(axis=1)
    np.clip(tokens, 0, vocab_size - 1, out=tokens)
    return cp.Corpus(vocab_size=vocab_size, sequences=list(tokens))


def gen_zipf_bigram_out_of_place(vocab_size, exponent, num_seqs, seq_len, seed):
    """`corpus.gen_zipf_bigram` searching a separate cumulative-sum table,
    so that it holds two V x V tables at once."""
    rng = np.random.default_rng(seed)
    trans = cp.zipf_transition_matrix(vocab_size, exponent, rng)
    body = np.cumsum(trans[:, :-1], axis=1)
    init_cdf = np.cumsum(cp.zipf_weights(vocab_size, exponent))
    init_cdf[-1] = 1.0

    tokens = np.empty((num_seqs, seq_len), dtype=np.int64)
    u = rng.random(num_seqs)
    tokens[:, 0] = np.searchsorted(init_cdf, u, side="right")
    for t in range(1, seq_len):
        tokens[:, t] = cp._count_at_most(body, tokens[:, t - 1], rng.random(num_seqs))
    return cp.Corpus(vocab_size=vocab_size, sequences=list(tokens))


def optimizer_step(optimizer, params, grads, lr, h_rows=None):
    """`model._Optimizer.step` with a fresh array for every operation: the
    update its scratch arrays must reproduce bit for bit."""
    b1, b2 = md.ADAM_BETA1, md.ADAM_BETA2
    optimizer.t += 1
    c1 = 1.0 - b1**optimizer.t
    c2 = 1.0 - b2**optimizer.t
    for name, target in params.parts.items():
        rows = h_rows if name == "h" and h_rows is not None else slice(None)
        grad = grads[name]
        if optimizer.config.optimizer == "gd":
            target[rows] -= lr * grad
        else:
            m, v = optimizer.m[name][rows], optimizer.v[name][rows]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad**2
            optimizer.m[name][rows], optimizer.v[name][rows] = m, v
            target[rows] -= lr * (m / c1) / (np.sqrt(v / c2) + md.ADAM_EPS)
