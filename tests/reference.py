"""Reference paths the tests check the library against; not part of headlab."""

import numpy as np

from headlab import corpus as cp
from headlab import linalg
from headlab import model as md


def logit_state(counts, params):
    """(logits, loss, probabilities, logit gradient): the dense state that
    `diagnose` forms once and hands to every diagnostic."""
    lm = md.logits(params)
    p, base_loss = md.probs_and_loss(counts, lm)
    return lm, base_loss, p, md.logit_gradient(counts, p)


def lost_norm_fraction(g, head, rank_tol=linalg.DEFAULT_RANK_TOL):
    """Fraction of ||g||_F that lies in the kernel of the head transpose.

    This is exactly the part of the logit gradient that cannot reach any
    parameter below the head. Defined as 0 for an all-zero gradient.
    """
    g = np.asarray(g, dtype=np.float64)
    total = np.linalg.norm(g)
    if total == 0.0:
        return 0.0
    _, lost = linalg.kernel_split(g, head.matrix, rank_tol)
    return float(np.linalg.norm(lost) / total)


def exact_logit_update(counts, params, lr, update_h=True, update_head=True):
    """(logits(params - lr * grad) - logits(params)) / lr, computed exactly."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    grads = md.param_gradients(counts, params)
    stepped = params.copy()
    parts = {**({"h": stepped.h} if update_h else {}),
             **(stepped.head.parts if update_head else {})}
    for name, mat in parts.items():
        mat -= lr * getattr(grads, name)
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
    return cp.Corpus(vocab_size=vocab_size, sequences=list(tokens), seed=seed)
