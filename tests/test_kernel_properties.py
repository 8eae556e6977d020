"""Property tests: the row-block softmax kernel behind `loss`, `top1_accuracy`
and `param_gradients` against the dense oracle
`logit_gradient(probs_and_loss(...))`, it and `diagnose`'s two threaded
passes against themselves on one and two threads, and the memory held by
triplet counts."""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import corpus as cp
from headlab import diagnostics as dg
from headlab import model as md
from headlab import parallel
from reference import logit_gradient

PROPERTY_SETTINGS = settings(settings.get_profile("deterministic"), max_examples=200)


@st.composite
def kernel_cases(draw):
    """(counts, params, block rows, shards): full or factored heads,
    full-table or batch counts with `row_ids`, blocks larger than C or not
    dividing it, and fewer blocks than shards.

    Parameters are quarter integers, so every logit is exact in any
    summation order; small counts and duplicated head rows make argmax ties
    on both sides common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.integers(2, 9))
    d = draw(st.integers(1, 4))
    c_table = draw(st.integers(1, 12))
    if draw(st.booleans()):
        row_ids = np.flatnonzero(rng.random(c_table) < 0.6)
        if row_ids.size == 0:
            row_ids = np.array([c_table - 1])
    else:
        row_ids = None
    c = c_table if row_ids is None else row_ids.size
    n = rng.integers(0, 4, size=(c, v))
    n[n.sum(axis=1) == 0, rng.integers(v)] = 1
    counts = dataclasses.replace(cp.CountMatrix.from_counts(n), row_ids=row_ids)

    def quarters(*shape):
        return rng.integers(-4, 5, size=shape) / 4.0

    if draw(st.booleans()):
        r = draw(st.integers(1, d))
        head = md.FactoredHead(quarters(v, r), quarters(r, d))
        rows = head.a
    else:
        head = md.FullHead(quarters(v, d))
        rows = head.w
    if draw(st.booleans()):
        rows[1] = rows[0]  # two tokens with equal logits in every row
    params = md.ModelParams(quarters(c_table, d), head)
    return counts, params, draw(st.integers(1, c + 2)), draw(st.integers(1, 4))


def kernel_layout(counts, block_rows, shards):
    """Patches giving `_row_block_pass` blocks of `block_rows` rows and
    `shards` shards."""
    return mock.patch.multiple(
        md, BLOCK_BYTES=block_rows * 8 * counts.vocab_size, SHARDS=shards
    )


def dense_oracle(counts, params):
    """(loss, top-1 matches, gradients keyed as `params.parts`) through
    C x V matrices."""
    h = params.h if counts.row_ids is None else params.h[counts.row_ids]
    p, loss_value = md.probs_and_loss(counts, md.logits(md.ModelParams(h, params.head)))
    match = p.argmax(axis=1) == counts.to_dense(normalized=True).argmax(axis=1)
    g = logit_gradient(counts, p)
    head = params.head
    if isinstance(head, md.FactoredHead):
        gw_eff = g.T @ h
        grads = {"h": (g @ head.a) @ head.b, "a": gw_eff @ head.b.T, "b": head.a.T @ gw_eff}
    else:
        grads = {"h": g @ head.w, "w": g.T @ h}
    return loss_value, match, grads


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_row_block_kernel_matches_dense_oracle(case):
    counts, params, block_rows, shards = case
    want_loss, match, want = dense_oracle(counts, params)
    with kernel_layout(counts, block_rows, shards):
        got_loss = md.loss(counts, params)
        top1 = md.top1_accuracy(counts, params)
        got = md.param_gradients(counts, params)
    assert abs(got_loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    assert top1 == (float(min((counts.weights * match).sum(), 1.0)), float(match.mean()))
    assert list(got) == list(want)
    for name, expected in want.items():
        assert got[name].shape == expected.shape
        np.testing.assert_allclose(got[name], expected, rtol=1e-10, atol=1e-13)


def _pass_bytes(result):
    """Every value `_row_block_pass` returns, as bytes."""
    logp_sum, max_abs, match, grads = result
    parts = [np.float64(max_abs).tobytes()]
    if logp_sum is not None:
        parts.append(np.float64(logp_sum).tobytes())
    if match is not None:
        parts.append(match.tobytes())
    if grads is not None:
        parts += [grad.tobytes() for grad in grads.values()]
    return b"|".join(parts)


def _diagnose_bytes(counts, params):
    """Every figure of `diagnostics.gradient_pass` and `update_efficiency`, as
    bytes, or the message of the error that refused them."""
    try:
        first = dg.gradient_pass(counts, params)
    except ValueError as error:
        return str(error)
    curve = dg.update_efficiency(counts, params, first, [0.1, 1.0])
    report = first.report
    figures = [report.lost_fraction, report.cosine_mean, report.cosine_std,
               report.per_row_lost, *vars(first.profile).values(), first.base_loss,
               first.logit_norm, first.grad_norm, first.hidden_norm, curve.delta_logit,
               curve.delta_hidden]
    return b"|".join(np.asarray(x, dtype=np.float64).tobytes() for x in figures)


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_row_block_kernel_is_bit_identical_on_one_and_two_threads(case):
    counts, params, block_rows, shards = case
    passes = {
        "eval": lambda: _pass_bytes(md._row_block_pass(counts, params.h, params.head)),
        "grad": lambda: _pass_bytes(md._row_block_pass(counts, params.h, params.head, True)),
        "diagnose": lambda: _diagnose_bytes(counts, params),
    }
    with kernel_layout(counts, block_rows, shards):
        for name, run in passes.items():
            results = []
            for budget in (1, 2):
                with mock.patch.object(parallel, "cpu_budget", lambda: budget):
                    results.append(run())
            assert results[0] == results[1], name


def test_counts_hold_no_dense_array():
    corpus = cp.gen_zipf_bigram(64, 1.0, 64, 32, seed=0)
    table, full = cp.build_counts(corpus, 16)
    batch = cp.batch_counts(table, range(0, 64, 2))
    for counts in (full, batch):
        counts.targets  # the cached per-row argmax is held too
        c, v = counts.shape
        arrays = [a for a in vars(counts).values() if isinstance(a, np.ndarray)]
        assert c * v > 20 * (counts.n.size + c)
        assert all(a.size < c * v for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 8 * (3 * counts.n.size + 4 * c)
