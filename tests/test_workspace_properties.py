"""Property tests: the buffers `model.train` reuses from step to step (the
`_Workspace` of its logit passes and the optimizer's scratch arrays) give the
bits of fresh buffers, the step loop allocates nothing of a block's or a
`C x D` matrix's size, and the row-block rule."""

import dataclasses
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import corpus as cp
from headlab import model as md
from headlab import parallel
from reference import optimizer_step

PROPERTY_SETTINGS = settings(settings.get_profile("deterministic"), max_examples=200)


@st.composite
def corpora(draw):
    """A random corpus of 2-8 sequences of 1-10 tokens over V in [2, 9]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.integers(2, 9))
    seqs = [rng.integers(0, v, size=rng.integers(1, 11)).tolist()
            for _ in range(draw(st.integers(2, 8)))]
    return cp.Corpus(v, seqs)


# (rows per block, up to past a small corpus's C; shards; CPU budget)
LAYOUTS = st.tuples(st.integers(1, 40), st.integers(1, 3), st.sampled_from([1, 2]))


@contextmanager
def layout(vocab_size, block_rows, shards, budget):
    with mock.patch.multiple(md, BLOCK_BYTES=block_rows * 8 * vocab_size, SHARDS=shards), \
            mock.patch.object(parallel, "cpu_budget", lambda: budget):
        yield


def _bytes(arrays):
    return [(name, a.shape, a.tobytes()) for name, a in arrays.items()]


def _pass_bytes(result):
    logp_sum, max_abs, match, grads = result
    return (logp_sum, max_abs, None if match is None else match.tobytes(),
            None if grads is None else _bytes(grads))


def _recorded_train(counts, config, table, val_counts, reference: bool):
    """(result, the gradients of every step as bytes) of `md.train`; with
    `reference`, every pass runs on fresh buffers and the optimizer makes a
    fresh array per operation."""
    steps = []
    real_pass, real_step = md._row_block_pass, md._Optimizer.step

    def fresh_pass(counts, h, head, grad=False, workspace=None):
        return real_pass(counts, h, head, grad)

    def recording_step(optimizer, params, grads, lr, h_rows=None):
        steps.append(_bytes(grads))
        (optimizer_step if reference else real_step)(optimizer, params, grads, lr, h_rows)

    with mock.patch.object(md._Optimizer, "step", recording_step), \
            mock.patch.object(md, "_row_block_pass", fresh_pass if reference else real_pass):
        return md.train(counts, config, table=table, val_counts=val_counts), steps


@st.composite
def train_cases(draw):
    corpus = draw(corpora())
    table, counts = cp.build_counts(corpus, draw(st.integers(1, 3)))
    width = draw(st.integers(1, 4))
    batch = draw(st.one_of(st.none(), st.integers(1, len(corpus.sequences))))
    config = md.TrainConfig(
        steps=draw(st.integers(2, 6)), lr=draw(st.sampled_from([0.05, 0.5])), width=width,
        head_rank=draw(st.one_of(st.none(), st.integers(1, width))),
        optimizer=draw(st.sampled_from(["gd", "adam"])), batch_sequences=batch,
        seed=draw(st.integers(0, 3)), eval_every=draw(st.integers(1, 3)))
    val_counts = None
    if draw(st.booleans()):
        held_out = cp.Corpus(corpus.vocab_size, corpus.sequences[::2])
        val_counts, _ = cp.counts_for_table(held_out, table)
    return counts, config, table, val_counts, (corpus.vocab_size, *draw(LAYOUTS))


@PROPERTY_SETTINGS
@given(train_cases())
def test_train_with_reused_buffers_matches_fresh_buffers(case):
    """Full and factored heads, GD and Adam, full batches and mini-batches
    whose row counts change from step to step, blocks below and above C, and
    budgets 1 and 2: the same gradients, parameters and trajectory, bit for
    bit."""
    counts, config, table, val_counts, layout_args = case
    with layout(*layout_args):
        got, got_grads = _recorded_train(counts, config, table, val_counts, reference=False)
        want, want_grads = _recorded_train(counts, config, table, val_counts, reference=True)
    assert got_grads == want_grads
    assert _bytes(got.params.parts) == _bytes(want.params.parts)
    assert got.trajectory == want.trajectory


@PROPERTY_SETTINGS
@given(corpora(), st.integers(1, 3), st.data())
def test_one_workspace_serves_passes_that_grow_and_shrink(corpus, mcl, data):
    """Batch counts of growing, then shrinking, row counts (each with its
    `row_ids`), and the full counts, through one workspace: every pass
    returns the bits of a pass on fresh buffers."""
    table, full = cp.build_counts(corpus, mcl)
    seqs = len(corpus.sequences)
    batches = [cp.batch_counts(table, data.draw(
        st.lists(st.integers(0, seqs - 1), min_size=1, max_size=seqs, unique=True)))
        for _ in range(3)]
    batches.sort(key=lambda counts: counts.num_contexts)
    width = data.draw(st.integers(1, 4))
    rank = data.draw(st.one_of(st.none(), st.integers(1, width)))
    params = md.init_params(full.num_contexts, corpus.vocab_size, width, rank,
                            seed=data.draw(st.integers(0, 3)))
    with layout(corpus.vocab_size, *data.draw(LAYOUTS)):
        workspace = md._Workspace(corpus.vocab_size, width, full.num_contexts)
        for counts in [*batches, full, *batches[::-1]]:
            for grad in (True, False):
                got = _pass_bytes(md._row_block_pass(counts, params.h, params.head, grad,
                                                     workspace))
                assert got == _pass_bytes(md._row_block_pass(counts, params.h, params.head,
                                                             grad))


def test_param_gradients_are_fresh_arrays():
    """Two calls share no memory with each other or with a workspace."""
    corpus = cp.gen_zipf_bigram(16, 1.0, 16, 12, seed=0)
    _, counts = cp.build_counts(corpus, 2)
    params = md.init_params(counts.num_contexts, 16, 4, seed=1)
    workspace = md._Workspace(16, 4, counts.num_contexts)
    kept = md._row_block_pass(counts, params.h, params.head, True, workspace)[3]
    held = [*kept.values(), workspace.rows_gradient(counts.num_contexts),
            *(a for shard in workspace.shards for a in shard)]
    first = md.param_gradients(counts, params)
    second = md.param_gradients(counts, params)
    assert _bytes(first) == _bytes(second)
    for a in first.values():
        for b in [*second.values(), *held]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("optimizer, head_rank", [("adam", None), ("gd", None),
                                                  ("adam", 4)])
def test_step_loop_allocates_no_block_or_row_matrix(optimizer, head_rank, two_cpus):
    """After the first step of a full-batch `train`, no allocation that numpy
    reports to tracemalloc is as large as a row block or the C x D rows: the
    traced peak never rises that far above the memory held at the second
    step's start."""
    corpus = cp.gen_zipf_bigram(64, 1.0, 128, 24, seed=0)
    _, counts = cp.build_counts(corpus, 2)
    c, v, d = counts.num_contexts, counts.vocab_size, 32
    block_bytes = 8 * v * min(md._block_starts(counts).step, c)
    assert len(md._block_starts(counts)) >= 2  # both shards run
    config = md.TrainConfig(steps=6, lr=0.01, width=d, head_rank=head_rank,
                            optimizer=optimizer, eval_every=2)
    real_pass, grad_passes, held = md._row_block_pass, [], []

    def marking_pass(counts, h, head, grad=False, workspace=None):
        if grad:
            grad_passes.append(1)
            if len(grad_passes) == 2:
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
        return real_pass(counts, h, head, grad, workspace)

    tracemalloc.start()
    try:
        with mock.patch.object(md, "_row_block_pass", marking_pass):
            md.train(counts, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grad_passes) == config.steps
    assert peak - held[0] < min(block_bytes, 8 * c * d)


@pytest.mark.parametrize("vocab_size, rows", [(16, 4096), (32, 2048), (512, 128),
                                              (1024, 64), (2048, 64), (4096, 64)])
def test_block_rows_follow_v_up_to_1024(vocab_size, rows):
    """BLOCK_BYTES of logits per block at V <= 1024; V = 1024's 64 rows above."""
    counts = dataclasses.replace(cp.CountMatrix.from_counts(np.ones((1, 2))),
                                 vocab_size=vocab_size)
    assert md._block_starts(counts).step == rows


def test_blocks_fit_the_dense_size_guard(monkeypatch):
    """A block has no more rows than the guard lets through; a vocabulary
    whose one row of logits is over it is refused before allocating."""
    monkeypatch.setattr(cp, "MAX_DENSE_BYTES", 8 * 2048 * 40)
    assert md._block_rows(2048) == 40
    assert [b.shape for b in md._block_buffers(2048, 100, 2)] == [(40, 2048)] * 2
    monkeypatch.setattr(cp, "MAX_DENSE_BYTES", 8 * 2048 - 1)
    with pytest.raises(cp.ContextOverflowError, match=r"^a row block of logits "
                       r"\(rows x tokens\): 1 x 2048 exceed 16383 bytes"):
        md._Workspace(2048, 4, 100)
