"""Property tests: the vectorized counting functions against a tuple-key loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import corpus as cp

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def reference_index(sequences, max_context_len):
    """Context key tuple -> row id, in first-seen order."""
    index = {}
    for seq in sequences:
        for t in range(len(seq)):
            index.setdefault(tuple(seq[max(0, t - max_context_len) : t]), len(index))
    return index


def reference_counts(sequences, vocab_size, max_context_len, index):
    """(row ids with a count, their count rows, skipped tokens) against `index`."""
    n = np.zeros((len(index), vocab_size), dtype=np.int64)
    skipped = 0
    for seq in sequences:
        for t, tok in enumerate(seq):
            rid = index.get(tuple(seq[max(0, t - max_context_len) : t]))
            if rid is None:
                skipped += 1
            else:
                n[rid, tok] += 1
    rows = np.flatnonzero(n.sum(axis=1))
    return rows, n[rows], skipped


@st.composite
def corpora(draw, vocab_size=None):
    v = draw(st.integers(1, 4)) if vocab_size is None else vocab_size
    seqs = draw(
        st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=7), min_size=1, max_size=6)
    )
    return v, seqs


@st.composite
def counting_cases(draw):
    v, seqs = draw(corpora())
    _, held = draw(corpora(vocab_size=v))
    return {
        "vocab_size": v,
        "seqs": seqs,
        "mcl": draw(st.integers(0, 4)),
        "batch": draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1, max_size=8)),
        "held": held,
        "held_mcl": draw(st.integers(0, 4)),
    }


@PROPERTY_SETTINGS
@given(counting_cases())
def test_build_counts_matches_loop(case):
    v, seqs, mcl = case["vocab_size"], case["seqs"], case["mcl"]
    table, counts = cp.build_counts(cp.Corpus(v, seqs), mcl)
    index = reference_index(seqs, mcl)
    rows, n, _ = reference_counts(seqs, v, mcl, index)
    assert table.contexts == list(index)
    assert table.index == index
    assert table.keys.shape == (len(index), mcl)
    assert np.array_equal(rows, np.arange(len(index)))
    assert np.array_equal(counts.counts, n)
    assert counts.row_ids is None


@PROPERTY_SETTINGS
@given(counting_cases())
def test_batch_counts_matches_loop(case):
    v, seqs, mcl, batch = case["vocab_size"], case["seqs"], case["mcl"], case["batch"]
    corpus = cp.Corpus(v, seqs)
    table, _ = cp.build_counts(corpus, mcl)
    got = cp.batch_counts(corpus, table, batch, mcl)
    chosen = [seqs[s] for s in sorted(set(batch))]
    rows, n, skipped = reference_counts(chosen, v, mcl, reference_index(seqs, mcl))
    assert skipped == 0
    assert np.array_equal(got.row_ids, rows)
    assert np.array_equal(got.counts, n)


@PROPERTY_SETTINGS
@given(counting_cases())
def test_counts_for_table_matches_loop(case):
    v, seqs, mcl = case["vocab_size"], case["seqs"], case["mcl"]
    held, held_mcl = case["held"], case["held_mcl"]
    table, _ = cp.build_counts(cp.Corpus(v, seqs), mcl)
    rows, n, skipped = reference_counts(held, v, held_mcl, reference_index(seqs, mcl))
    if rows.size == 0:
        with pytest.raises(ValueError):
            cp.counts_for_table(cp.Corpus(v, held), table, held_mcl)
        return
    got, got_skipped = cp.counts_for_table(cp.Corpus(v, held), table, held_mcl)
    assert got_skipped == skipped
    assert np.array_equal(got.row_ids, rows)
    assert np.array_equal(got.counts, n)


@PROPERTY_SETTINGS
@given(counting_cases())
def test_batch_of_another_corpus_is_refused(case):
    v, seqs, mcl, batch = case["vocab_size"], case["seqs"], case["mcl"], case["batch"]
    table, _ = cp.build_counts(cp.Corpus(v, seqs), mcl)
    longer = [list(s) for s in seqs]
    longer[batch[0]].append(0)
    shifted = [[(t + 1) % (v + 1) for t in s] for s in seqs]  # same shape, other tokens
    for other, other_mcl in ((seqs, mcl + 1), (longer, mcl), (shifted, mcl)):
        with pytest.raises(ValueError):
            cp.batch_counts(cp.Corpus(v + 1, other), table, batch, other_mcl)
