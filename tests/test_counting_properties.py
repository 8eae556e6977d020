"""Property tests: the vectorized counting functions against a tuple-key loop,
and the assumption statistics against dense count matrices."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import corpus as cp
from reference import context_index

PROPERTY_SETTINGS = settings(settings.get_profile("deterministic"), max_examples=150)


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
        st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=20), min_size=1, max_size=6)
    )
    return v, seqs


@st.composite
def counting_cases(draw):
    v, seqs = draw(corpora())
    _, held = draw(corpora(vocab_size=v))
    return {
        "vocab_size": v,
        "seqs": seqs,
        # sizes to 9 split as 3=2+1, 5=4+1, 7=4+2+1, 9=8+1, and reach past
        # the start of sequences up to 20 tokens long
        "mcl": draw(st.integers(0, 9)),
        "batch": draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1, max_size=8)),
        "held": held,
    }


@PROPERTY_SETTINGS
@given(corpora(), st.lists(st.integers(0, 9), min_size=1, max_size=4))
def test_equal_codes_are_equal_contexts(corpus_case, sizes):
    v, seqs = corpus_case
    tokens, starts = cp._concat(cp.Corpus(v, seqs).sequences)
    codes = cp._context_codes(tokens, starts, sizes)
    assert sorted(codes) == sorted(set(sizes))
    for k, code in codes.items():
        index = reference_index(seqs, k)
        ids = np.array([index[tuple(seq[max(0, t - k) : t])]
                        for seq in seqs for t in range(len(seq))])
        assert code.dtype == np.int64 and code.shape == tokens.shape
        assert np.array_equal(code[:, None] == code, ids[:, None] == ids)
        assert not code[starts[:-1]].any()  # code 0: the all-padding context


@PROPERTY_SETTINGS
@given(counting_cases())
def test_build_counts_matches_loop(case):
    v, seqs, mcl = case["vocab_size"], case["seqs"], case["mcl"]
    table, counts = cp.build_counts(cp.Corpus(v, seqs), mcl)
    index = reference_index(seqs, mcl)
    rows, n, _ = reference_counts(seqs, v, mcl, index)
    assert list(context_index(table)) == list(index)
    assert context_index(table) == index
    assert len(table) == len(index) and table.max_context_len == mcl
    assert np.array_equal(rows, np.arange(len(index)))
    assert np.array_equal(counts.to_dense(), n)
    assert counts.row_ids is None


@PROPERTY_SETTINGS
@given(counting_cases())
def test_batch_counts_matches_loop(case):
    v, seqs, mcl, batch = case["vocab_size"], case["seqs"], case["mcl"], case["batch"]
    corpus = cp.Corpus(v, seqs)
    table, _ = cp.build_counts(corpus, mcl)
    got = cp.batch_counts(table, batch)
    chosen = [seqs[s] for s in sorted(set(batch))]
    rows, n, skipped = reference_counts(chosen, v, mcl, reference_index(seqs, mcl))
    assert skipped == 0
    assert np.array_equal(got.row_ids, rows)
    assert np.array_equal(got.to_dense(), n)


@PROPERTY_SETTINGS
@given(counting_cases())
def test_counts_for_table_matches_loop(case):
    v, seqs, mcl = case["vocab_size"], case["seqs"], case["mcl"]
    held = case["held"]
    table, _ = cp.build_counts(cp.Corpus(v, seqs), mcl)
    rows, n, skipped = reference_counts(held, v, mcl, reference_index(seqs, mcl))
    if rows.size == 0:
        with pytest.raises(ValueError):
            cp.counts_for_table(cp.Corpus(v, held), table)
        return
    got, got_skipped = cp.counts_for_table(cp.Corpus(v, held), table)
    assert got_skipped == skipped
    assert np.array_equal(got.row_ids, rows)
    assert np.array_equal(got.to_dense(), n)


def dense_unique_continuations(counts):
    """Single-continuation rows and their tokens, read from the dense counts."""
    n = counts.to_dense()
    rows = np.flatnonzero((n > 0).sum(axis=1) == 1)
    return rows, n[rows].argmax(axis=1)


def assert_stats_csv_matches_dense_path(corpus, mcl, prefix_sizes, tmp_dir):
    """stats.csv from `assumption_stats` equals, byte for byte, the one from
    dense per-prefix count matrices."""
    table, counts = cp.build_counts(corpus, mcl)
    stats = cp.assumption_stats(table, counts, prefix_sizes=prefix_sizes)
    rows, tokens = dense_unique_continuations(counts)
    by_prefix = {}
    for size in prefix_sizes:
        _, sized_tokens = dense_unique_continuations(cp.build_counts(corpus, size)[1])
        by_prefix[size] = int(np.unique(sized_tokens).size)
    dense = dataclasses.replace(
        stats,
        unique_context_count=int(rows.size),
        unique_next_token_count=int(np.unique(tokens).size),
        unique_token_counts_by_prefix_size=by_prefix,
    )
    for name, s in (("sparse.csv", stats), ("dense.csv", dense)):
        cp.write_stats_csv(Path(tmp_dir) / name, s)
    assert (Path(tmp_dir) / "sparse.csv").read_bytes() == (Path(tmp_dir) / "dense.csv").read_bytes()


@PROPERTY_SETTINGS
@given(corpora(), st.integers(0, 9), st.lists(st.integers(0, 9), max_size=5, unique=True))
def test_assumption_stats_match_dense_path(corpus_case, mcl, prefix_sizes):
    v, seqs = corpus_case
    with tempfile.TemporaryDirectory() as tmp_dir:
        assert_stats_csv_matches_dense_path(cp.Corpus(v, seqs), mcl, prefix_sizes, tmp_dir)


@pytest.mark.parametrize(
    "corpus",
    [cp.gen_zipf_bigram(24, 1.1, 40, 30, seed=3), cp.gen_spamlang(12, 30, 8, seed=4)],
    ids=["zipf", "spamlang"],
)
def test_generated_corpus_stats_match_dense_path(corpus, tmp_path):
    assert_stats_csv_matches_dense_path(corpus, 16, [1, 2, 4, 8, 16], tmp_path)


def dense_row_entropies(counts):
    """-sum p log p over each full dense row (the formula `row_entropies` keeps)."""
    p = counts.to_dense(normalized=True)
    contrib = np.zeros_like(p)
    nz = p > 0
    contrib[nz] = p[nz] * np.log(p[nz])
    return np.maximum(-contrib.sum(axis=1), 0.0)


@st.composite
def count_matrices(draw):
    v = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        # equal counts on k tokens give entropy log k, which can sit exactly
        # on a histogram bin edge
        cols = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=v, unique=True))
        row = np.zeros(v, dtype=np.int64)
        equal = draw(st.booleans())
        row[cols] = 1 if equal else draw(
            st.lists(st.integers(1, 9), min_size=len(cols), max_size=len(cols))
        )
        rows.append(row)
    return cp.CountMatrix.from_counts(np.array(rows))


@PROPERTY_SETTINGS
@given(count_matrices())
def test_row_entropies_equal_the_dense_formula(counts):
    assert np.array_equal(cp.row_entropies(counts), dense_row_entropies(counts))


@pytest.mark.parametrize("mcl", [0, 1, 2, 16])
def test_generated_corpus_entropies_equal_the_dense_formula(mcl):
    for corpus in (cp.gen_zipf_bigram(256, 1.1, 100, 30, seed=5), cp.gen_spamlang(12, 30, 8, 4)):
        _, counts = cp.build_counts(corpus, mcl)
        assert np.array_equal(cp.row_entropies(counts), dense_row_entropies(counts))
