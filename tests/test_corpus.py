import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headlab import corpus as cp
from reference import context_index, gen_zipf_bigram_dense, gen_zipf_bigram_out_of_place


def brute_force_counts(sequences, vocab_size, max_context_len):
    """Scalar-loop oracle: dict of context tuple -> per-token counts."""
    table = {}
    for seq in sequences:
        toks = [int(t) for t in seq]
        for t, tok in enumerate(toks):
            key = tuple(toks[max(0, t - max_context_len) : t])
            row = table.setdefault(key, [0] * vocab_size)
            row[tok] += 1
    return table


def counts_as_dict(table, counts):
    n = counts.to_dense()
    return {key: n[i].tolist() for key, i in context_index(table).items()}


class TestSpamlang:
    def test_every_sequence_repeats_one_symbol(self):
        c = cp.gen_spamlang(16, 40, 9, seed=11)
        for seq in c.sequences:
            assert np.all(seq == seq[0])

    def test_symbol_frequencies_near_uniform(self):
        # direct frequency count against a 3-sigma binomial band
        c = cp.gen_spamlang(4, 4000, 8, seed=7)
        first = np.array([int(s[0]) for s in c.sequences])
        counts = np.bincount(first, minlength=4)
        expect = 1000.0
        band = 3.0 * np.sqrt(4000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) <= band)

    def test_single_sequence_two_symbols(self):
        c = cp.gen_spamlang(2, 1, 3, seed=5)
        seq = list(c.sequences[0])
        assert seq in ([0, 0, 0], [1, 1, 1])

    def test_deterministic(self):
        a = cp.gen_spamlang(8, 12, 6, seed=3)
        b = cp.gen_spamlang(8, 12, 6, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.sequences, b.sequences))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            cp.gen_spamlang(1, 5, 5, seed=0)
        with pytest.raises(ValueError):
            cp.gen_spamlang(4, 5, 1, seed=0)


class TestZipfBigram:
    def test_two_token_closed_form(self):
        exponent = 1.7
        rng = np.random.default_rng(0)
        table = cp.zipf_transition_matrix(2, exponent, rng)
        p = 1.0 / (1.0 + 2.0 ** (-exponent))
        for row in table:
            assert sorted(row) == pytest.approx([1.0 - p, p], abs=1e-15)

    def test_near_zero_exponent_is_near_uniform(self):
        # plug-in entropy estimator oracle on the generated unigrams
        v = 16
        c = cp.gen_zipf_bigram(v, 1e-9, 400, 50, seed=21)
        tokens = np.concatenate(c.sequences)
        freqs = np.bincount(tokens, minlength=v) / len(tokens)
        entropy = -np.sum(freqs[freqs > 0] * np.log(freqs[freqs > 0]))
        assert abs(entropy - np.log(v)) < 0.01

    def test_byte_for_byte_determinism(self, tmp_path):
        a = cp.gen_zipf_bigram(12, 1.2, 30, 15, seed=9)
        b = cp.gen_zipf_bigram(12, 1.2, 30, 15, seed=9)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        cp.save_corpus(pa, a)
        cp.save_corpus(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_rows_are_permuted_zipf(self):
        rng = np.random.default_rng(4)
        table = cp.zipf_transition_matrix(9, 1.2, rng)
        expected = np.sort(cp.zipf_weights(9, 1.2))
        for row in table:
            assert np.allclose(np.sort(row), expected)


@settings(settings.get_profile("deterministic"), max_examples=150)
@given(
    vocab_size=st.integers(2, 300),
    exponent=st.sampled_from([1e-9, 0.5, 1.0, 1.2, 1.3, 2.0, 8.0]) | st.floats(0.01, 4.0),
    num_seqs=st.integers(1, 40),
    seq_len=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(vocab_size=2048, exponent=1.0, num_seqs=64, seq_len=16, seed=0)
def test_zipf_sampler_matches_dense_comparison(vocab_size, exponent, num_seqs, seq_len, seed):
    fast = cp.gen_zipf_bigram(vocab_size, exponent, num_seqs, seq_len, seed)
    dense = gen_zipf_bigram_dense(vocab_size, exponent, num_seqs, seq_len, seed)
    assert np.array_equal(np.array(fast.sequences), np.array(dense.sequences))


@pytest.mark.parametrize("vocab_size, exponent, seed", [
    (2, 1.2, 0), (17, 0.5, 3), (300, 1.0, 11), (2048, 1.2, 7),
])
def test_in_place_cdf_matches_the_out_of_place_generator(vocab_size, exponent, seed):
    fast = cp.gen_zipf_bigram(vocab_size, exponent, 24, 20, seed)
    separate = gen_zipf_bigram_out_of_place(vocab_size, exponent, 24, 20, seed)
    assert np.array_equal(np.array(fast.sequences), np.array(separate.sequences))


@settings(settings.get_profile("deterministic"), max_examples=200)
@given(
    width=st.integers(1, 12),
    num_rows=st.integers(1, 5),
    draws=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_bisection_counts_ties_like_the_dense_comparison(width, num_rows, draws, seed):
    # small integer rows, so that u often equals an entry, or several
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, 6, size=(num_rows, width)), axis=1).astype(np.float64)
    which = rng.integers(0, num_rows, size=draws)
    u = rng.integers(-1, 7, size=draws).astype(np.float64)
    dense = (rows[which] <= u[:, None]).sum(axis=1)
    assert np.array_equal(cp._count_at_most(rows, which, u), dense)


class TestBuildCounts:
    def test_hand_enumerated_pair(self):
        c = cp.Corpus(vocab_size=2, sequences=[[0, 1]])
        table, counts = cp.build_counts(c, max_context_len=4)
        assert list(context_index(table)) == [(), (0,)]
        assert counts.to_dense().tolist() == [[1, 0], [0, 1]]
        assert counts.total == 2

    def test_spamlang_nonempty_rows_one_hot(self):
        c = cp.gen_spamlang(3, 3, 4, seed=2)
        table, counts = cp.build_counts(c, max_context_len=4)
        oracle = brute_force_counts(c.sequences, 3, 4)
        assert counts_as_dict(table, counts) == oracle
        for key, rid in context_index(table).items():
            if key:
                row = counts.to_dense()[rid]
                assert (row > 0).sum() == 1

    def test_total_is_token_count(self):
        c = cp.gen_zipf_bigram(6, 1.0, 17, 11, seed=13)
        _, counts = cp.build_counts(c, 3)
        assert counts.total == c.num_tokens == 17 * 11

    def test_truncation_window(self):
        c = cp.Corpus(vocab_size=5, sequences=[[1, 2, 3, 4]])
        table, _ = cp.build_counts(c, max_context_len=2)
        assert list(context_index(table)) == [(), (1,), (1, 2), (2, 3)]

    def test_token_ids_past_the_code_bound_refused(self):
        c = cp.Corpus(vocab_size=2**31 + 1, sequences=[[2**31, 0, 2**31]])
        with pytest.raises(ValueError, match="2\\^31"):
            cp.build_counts(c, 2)
        _, counts = cp.build_counts(cp.Corpus(vocab_size=2**31, sequences=[[2**31 - 1, 0]]), 2)
        assert counts.cols.tolist() == [2**31 - 1, 0]

    def test_matches_brute_force_oracle(self):
        c = cp.gen_zipf_bigram(7, 1.1, 12, 9, seed=17)
        table, counts = cp.build_counts(c, 2)
        assert counts_as_dict(table, counts) == brute_force_counts(c.sequences, 7, 2)

    def test_zero_pattern_shared_by_normalized(self):
        c = cp.gen_zipf_bigram(9, 1.3, 15, 10, seed=19)
        _, counts = cp.build_counts(c, 1)
        assert np.array_equal(counts.to_dense() == 0, counts.to_dense(normalized=True) == 0)

    def test_weights_and_rows_sum_to_one(self):
        c = cp.gen_zipf_bigram(9, 1.3, 15, 10, seed=23)
        _, counts = cp.build_counts(c, 2)
        assert abs(counts.weights.sum() - 1.0) < 1e-12
        assert np.abs(counts.to_dense(normalized=True).sum(axis=1) - 1.0).max() < 1e-12

    def test_sequence_order_insensitive_up_to_row_permutation(self):
        c = cp.gen_zipf_bigram(6, 1.2, 10, 8, seed=29)
        perm = list(reversed(range(10)))
        shuffled = cp.Corpus(6, [c.sequences[i] for i in perm])
        t1, n1 = cp.build_counts(c, 2)
        t2, n2 = cp.build_counts(shuffled, 2)
        assert counts_as_dict(t1, n1) == counts_as_dict(t2, n2)
        assert n1.total == n2.total

    def test_dense_cap_refuses_to_dense_only(self, monkeypatch):
        # room for a dense 4-context x 8-token matrix, no more: counting and
        # batches stay sparse and run, the dense matrix is refused. The
        # corpus's 8 x 8 transition table is drawn before the limit is set.
        c = cp.gen_zipf_bigram(8, 1.0, 10, 10, seed=1)
        monkeypatch.setattr(cp, "MAX_DENSE_BYTES", 4 * 8 * 8)
        table, counts = cp.build_counts(c, 3)
        batch = cp.batch_counts(table, range(5))
        assert counts.num_contexts > 4 and batch.num_contexts > 4
        for normalized in (False, True):
            with pytest.raises(cp.ContextOverflowError, match="the dense count matrix"):
                counts.to_dense(normalized)
        assert cp.CountMatrix.from_counts(np.ones((4, 8))).to_dense().shape == (4, 8)


class TestBatchCounts:
    def test_whole_corpus_batch_equals_full(self):
        c = cp.gen_zipf_bigram(6, 1.2, 8, 9, seed=31)
        table, full = cp.build_counts(c, 2)
        batch = cp.batch_counts(table, range(8))
        assert np.array_equal(batch.to_dense(), full.to_dense())
        assert np.array_equal(batch.row_ids, np.arange(full.num_contexts))

    def test_single_spamlang_sequence_rows_one_hot(self):
        c = cp.gen_spamlang(5, 6, 7, seed=37)
        table, _ = cp.build_counts(c, 3)
        batch = cp.batch_counts(table, [2])
        symbol = int(c.sequences[2][0])
        for row in batch.to_dense():
            assert row[symbol] == row.sum()

    def test_partition_additivity(self):
        c = cp.gen_zipf_bigram(7, 1.1, 12, 8, seed=41)
        table, full = cp.build_counts(c, 2)
        b1 = cp.batch_counts(table, range(5))
        b2 = cp.batch_counts(table, range(5, 12))
        merged = np.zeros_like(full.to_dense())
        merged[b1.row_ids] += b1.to_dense()
        merged[b2.row_ids] += b2.to_dense()
        assert np.array_equal(merged, full.to_dense())

    def test_empty_batch_rejected(self):
        c = cp.gen_spamlang(4, 3, 5, seed=1)
        table, _ = cp.build_counts(c, 2)
        with pytest.raises(ValueError):
            cp.batch_counts(table, [])

    @pytest.mark.parametrize("batch", [[-1], [3], [0, 3]])
    def test_out_of_range_sequence_rejected(self, batch):
        c = cp.gen_spamlang(4, 3, 5, seed=1)
        table, _ = cp.build_counts(c, 2)
        with pytest.raises(ValueError, match="invalid sequence index"):
            cp.batch_counts(table, batch)


class TestCountsForTable:
    def test_unseen_contexts_are_skipped(self):
        train = cp.Corpus(4, [[0, 1, 2]])
        held = cp.Corpus(4, [[0, 1, 3], [3, 3]])
        table, _ = cp.build_counts(train, 2)
        counts, skipped = cp.counts_for_table(held, table)
        # known contexts: (), (0,), (0,1); only (3,) from seq 2 is unknown
        assert skipped == 1
        assert counts.total == 4


class TestAssumptionStats:
    def test_spamlang_unique_structure(self):
        c = cp.gen_spamlang(6, 30, 5, seed=43)
        table, counts = cp.build_counts(c, 4)
        stats = cp.assumption_stats(table, counts)
        symbols = {int(s[0]) for s in c.sequences}
        assert len(symbols) > 1
        assert stats.unique_context_count == counts.num_contexts - 1
        assert stats.unique_next_token_count == len(symbols)
        assert stats.unique_next_token_count <= min(stats.unique_context_count, 6)

    def test_deterministic_chain_entropy_at_zero(self):
        # a fixed cycle: every context row is one-hot, entropy mass in bin 0
        seq = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        c = cp.Corpus(3, [seq])
        table, counts = cp.build_counts(c, 1)
        stats = cp.assumption_stats(table, counts)
        assert stats.entropy_bin_weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(stats.entropy_bin_weights[1:] == 0)

    def test_zipf_covers_most_tokens(self):
        v = 64
        c = cp.gen_zipf_bigram(v, 1.2, 1000, 60, seed=47)
        table, counts = cp.build_counts(c, 16)
        stats = cp.assumption_stats(table, counts, prefix_sizes=(1, 4, 16))
        assert stats.unique_next_token_count >= 0.9 * v
        # longer prefixes make contexts more unique, never less
        series = stats.unique_token_counts_by_prefix_size
        assert series[1] <= series[4] <= series[16]

    def test_histogram_weights_sum_to_one(self):
        c = cp.gen_zipf_bigram(8, 1.2, 20, 10, seed=53)
        table, counts = cp.build_counts(c, 1)
        stats = cp.assumption_stats(table, counts)
        assert stats.entropy_bin_weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        c = cp.gen_zipf_bigram(10, 1.4, 9, 7, seed=59)
        path = tmp_path / "corpus.txt"
        cp.save_corpus(path, c)
        loaded = cp.load_corpus(path)
        assert loaded.vocab_size == 10
        assert all(np.array_equal(a, b) for a, b in zip(loaded.sequences, c.sequences))

    def test_file_equals_the_per_token_format(self, tmp_path):
        c = cp.Corpus(1000, [[0, 7, 999, 10], [5], list(range(0, 1000, 37))])
        path = tmp_path / "corpus.txt"
        cp.save_corpus(path, c)
        lines = ["#vocab 1000"] + [" ".join(str(int(t)) for t in seq) for seq in c.sequences]
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()

    def test_header_format(self, tmp_path):
        path = tmp_path / "corpus.txt"
        cp.save_corpus(path, cp.Corpus(3, [[0, 1, 2]]))
        assert path.read_text().splitlines()[0] == "#vocab 3"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vocab 3\n0 1\n")
        with pytest.raises(cp.CorpusFormatError):
            cp.load_corpus(path)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#vocab 3\n0 x\n")
        with pytest.raises(cp.CorpusFormatError):
            cp.load_corpus(path)

    def test_out_of_range_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#vocab 3\n0 7\n")
        with pytest.raises(ValueError):
            cp.load_corpus(path)

    def test_stats_csv_shape(self, tmp_path):
        c = cp.gen_spamlang(4, 10, 5, seed=61)
        table, counts = cp.build_counts(c, 2)
        stats = cp.assumption_stats(table, counts, prefix_sizes=(1, 2))
        path = tmp_path / "stats.csv"
        cp.write_stats_csv(path, stats)
        lines = path.read_text().splitlines()
        assert lines[0] == "stat,key,value"
        assert lines[1].startswith("unique_context_count")
