"""Synthetic corpora and context/next-token count matrices.

A corpus is a list of token-id sequences over a vocabulary of size V.
Counting walks every position of every sequence: the context key is the
preceding prefix truncated to its last `max_context_len` tokens (the first
position has the empty context), and the observed next token increments the
corresponding cell of a C x V count matrix. Almost every cell is zero, so the
matrix is stored as its sorted nonzero (row, column, count) triplets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tables import write_csv

# Counts are stored sparsely, but `CountMatrix.to_dense` and the exact
# fallback of `diagnose`'s Eckart-Young gap form C x V matrices of 8-byte
# cells, and `model.init_params` the C x D rows and the V x D head: each
# refuses (`check_dense`) one that would exceed this many bytes.
MAX_DENSE_BYTES = 2 * 1024**3
DEFAULT_CONTEXT_LEN = 16


class ContextOverflowError(RuntimeError):
    """A dense matrix would exceed MAX_DENSE_BYTES."""


def check_dense(what: str, rows: int, cols: int) -> None:
    """Refuse `what`, a rows x cols matrix of 8-byte cells, before it is
    allocated when it would exceed MAX_DENSE_BYTES."""
    if rows * cols * 8 > MAX_DENSE_BYTES:
        raise ContextOverflowError(f"{what}: {rows} x {cols} exceed "
                                   f"{MAX_DENSE_BYTES} bytes as a dense matrix")


class CorpusFormatError(ValueError):
    """A corpus file does not follow the expected line format."""


@dataclass
class Corpus:
    """Token sequences with their vocabulary size."""

    vocab_size: int
    sequences: list

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if not self.sequences:
            raise ValueError("corpus must contain at least one sequence")
        seqs = []
        for s in self.sequences:
            arr = np.asarray(s, dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("every sequence must be a nonempty 1-d token list")
            if arr.min() < 0 or arr.max() >= self.vocab_size:
                raise ValueError("token id out of range")
            seqs.append(arr)
        self.sequences = seqs

    @property
    def num_tokens(self) -> int:
        return sum(len(s) for s in self.sequences)


@dataclass
class ContextTable:
    """Distinct context keys in first-seen order (rows right-aligned, padded
    with -1, `max_context_len` wide), and the counted corpus itself: its
    concatenated `tokens`, their context rows `token_rows`, the sequence
    offsets `starts` and its `vocab_size`."""

    keys: np.ndarray
    tokens: np.ndarray
    token_rows: np.ndarray
    starts: np.ndarray
    vocab_size: int

    def __len__(self) -> int:
        return self.keys.shape[0]


@dataclass
class CountMatrix:
    """Next-token counts N of C contexts over V tokens, as nonzero triplets.

    `rows`, `cols` and `n` list the nonzero cells in row-major order;
    `row_sums[i]` is the count of context i, which is always positive, and
    `weights[i] = row_sums[i] / total` the fraction of all counted tokens
    that occurred in it. For a matrix restricted to a subset of contexts (a
    batch), `row_ids` records the rows' identities in the full table.
    `to_dense` rebuilds the C x V matrix for readers that need every cell.
    """

    rows: np.ndarray
    cols: np.ndarray
    n: np.ndarray
    row_sums: np.ndarray
    vocab_size: int
    total: int
    weights: np.ndarray
    row_ids: np.ndarray | None = None

    @classmethod
    def from_counts(cls, counts: np.ndarray, row_ids=None) -> "CountMatrix":
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be 2-d")
        if np.issubdtype(counts.dtype, np.floating):
            if not np.allclose(counts, np.round(counts)):
                raise ValueError("counts must be integers")
            counts = np.round(counts).astype(np.int64)
        else:
            counts = counts.astype(np.int64)
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        row_sums = counts.sum(axis=1)
        if np.any(row_sums <= 0):
            raise ValueError("every context row must have a positive count sum")
        total = int(counts.sum())
        if row_ids is not None:
            row_ids = np.asarray(row_ids, dtype=np.int64)
            if row_ids.shape != (counts.shape[0],):
                raise ValueError("row_ids length must match the number of rows")
        rows, cols = np.nonzero(counts)
        return cls(rows, cols, counts[rows, cols], row_sums, counts.shape[1], total,
                   row_sums / total, row_ids)

    @property
    def num_contexts(self) -> int:
        return self.row_sums.shape[0]

    @property
    def shape(self) -> tuple:
        return (self.num_contexts, self.vocab_size)

    @cached_property
    def targets(self) -> np.ndarray:
        """Per-row argmax of the counts, ties toward the lowest token id."""
        order = np.lexsort((self.cols, -self.n, self.rows))
        return self.cols[order[np.searchsorted(self.rows, np.arange(self.num_contexts))]]

    def to_dense(self, normalized: bool = False) -> np.ndarray:
        """The C x V count matrix, or with `normalized` every count divided by
        its row sum (the empirical next-token distributions)."""
        check_dense("the dense count matrix (contexts x tokens)", *self.shape)
        out = np.zeros((self.num_contexts, self.vocab_size),
                       dtype=np.float64 if normalized else np.int64)
        out[self.rows, self.cols] = self.n / self.row_sums[self.rows] if normalized else self.n
        return out


def gen_spamlang(vocab_size: int, num_seqs: int, seq_len: int, seed: int) -> Corpus:
    """One uniformly drawn symbol per sequence, repeated for the whole sequence."""
    if vocab_size < 2 or num_seqs < 1 or seq_len < 2:
        raise ValueError("need vocab_size >= 2, num_seqs >= 1, seq_len >= 2")
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, vocab_size, size=num_seqs)
    seqs = [np.full(seq_len, s, dtype=np.int64) for s in symbols]
    return Corpus(vocab_size=vocab_size, sequences=seqs)


def zipf_weights(vocab_size: int, exponent: float) -> np.ndarray:
    w = np.arange(1, vocab_size + 1, dtype=np.float64) ** (-float(exponent))
    return w / w.sum()


def zipf_transition_matrix(vocab_size: int, exponent: float, rng) -> np.ndarray:
    """Row-stochastic table whose rows are independently permuted Zipf laws."""
    probs = zipf_weights(vocab_size, exponent)
    table = np.empty((vocab_size, vocab_size))
    for i in range(vocab_size):
        table[i, rng.permutation(vocab_size)] = probs
    return table


def gen_zipf_bigram(
    vocab_size: int, exponent: float, num_seqs: int, seq_len: int, seed: int
) -> Corpus:
    """First-order Markov source with permuted-Zipf transition rows.

    The initial token is Zipf-distributed over token ids; each subsequent
    token is drawn from the transition row of its predecessor. Deterministic
    given the seed.
    """
    if vocab_size < 2 or exponent <= 0:
        raise ValueError("need vocab_size >= 2 and exponent > 0")
    if num_seqs < 1 or seq_len < 1:
        raise ValueError("need num_seqs >= 1 and seq_len >= 1")
    rng = np.random.default_rng(seed)
    trans = zipf_transition_matrix(vocab_size, exponent, rng)
    # each token is the count of a CDF's entries <= u; the last entry, 1.0,
    # exceeds every u, so only the body before it is searched. The CDF is
    # summed in place: one V x V table, not two.
    np.cumsum(trans, axis=1, out=trans)
    body = trans[:, :-1]
    init_cdf = np.cumsum(zipf_weights(vocab_size, exponent))
    init_cdf[-1] = 1.0

    tokens = np.empty((num_seqs, seq_len), dtype=np.int64)
    u = rng.random(num_seqs)
    tokens[:, 0] = np.searchsorted(init_cdf, u, side="right")
    for t in range(1, seq_len):
        tokens[:, t] = _count_at_most(body, tokens[:, t - 1], rng.random(num_seqs))
    return Corpus(vocab_size=vocab_size, sequences=list(tokens))


def _count_at_most(rows: np.ndarray, which: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each i, how many entries of rows[which[i]] are <= u[i].

    A right bisection run on every i at once; each row of `rows` must be
    nondecreasing, as a cumulative sum of nonnegative weights is.
    """
    lo = np.zeros(len(which), dtype=np.int64)
    size = rows.shape[1] + 1  # the count lies in [lo, lo + size)
    while size > 1:
        half = size // 2
        lo += half * (rows[which, lo + half - 1] <= u)
        size -= half
    return lo


def _token_keys(corpus: Corpus, max_context_len: int):
    """(tokens, sequence offsets, keys): every token's context key as a row,
    right-aligned and left-padded with -1 to `max_context_len` columns."""
    tokens = np.concatenate(corpus.sequences)
    lengths = [len(s) for s in corpus.sequences]
    starts = np.concatenate(([0], np.cumsum(lengths)))
    pos = np.arange(tokens.size) - np.repeat(starts[:-1], lengths)
    keys = np.full((tokens.size, max_context_len), -1, dtype=np.int64)
    for back in range(1, max_context_len + 1):
        has = np.flatnonzero(pos >= back)
        keys[has, -back] = tokens[has - back]
    return tokens, starts, keys


def _row_scalars(keys: np.ndarray) -> np.ndarray:
    """One void scalar per key row, compared bytewise: a fast `np.unique` input."""
    keys = np.ascontiguousarray(keys if keys.shape[1] else np.zeros((len(keys), 1), np.int64))
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def _count_matrix(rows, tokens, vocab_size: int, keep_row_ids: bool = True) -> CountMatrix:
    """Counts of `tokens` grouped by `rows`, one row per distinct value in
    ascending order: what `CountMatrix.from_counts` builds, without its checks."""
    row_ids, local = np.unique(rows, return_inverse=True)
    cells, n = np.unique(local * vocab_size + tokens, return_counts=True)
    row_sums = np.bincount(local)
    return CountMatrix(cells // vocab_size, cells % vocab_size, n, row_sums, vocab_size,
                       tokens.size, row_sums / tokens.size, row_ids if keep_row_ids else None)


def build_counts(corpus: Corpus, max_context_len: int = DEFAULT_CONTEXT_LEN):
    """Count the corpus into a (ContextTable, CountMatrix) pair.

    The total count equals the total number of tokens: the first position of
    each sequence is counted under the empty context.
    """
    table = _context_table(corpus, max_context_len)
    return table, _count_matrix(table.token_rows, table.tokens, table.vocab_size,
                                keep_row_ids=False)


def _context_table(corpus: Corpus, max_context_len: int) -> ContextTable:
    """Every token's context row, with rows numbered in first-seen order."""
    if max_context_len < 0:
        raise ValueError("max_context_len must be nonnegative")
    tokens, starts, keys = _token_keys(corpus, max_context_len)
    _, first, inv = np.unique(_row_scalars(keys), return_index=True, return_inverse=True)
    order = np.argsort(first)  # sorted keys -> first-seen order
    return ContextTable(keys[first[order]], tokens, np.argsort(order)[inv], starts,
                        corpus.vocab_size)


def batch_counts(table: ContextTable, batch) -> CountMatrix:
    """Counts restricted to a set of sequence indices of the corpus the table
    was counted from, read from the table's per-token rows.

    Rows follow the full table's ordering; contexts absent from the batch are
    omitted, with their full-table row ids recorded in `row_ids`.
    """
    batch = np.unique(np.asarray(list(batch), dtype=np.int64))
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    if batch[0] < 0 or batch[-1] >= len(table.starts) - 1:
        raise ValueError("batch contains an invalid sequence index")
    idx = np.concatenate([np.arange(table.starts[s], table.starts[s + 1]) for s in batch])
    return _count_matrix(table.token_rows[idx], table.tokens[idx], table.vocab_size)


def counts_for_table(corpus: Corpus, table: ContextTable):
    """Count a (held-out) corpus against an existing table, its contexts as
    long as the table's keys.

    Tokens whose context key is absent from the table are skipped. Returns
    (CountMatrix with row_ids into the table, skipped token count).
    """
    tokens, _, keys = _token_keys(corpus, table.keys.shape[1])
    inv = np.unique(_row_scalars(np.concatenate((table.keys, keys))), return_inverse=True)[1]
    row_of = np.full(inv.max() + 1, -1)
    row_of[inv[: len(table)]] = np.arange(len(table))
    rows = row_of[inv[len(table) :]]
    known = rows >= 0
    if not known.any():
        raise ValueError("no token of the corpus maps to a known context")
    counts = _count_matrix(rows[known], tokens[known], corpus.vocab_size)
    return counts, int(tokens.size - known.sum())


def row_entropies(counts: CountMatrix) -> np.ndarray:
    """Per-context next-token entropy (nats) of the normalized rows."""
    rows = counts.rows
    p = counts.n / counts.row_sums[rows]
    plogp = p * np.log(p)
    h = np.bincount(rows, weights=plogp, minlength=counts.num_contexts)
    # a sum of one or two terms rounds the same in any order; rows with more
    # are summed as dense rows, so every row keeps numpy's pairwise rounding
    # of the dense formula (entropies such as log 4 sit exactly on bin edges)
    multi = np.flatnonzero(np.bincount(rows, minlength=counts.num_contexts) > 2)
    sel = np.isin(rows, multi)
    contrib = np.zeros((multi.size, counts.vocab_size))
    contrib[np.searchsorted(multi, rows[sel]), counts.cols[sel]] = plogp[sel]
    h[multi] = contrib.sum(axis=1)
    np.negative(h, out=h)
    # rounding can leave -0.0 or tiny negatives on one-hot rows
    np.maximum(h, 0.0, out=h)
    return h


@dataclass
class AssumptionStats:
    """Degeneracy statistics of a counted corpus.

    `unique_context_count` is the number of contexts with a single observed
    continuation; `unique_next_token_count` the number of distinct tokens
    serving as such continuations. The entropy histogram is weighted by the
    context weights.
    """

    unique_context_count: int
    unique_next_token_count: int
    unique_token_counts_by_prefix_size: dict
    entropy_bin_edges: np.ndarray
    entropy_bin_weights: np.ndarray

    def to_csv_rows(self):
        rows = [
            ("unique_context_count", "", self.unique_context_count),
            ("unique_next_token_count", "", self.unique_next_token_count),
        ]
        for size, count in sorted(self.unique_token_counts_by_prefix_size.items()):
            rows.append(("unique_next_tokens_at_prefix", str(size), count))
        for lo, hi, wgt in zip(
            self.entropy_bin_edges[:-1], self.entropy_bin_edges[1:], self.entropy_bin_weights
        ):
            rows.append(("entropy_bin", f"{float(lo)!r}:{float(hi)!r}", wgt))
        return rows


def _unique_continuations(table: ContextTable):
    """Rows with a single observed next token, and those tokens, read from
    the table's distinct (row, token) pairs."""
    vocab_size = table.vocab_size
    cells = np.unique(table.token_rows * vocab_size + table.tokens)
    cell_rows = cells // vocab_size
    single_rows = np.flatnonzero(np.bincount(cell_rows) == 1)
    tokens = cells[np.searchsorted(cell_rows, single_rows)] % vocab_size
    return single_rows, tokens


def assumption_stats(
    corpus: Corpus,
    table: ContextTable,
    counts: CountMatrix,
    prefix_sizes=(),
    entropy_bins: int = 24,
) -> AssumptionStats:
    single_rows, tokens = _unique_continuations(table)
    by_prefix = {}
    for size in prefix_sizes:
        _, sized_tokens = _unique_continuations(_context_table(corpus, int(size)))
        by_prefix[int(size)] = int(np.unique(sized_tokens).size)
    h = row_entropies(counts)
    hmax = max(float(np.log(counts.vocab_size)), 1e-12)
    weights, edges = np.histogram(
        np.clip(h, 0.0, hmax), bins=entropy_bins, range=(0.0, hmax), weights=counts.weights
    )
    return AssumptionStats(
        unique_context_count=int(single_rows.size),
        unique_next_token_count=int(np.unique(tokens).size),
        unique_token_counts_by_prefix_size=by_prefix,
        entropy_bin_edges=edges,
        entropy_bin_weights=weights,
    )


def write_stats_csv(path, stats: AssumptionStats) -> None:
    write_csv(path, ["stat", "key", "value"], stats.to_csv_rows())


def save_corpus(path, corpus: Corpus) -> None:
    """Write the line-oriented corpus format: `#vocab V` then one sequence per line."""
    with open(path, "w") as fh:
        fh.write(f"#vocab {corpus.vocab_size}\n")
        for seq in corpus.sequences:
            fh.write(" ".join(str(int(t)) for t in seq))
            fh.write("\n")


def load_corpus(path) -> Corpus:
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if len(parts) != 2 or parts[0] != "#vocab":
            raise CorpusFormatError(f"bad header line {header!r}")
        try:
            vocab_size = int(parts[1])
        except ValueError as exc:
            raise CorpusFormatError(f"bad vocab size in header {header!r}") from exc
        sequences = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                ids = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise CorpusFormatError(f"bad token on line {lineno}") from exc
            sequences.append(np.asarray(ids, dtype=np.int64))
    if not sequences:
        raise CorpusFormatError("corpus file contains no sequences")
    return Corpus(vocab_size=vocab_size, sequences=sequences)
