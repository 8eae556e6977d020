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
# cells, `gen_zipf_bigram` its V x V transition table, `diagnose`'s gap its
# V x V Gram matrix, `model.init_params` the C x D rows and the V x D head,
# and `model._block_buffers` the row blocks of logits: each refuses
# (`check_dense`) one that would exceed this many bytes.
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


def _dense_rows(cols: int) -> int:
    """The most rows of `cols` 8-byte cells that `check_dense` lets through.
    Private, as the row-block rule calls it once per logit pass."""
    return MAX_DENSE_BYTES // (8 * cols)


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
    """The counted corpus: its concatenated `tokens`, their context rows
    `token_rows` (the `num_contexts` distinct contexts of up to
    `max_context_len` tokens, numbered in first-seen order), the sequence
    offsets `starts` and its `vocab_size`."""

    tokens: np.ndarray
    token_rows: np.ndarray
    starts: np.ndarray
    vocab_size: int
    max_context_len: int
    num_contexts: int

    def __len__(self) -> int:
        return self.num_contexts


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
    def from_counts(cls, counts: np.ndarray) -> "CountMatrix":
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
        rows, cols = np.nonzero(counts)
        return cls(rows, cols, counts[rows, cols], row_sums, counts.shape[1], total,
                   row_sums / total)

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
    check_dense("the Zipf transition table (tokens x tokens)", vocab_size, vocab_size)
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


def _concat(sequences):
    """(tokens, starts): the sequences end to end, and their offsets."""
    return np.concatenate(sequences), np.concatenate(([0], np.cumsum([len(s) for s in sequences])))


def _context_codes(tokens: np.ndarray, starts: np.ndarray, sizes) -> dict:
    """{k: code} for every k in `sizes`: one int64 per token, equal for two
    tokens exactly when their contexts (the last k tokens before each within
    its sequence, fewer near the sequence start) are equal.

    Prefix doubling (Manber & Myers 1993): span[1] is the previous token + 1,
    0 at a sequence start; span[2L] ranks the pair (span[L] L tokens back,
    0 where that lies before the sequence start; span[L]). A size is split
    into powers of two: the largest span covers the nearest tokens and each
    further one is paired on by one more ranking. Code 0 is the all-padding
    context. Ranks are below T + 1 and span[1] below 2^31 + 1, so a pair is
    exact in int64 while the token count T and every token id are below 2^31;
    larger inputs are refused.
    """
    sizes = sorted({int(k) for k in sizes})
    if sizes and sizes[0] < 0:
        raise ValueError("max_context_len must be nonnegative")
    if max(tokens.size, int(tokens.max())) >= 2**31:
        raise ValueError("context codes need fewer than 2^31 tokens and token ids")
    lengths = np.diff(starts)

    def back(code, shift):
        out = np.zeros_like(code)
        out[shift:] = code[: max(code.size - shift, 0)]
        # each sequence's first `shift` tokens look back past its start; they
        # are indexed directly, as a T-long position array would cost memory
        head = np.minimum(lengths, shift)
        out[np.arange(head.sum()) + np.repeat(starts[:-1] - np.cumsum(head) + head, head)] = 0
        return out

    def pair(left, right):
        return np.unique(left * (right.max() + 1) + right, return_inverse=True)[1]

    span = {1: back(tokens + 1, 1)}
    while 2 * max(span) <= (sizes[-1] if sizes else 0):
        half = max(span)
        span[2 * half] = pair(back(span[half], half), span[half])
    codes = {}
    for k in sizes:
        code, cover = np.zeros(tokens.size, dtype=np.int64), 0
        for part in sorted((p for p in span if k & p), reverse=True):
            code = span[part] if cover == 0 else pair(back(span[part], cover), code)
            cover += part
        codes[k] = code
    return codes


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
    tokens, starts = _concat(corpus.sequences)
    code = _context_codes(tokens, starts, [max_context_len])[max_context_len]
    _, first, inv = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)  # sorted codes -> first-seen order
    return ContextTable(tokens, np.argsort(order)[inv], starts, corpus.vocab_size,
                        max_context_len, first.size)


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
    long as the table's.

    Tokens whose context key is absent from the table are skipped. Returns
    (CountMatrix with row_ids into the table, skipped token count).
    """
    width = table.max_context_len
    tokens, starts = _concat(corpus.sequences)
    # one stream, the table's corpus first: equal codes are equal contexts
    code = _context_codes(np.concatenate((table.tokens, tokens)),
                          np.concatenate((table.starts, table.starts[-1] + starts[1:])),
                          [width])[width]
    seen = table.tokens.size
    row_of = np.full(code.max() + 1, -1)
    row_of[code[:seen]] = table.token_rows
    rows = row_of[code[seen:]]
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


def _unique_continuations(contexts: np.ndarray, tokens: np.ndarray, vocab_size: int):
    """(contexts with a single observed next token, distinct tokens among
    those continuations), both counted from the sorted distinct (context,
    token) cells of nonnegative context ids, one per token."""
    # sorted and deduplicated by hand: np.unique without return values hashes,
    # ~20x slower than a sort on these inputs
    cells = np.sort(contexts * vocab_size + tokens)
    cells = cells[np.diff(cells, prepend=-1) > 0]
    ctx = cells // vocab_size
    single = (np.diff(ctx, prepend=-1) > 0) & (np.diff(ctx, append=ctx[-1] + 1) > 0)
    return int(single.sum()), int(np.count_nonzero(np.bincount(cells[single] % vocab_size)))


def assumption_stats(table: ContextTable, counts: CountMatrix, prefix_sizes=()) -> AssumptionStats:
    """Statistics of the corpus `table` was counted from, with `counts` its
    count matrix; each prefix size recounts the table's own tokens."""
    unique_contexts, unique_tokens = _unique_continuations(
        table.token_rows, table.tokens, table.vocab_size)
    prefix_sizes = [int(size) for size in prefix_sizes]
    codes = _context_codes(table.tokens, table.starts, prefix_sizes)
    by_prefix = {size: _unique_continuations(codes[size], table.tokens, table.vocab_size)[1]
                 for size in prefix_sizes}
    h = row_entropies(counts)
    hmax = max(float(np.log(counts.vocab_size)), 1e-12)
    weights, edges = np.histogram(
        np.clip(h, 0.0, hmax), bins=24, range=(0.0, hmax), weights=counts.weights
    )
    return AssumptionStats(
        unique_context_count=unique_contexts,
        unique_next_token_count=unique_tokens,
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
            fh.write(" ".join(map(str, seq.tolist())))
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
