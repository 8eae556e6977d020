"""Synthetic corpora and their context/next-token count matrices.

Builds the two generators (repeated-symbol sequences and a permuted-Zipf
Markov chain), counts them, and prints the degeneracy statistics that drive
the rank bounds: how many contexts have a single observed continuation, and
how many distinct tokens serve as such continuations.
"""

import numpy as np

from headlab.corpus import (
    assumption_stats,
    build_counts,
    gen_spamlang,
    gen_zipf_bigram,
    row_entropies,
)
from headlab.model import entropy_floor

print("=== repeated-symbol corpus ===")
spam = gen_spamlang(vocab_size=16, num_seqs=64, seq_len=12, seed=1)
print("example sequence:", spam.sequences[0][:8], "...")
table, counts = build_counts(spam, max_context_len=2)
print(f"{len(spam.sequences)} sequences, {counts.total} tokens, {counts.num_contexts} contexts")
print("entropy floor (weighted):", round(entropy_floor(counts), 4))
stats = assumption_stats(table, counts)
print("single-continuation contexts:", stats.unique_context_count, "of", counts.num_contexts)
print("distinct unique continuations:", stats.unique_next_token_count)

print()
print("=== permuted-Zipf Markov corpus ===")
zipf = gen_zipf_bigram(vocab_size=64, exponent=1.2, num_seqs=400, seq_len=40, seed=2)
table, counts = build_counts(zipf, max_context_len=8)
stats = assumption_stats(table, counts, prefix_sizes=(1, 2, 4, 8))
print(f"{counts.total} tokens, {counts.num_contexts} distinct contexts at prefix 8")
print("unique continuation tokens by prefix size (longer prefixes ->")
print("more unique contexts -> more of the vocabulary pinned down):")
for size, value in sorted(stats.unique_token_counts_by_prefix_size.items()):
    print(f"  prefix {size}: {value} / 64 tokens")

short_table, short_counts = build_counts(zipf, max_context_len=1)
ent = row_entropies(short_counts)
print("bigram-level next-token entropy: mean %.3f nats, max %.3f (ln V = %.3f)"
      % (ent.mean(), ent.max(), np.log(64)))
