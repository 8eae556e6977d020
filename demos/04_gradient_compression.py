"""How much of the logit gradient dies in the head's kernel.

Trains a narrow model on a Markov corpus, then measures 1) the fraction of
the logit-gradient norm that projects into ker(W^T), 2) the cosine between
each gradient row and its surviving part, 3) the per-token gradient rank
curve, and 4) the sorted coefficient profile of the full vs destroyed
gradient. CSVs and SVG plots land in demos_out/.
"""

from pathlib import Path

from headlab import svg
from headlab.corpus import build_counts, gen_zipf_bigram
from headlab.diagnostics import gradient_gap, gradient_pass, gradient_rank_curve
from headlab.model import TrainConfig, train

OUT = Path("demos_out")
OUT.mkdir(exist_ok=True)

corpus = gen_zipf_bigram(vocab_size=512, exponent=1.2, num_seqs=384, seq_len=64, seed=3)
_, counts = build_counts(corpus, max_context_len=1)
cfg = TrainConfig(
    steps=400, lr=1e-2, width=8, optimizer="adam", schedule="cosine",
    warmup_steps=40, eval_every=100, seed=0,
)
result = train(counts, cfg)
params = result.params

# one pass over row blocks of the logit gradient, as `diagnose` takes it
first = gradient_pass(counts, params)
report = first.report
print(f"V=512, width=8 model after {cfg.steps} steps")
print(f"  lost gradient norm fraction : {report.lost_fraction:.4f}")
print(f"  cosine(row, surviving part) : {report.cosine_mean:.4f} +- {report.cosine_std:.4f}")
print(f"  best rank-2D residual bound : {gradient_gap(counts, params, first):.6f}")

curve = gradient_rank_curve(counts, params, [4, 16, 64, 256, 1024], seed=1)
print("  per-token gradient rank curve:")
for tokens, rank, max_rank in curve.points:
    print(f"    {tokens:5d} tokens -> rank {rank:4d} (cap {max_rank})")
curve.to_csv(OUT / "rank_curve.csv")
svg.line_plot(
    OUT / "rank_curve.svg",
    [
        ("measured", [p[0] for p in curve.points], [p[1] for p in curve.points]),
        ("cap", [p[0] for p in curve.points], [p[2] for p in curve.points]),
    ],
    title="per-token gradient rank",
    xlabel="tokens",
    ylabel="rank",
    logx=True,
)

# the gradient's part in the kernel, sorted by the full gradient's magnitudes
profile = first.profile
profile.to_csv(OUT / "coefficient_profile.csv")
print("  coefficient profile: observed-token mean %.2e (full) vs %.2e (destroyed part)"
      % (profile.full_mean[0], profile.proj_mean[0]))
tail = slice(32, None)
print("  tail std beyond position 32: %.2e (full) vs %.2e (destroyed part)"
      % (profile.full_std[tail].mean(), profile.proj_std[tail].mean()))
print(f"wrote {OUT}/rank_curve.csv, rank_curve.svg, coefficient_profile.csv")
