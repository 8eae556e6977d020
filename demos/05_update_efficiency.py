"""Spending the same logit-norm budget in two directions.

At a trained checkpoint, compare the loss change from moving the logits
1) along the negated logit gradient and 2) along the logit-space image of a
hidden-state gradient step. Both moves spend alpha * ||logits||_F. The
compressed direction buys far less loss reduction per unit of norm.
"""

from pathlib import Path

from headlab import svg
from headlab.corpus import build_counts, gen_zipf_bigram
from headlab.diagnostics import gradient_pass, update_efficiency
from headlab.model import TrainConfig, train

OUT = Path("demos_out")
OUT.mkdir(exist_ok=True)

corpus = gen_zipf_bigram(vocab_size=512, exponent=1.2, num_seqs=512, seq_len=64, seed=88)
_, counts = build_counts(corpus, max_context_len=1)
cfg = TrainConfig(
    steps=300, lr=1e-2, width=8, optimizer="adam", schedule="cosine",
    warmup_steps=30, eval_every=150, seed=0,
)
params = train(counts, cfg).params

alphas = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
curve = update_efficiency(counts, params, gradient_pass(counts, params), alphas)
print(f"{'alpha':>8} {'logit dir':>12} {'hidden dir':>12} {'ratio':>8}")
for a, d1, d2 in zip(curve.fractions, curve.delta_logit, curve.delta_hidden):
    ratio = d1 / d2 if d2 < 0 else float("inf")
    print(f"{a:8.3f} {d1:12.5f} {d2:12.5f} {ratio:8.1f}")
curve.to_csv(OUT / "efficiency.csv")
svg.line_plot(
    OUT / "efficiency.svg",
    [
        ("logit direction", curve.fractions, curve.delta_logit),
        ("hidden direction", curve.fractions, curve.delta_hidden),
    ],
    title="loss change per norm budget",
    xlabel="norm fraction",
    ylabel="loss change",
    logx=True,
)
print(f"wrote {OUT}/efficiency.csv, efficiency.svg")
