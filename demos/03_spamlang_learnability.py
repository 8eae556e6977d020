"""A trivially expressible language becomes hard to fit as V grows.

Every sequence repeats one symbol, so a width-2 head can represent the task
almost perfectly (see construct_top1). Training the same width-8 model with
the same budget still lands much further from the entropy floor at V = 512
than at V = 16: the optimization, not the expressivity, is the obstacle.
"""

from headlab.corpus import build_counts, gen_spamlang
from headlab.model import TrainConfig, entropy_floor, top1_accuracy, train

WIDTH = 8
STEPS = 400

for vocab_size in (16, 512):
    corpus = gen_spamlang(vocab_size, num_seqs=4 * vocab_size, seq_len=64, seed=0)
    _, counts = build_counts(corpus, max_context_len=1)
    cfg = TrainConfig(
        steps=STEPS, lr=1e-2, width=WIDTH, optimizer="adam",
        schedule="cosine", warmup_steps=STEPS // 10, eval_every=STEPS // 4, seed=0,
    )
    result = train(counts, cfg)
    floor = entropy_floor(counts)
    final = result.trajectory.final_train_loss
    acc = top1_accuracy(counts, result.params)
    print(f"V={vocab_size:4d}  width={WIDTH}  steps={STEPS}")
    print(f"  entropy floor      : {floor:.4f}")
    print(f"  final loss         : {final:.4f}  (excess {final - floor:.4f})")
    print(f"  top-1 accuracy     : {acc.weighted:.4f} weighted / {acc.unweighted:.4f} unweighted")
    print("  loss along training:",
          " ".join(f"{p.train_loss:.3f}" for p in result.trajectory.points))
    print()

print("The V=512 run has 64x more logit-gradient directions to push through")
print("the same width-8 head; most of that signal never reaches the context")
print("representations, and the excess loss shows it.")
