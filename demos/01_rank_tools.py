"""Tour of the dense linear-algebra toolkit.

Shows the row-softmax pair, pivoted-QR rank estimation against singular
values, the kernel split of rows against a tall head, and best low-rank
residuals.
"""

import numpy as np

from headlab.linalg import (
    best_rank_k_residual,
    kernel_split,
    log_softmax_rows,
    qr_rank,
    singular_values,
    softmax_rows,
)

rng = np.random.default_rng(0)

print("=== softmax / log-softmax ===")
logits = np.array([[0.0, np.log(2.0), np.log(3.0)]])
probs = softmax_rows(logits)
print("logits :", logits[0])
print("softmax:", probs[0], "(sums to", probs.sum(), ")")
print("exp(log_softmax) == softmax:",
      np.allclose(np.exp(log_softmax_rows(logits)), probs, atol=1e-15))

print()
print("=== numerical rank via pivoted QR ===")
low_rank = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 40))
noisy = low_rank + 1e-10 * rng.normal(size=low_rank.shape)
print("exact product rank:", qr_rank(low_rank))
print("with 1e-10 noise  :", qr_rank(noisy), "(threshold 1e-6 ignores the noise floor)")
print("singular values   :", np.round(singular_values(noisy)[:7], 4), "...")

print()
print("=== kernel split against a tall head matrix ===")
v, d = 24, 6
head = rng.normal(size=(v, d))
g = rng.normal(size=(8, v))
kept, lost = kernel_split(g, head)
print(f"head is {v}x{d}; its kernel holds {v - qr_rank(head)} of {v} directions")
print("max |lost @ head| =", float(np.abs(lost @ head).max()))
print("norm split: |lost|^2 + |kept|^2 - |g|^2 =",
      float(np.sum(lost**2) + np.sum(kept**2) - np.sum(g**2)))

print()
print("=== best low-rank residuals ===")
m = rng.normal(size=(12, 12))
for k in (0, 2, 4, 8, 12):
    print(f"  rank-{k:2d} residual: {best_rank_k_residual(m, k):.4f}")
