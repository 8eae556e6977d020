"""Rank-constrained matrix language models and output-head gradient diagnostics.

The package trains small matrix language models on synthetic corpora, measures
how the linear output head compresses backpropagated gradients, and machine-
verifies the structural rank claims behind those measurements on brute-force
instances.
"""

from .corpus import (
    ContextOverflowError,
    Corpus,
    CorpusFormatError,
    CountMatrix,
    assumption_stats,
    batch_counts,
    build_counts,
    counts_for_table,
    gen_spamlang,
    gen_zipf_bigram,
    load_corpus,
    row_entropies,
    save_corpus,
)
from .diagnostics import (
    coefficient_profile,
    compression_report,
    eckart_young_gap,
    gradient_rank_curve,
    update_efficiency,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    best_rank_k_residual,
    kernel_split,
    log_softmax_rows,
    qr_rank,
    singular_values,
    softmax_rows,
)
from .model import (
    CheckpointError,
    FactoredHead,
    FullHead,
    ModelParams,
    TrainConfig,
    TrainingDivergedError,
    entropy_floor,
    first_order_logit_update,
    init_params,
    load_checkpoint,
    logit_gradient,
    logits,
    loss,
    loss_from_logits,
    param_gradients,
    save_checkpoint,
    smoothed_log_target,
    top1_accuracy,
    train,
)
from .verify import (
    batch_rank_floor_suite,
    construct_top1,
    verify_batch_rank_floor,
    verify_error_rank_floor,
    verify_logit_rank_caps,
    verify_loss_floor,
    verify_top1_reachability,
    verify_update_residual_gap,
)

__version__ = "0.1.0"
