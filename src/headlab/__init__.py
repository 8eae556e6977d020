"""Rank-constrained matrix language models and output-head gradient diagnostics.

The package trains small matrix language models on synthetic corpora, measures
how the linear output head compresses backpropagated gradients, and machine-
verifies the structural rank claims behind those measurements on brute-force
instances.
"""

__version__ = "0.1.0"
