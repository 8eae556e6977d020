"""Metamorphic properties: how every measurement must move when its input is
transformed, checked with no oracle.

Corpus doubling: repeating every sequence doubles each count and the token
total, so every count-weighted average keeps its value. Both sides of each
quotient are scaled by 2, which is exact in floating point, so training and
every `diagnose` figure are equal bit for bit. The rank curve is left out:
its draws follow the token count.

Width rotation: for an orthogonal D x D matrix R, the model h -> hR,
W -> WR (for a factored head, B -> BR) has the same logits, since
hR (WR)^T = h W^T, and its head the same column span. So every figure of
`gradient_pass`, `update_efficiency` and `gradient_gap` agrees up to
rounding, within 1e-12 of its scale.

Context permutation: permuting the count rows and the rows of h together
reorders the contexts and their logits, and every figure is a sum over
contexts. So the loss, top-1 accuracy, the head's gradients and the figures
above agree up to rounding, while the rows' gradient and `per_row_lost`
permute. With 7-row blocks and at least 8 contexts, a pass that drops or
repeats a row block sees different rows on the two sides.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import corpus as cp
from headlab import diagnostics as dg
from headlab import model as md

PROPERTY_SETTINGS = settings(settings.get_profile("deterministic"), max_examples=60)


def assert_same(a, b):
    """`a` and `b` hold equal values: dataclasses field by field, sequences
    item by item, arrays and floats elementwise (NaN equal to NaN)."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, (np.ndarray, float)):
        assert np.array_equal(a, b, equal_nan=True), (a, b)
    else:
        assert a == b


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError or the training
    divergence it raised."""
    try:
        return fn(*args)
    except (ValueError, md.TrainingDivergedError) as exc:
        return type(exc), str(exc)


@st.composite
def doubling_cases(draw):
    v = draw(st.integers(2, 16))
    seqs = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=12),
                         min_size=1, max_size=6))
    width = draw(st.integers(1, 4))
    config = {
        "steps": draw(st.integers(1, 6)),
        "lr": draw(st.sampled_from([1e-2, 0.1, 1.0])),
        "width": width,
        "head_rank": draw(st.none() | st.integers(1, width)),
        "schedule": draw(st.sampled_from(["constant", "cosine"])),
        "eval_every": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**16)),
    }
    # a zero head gives a hidden-state direction of zero norm, which
    # `gradient_pass` refuses
    return v, seqs, draw(st.integers(0, 3)), config, draw(st.booleans())


@PROPERTY_SETTINGS
@given(doubling_cases())
def test_doubling_the_corpus_changes_no_figure(case):
    v, seqs, mcl, config, zero_head = case
    once = cp.build_counts(cp.Corpus(v, seqs), mcl)[1]
    twice = cp.build_counts(cp.Corpus(v, seqs + seqs), mcl)[1]
    assert twice.total == 2 * once.total and np.array_equal(twice.n, 2 * once.n)
    for optimizer in ("gd", "adam"):
        tc = md.TrainConfig(**config, optimizer=optimizer)
        results = [outcome(md.train, counts, tc) for counts in (once, twice)]
        assert_same(*results)
    params = md.init_params(once.num_contexts, v, config["width"], config["head_rank"],
                            seed=config["seed"])
    if zero_head:
        for part in params.head.parts.values():
            part[:] = 0.0
    assert md.entropy_floor(once) == md.entropy_floor(twice)
    assert_same(md.top1_accuracy(once, params), md.top1_accuracy(twice, params))
    firsts = [outcome(dg.gradient_pass, counts, params) for counts in (once, twice)]
    assert_same(*firsts)
    assert_same(dg.gradient_gap(once, params), dg.gradient_gap(twice, params))
    if isinstance(firsts[0], dg.GradientPass):
        fractions = [1e-3, 1e-1]
        assert_same(dg.update_efficiency(once, params, firsts[0], fractions),
                    dg.update_efficiency(twice, params, firsts[1], fractions))


def assert_close(a, b, scale):
    """`a` and `b` (floats or arrays) differ by at most 1e-12 * `scale`."""
    gap = np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0)
    assert gap <= 1e-12 * scale, (a, b, scale)


@st.composite
def rotation_cases(draw):
    v = draw(st.integers(2, 16))
    width = draw(st.integers(1, 6))
    corpus = cp.gen_zipf_bigram(v, draw(st.sampled_from([0.8, 1.2, 2.0])),
                                draw(st.integers(1, 6)), draw(st.integers(1, 12)),
                                draw(st.integers(0, 2**16)))
    counts = cp.build_counts(corpus, draw(st.integers(0, 3)))[1]
    params = md.init_params(counts.num_contexts, v, width,
                            draw(st.none() | st.integers(1, width)),
                            seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q, r = np.linalg.qr(rng.normal(size=(width, width)))
    return counts, params, q * np.sign(np.diag(r))


def rotated(params, r):
    """The model h -> hR, W -> WR (B -> BR for a factored head)."""
    head = params.head
    if isinstance(head, md.FullHead):
        return md.ModelParams(params.h @ r, md.FullHead(head.w @ r))
    return md.ModelParams(params.h @ r, md.FactoredHead(head.a, head.b @ r))


def assert_figures_close(counts, params, other_counts, other_params, rows=slice(None)):
    """Every figure of `gradient_pass`, `update_efficiency` and `gradient_gap`
    agrees on the two models within 1e-12 of its scale; `per_row_lost` of the
    other model equals this one's at `rows`."""
    first = dg.gradient_pass(counts, params)
    other = dg.gradient_pass(other_counts, other_params)
    report, other_report = first.report, other.report
    # fractions and cosines lie in [0, 1]: their scale is 1
    for name in ("lost_fraction", "cosine_mean", "cosine_std"):
        assert_close(getattr(report, name), getattr(other_report, name), 1.0)
    assert_close(report.per_row_lost[rows], other_report.per_row_lost, 1.0)
    assert report.zero_gradient == other_report.zero_gradient
    for f in dataclasses.fields(first.profile):
        series = getattr(first.profile, f.name)
        assert_close(series, getattr(other.profile, f.name), np.abs(series).max())
    for name in ("base_loss", "logit_norm", "grad_norm", "hidden_norm"):
        assert_close(getattr(first, name), getattr(other, name), getattr(first, name))
    fractions = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
    curve = dg.update_efficiency(counts, params, first, fractions)
    other_curve = dg.update_efficiency(other_counts, other_params, other, fractions)
    # a loss change is a difference of two losses: it rounds on the loss's scale
    for name in ("delta_logit", "delta_hidden"):
        assert_close(getattr(curve, name), getattr(other_curve, name), first.base_loss)
    # the gap is a trace minus eigenvalues: it rounds on the scale of ||g||_F
    assert_close(dg.gradient_gap(counts, params), dg.gradient_gap(other_counts, other_params),
                 first.grad_norm)


@PROPERTY_SETTINGS
@given(rotation_cases())
def test_rotating_the_width_changes_no_diagnose_figure(case):
    counts, params, r = case
    assert_figures_close(counts, params, counts, rotated(params, r))


@st.composite
def permutation_cases(draw):
    """(dense counts, params, perm): 8 to 40 contexts over 2 to 16 tokens,
    every row counted, and a permutation of the contexts."""
    v, c = draw(st.integers(2, 16)), draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    dense = rng.integers(0, 4, size=(c, v)) * (rng.random((c, v)) < density)
    dense[np.arange(c), rng.integers(0, v, size=c)] += 1
    width = draw(st.integers(1, 6))
    params = md.init_params(c, v, width, draw(st.none() | st.integers(1, width)),
                            seed=draw(st.integers(0, 2**16)))
    return dense, params, rng.permutation(c)


@PROPERTY_SETTINGS
@given(permutation_cases())
def test_permuting_the_contexts_changes_no_figure(case):
    dense, params, perm = case
    counts = cp.CountMatrix.from_counts(dense)
    moved = cp.CountMatrix.from_counts(dense[perm])
    moved_params = md.ModelParams(params.h[perm], params.head)
    with mock.patch.object(md, "BLOCK_BYTES", 7 * 8 * counts.vocab_size):  # 7-row blocks
        loss = md.loss(counts, params)
        assert_close(md.loss(moved, moved_params), loss, loss)
        assert_close(md.top1_accuracy(moved, moved_params), md.top1_accuracy(counts, params),
                     1.0)
        grads, moved_grads = (md.param_gradients(counts, params),
                              md.param_gradients(moved, moved_params))
        assert grads.keys() == moved_grads.keys()
        for name, grad in grads.items():
            assert_close(moved_grads[name], grad[perm] if name == "h" else grad,
                         np.abs(grad).max())
        assert_figures_close(counts, params, moved, moved_params, perm)
