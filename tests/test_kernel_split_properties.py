"""Property tests: the thin kernel split against the full-QR reference path
(`kernel_basis`, `project_rows_onto_span`)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import linalg
from headlab import model as md

PROPERTY_SETTINGS = settings(settings.get_profile("deterministic"), max_examples=200)


@st.composite
def split_cases(draw):
    """(g, w): a gradient with some zero rows and a full, square, wide (V <= D,
    rank V), rank-deficient or factored V x D head."""
    kind = draw(st.sampled_from(["full", "square", "wide", "deficient", "factored"]))
    d = draw(st.integers(1, 6))
    rows = st.integers(1, d) if kind == "wide" else st.integers(d, 24)
    v = d if kind == "square" else draw(rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("full", "square", "wide"):
        w = rng.normal(size=(v, d))
    elif kind == "deficient":
        k = draw(st.integers(0, d - 1))  # k = 0 is the zero head
        w = rng.normal(size=(v, k)) @ rng.normal(size=(k, d))
    else:
        r = draw(st.integers(1, d))
        w = md.FactoredHead(rng.normal(size=(v, r)), rng.normal(size=(r, d))).matrix
    c = draw(st.integers(1, 8))
    g = rng.normal(size=(c, v)) * 10.0 ** draw(st.integers(-3, 3))
    g[draw(st.lists(st.integers(0, c - 1), max_size=c))] = 0.0
    return g, w


@PROPERTY_SETTINGS
@given(split_cases())
def test_kernel_split_matches_full_qr_oracle(case):
    g, w = case
    kept, lost = linalg.kernel_split(g, w)
    basis = linalg.kernel_basis(w)
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-10
    scale = np.linalg.norm(g)
    assert np.abs(kept + lost - g).max() <= 1e-12 * scale
    assert np.abs(lost - linalg.project_rows_onto_span(g, basis)).max() <= 1e-12 * scale
    # orthogonal parts: kept rows against lost rows, lost rows against the head
    assert np.abs(np.sum(kept * lost, axis=1)).max() <= 1e-12 * scale**2
    assert np.abs(lost @ w).max() <= 1e-10 * scale * max(1.0, np.linalg.norm(w))
    zero = ~g.any(axis=1)
    assert not kept[zero].any() and not lost[zero].any()
    rank = w.shape[0] - basis.shape[1]
    if rank == w.shape[0]:
        assert not lost.any() and np.array_equal(kept, g)
    if rank == 0:
        assert not kept.any() and np.array_equal(lost, g)
