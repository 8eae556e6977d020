import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import linalg
from reference import softmax_rows_dense

PROPERTY_SETTINGS = settings(settings.get_profile("deterministic"), max_examples=200)


def jacobi_singular_values(a, sweeps=80, off_tol=1e-14):
    """Independent SVD oracle: one-sided Jacobi rotations on a working copy.

    Columns are rotated until pairwise inner products vanish; the singular
    values are then the column norms. Kept free of any library SVD/QR call.
    """
    m = np.array(a, dtype=float)
    if m.shape[0] < m.shape[1]:
        m = m.T.copy()
    n = m.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(m[:, p] @ m[:, q])
                app = float(m[:, p] @ m[:, p])
                aqq = float(m[:, q] @ m[:, q])
                denom = np.sqrt(app * aqq)
                if denom > 0:
                    off = max(off, abs(apq) / denom)
                if apq == 0.0:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                col_p = m[:, p].copy()
                m[:, p] = c * col_p - s * m[:, q]
                m[:, q] = s * col_p + c * m[:, q]
        if off < off_tol:
            break
    sv = np.sqrt((m * m).sum(axis=0))
    return np.sort(sv)[::-1]


def rank_from_singulars(s, tol):
    return int(np.count_nonzero(s > tol * max(1.0, s[0])))


def random_with_spectrum(rng, shape, spectrum):
    """U diag(spectrum) V^T with Haar-ish orthogonal factors."""
    rows, cols = shape
    k = len(spectrum)
    u = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, k)))[0]
    return (u * np.asarray(spectrum)) @ v.T


class TestSoftmax:
    def test_uniform_logits(self):
        out = linalg.softmax_rows([[0.0, 0.0, 0.0]])
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_closed_form(self):
        out = linalg.softmax_rows([[0.0, np.log(2.0)]])
        assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 9)) * 3
        c = rng.normal(size=(6, 1)) * 10
        assert np.abs(linalg.softmax_rows(m + c) - linalg.softmax_rows(m)).max() < 1e-12

    def test_rows_positive_and_sum_to_one(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(5, 7)) * 50
        out = linalg.softmax_rows(m)
        assert np.all(out > 0)
        assert np.abs(out.sum(axis=1) - 1).max() < 1e-12

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            linalg.softmax_rows([[np.nan, 0.0]])


@st.composite
def softmax_inputs(draw):
    """Logits up to 64 x 512 at a scale from 1e-3 to 1e3, with optionally a
    row whose one logit dominates and a constant row."""
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 512))
    scale = 10.0 ** draw(st.floats(-3, 3))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(rows, cols)) * scale
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] += 50 * scale
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = draw(st.floats(-1e3, 1e3))
    return m


@PROPERTY_SETTINGS
@given(softmax_inputs())
def test_softmax_rows_equals_the_three_step_formula_bit_for_bit(m):
    assert np.array_equal(linalg.softmax_rows(m), softmax_rows_dense(m))


class TestLogSoftmax:
    def test_two_way_tie(self):
        out = linalg.log_softmax_rows([[0.0, 0.0]])
        assert np.allclose(out, [[-np.log(2), -np.log(2)]], atol=1e-15)

    def test_no_overflow_on_large_gap(self):
        out = linalg.log_softmax_rows([[100.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] > -1e-40
        assert abs(out[0, 1] + 100.0) < 1e-12

    def test_exp_matches_softmax(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 7)) * 4
        assert np.abs(np.exp(linalg.log_softmax_rows(m)) - linalg.softmax_rows(m)).max() < 1e-12


class TestQrRank:
    def test_identity(self):
        assert linalg.qr_rank(np.eye(8)) == 8

    def test_zero_matrix(self):
        assert linalg.qr_rank(np.zeros((5, 7))) == 0

    def test_low_rank_product_vs_jacobi_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(20, 4)) @ rng.normal(size=(4, 30))
        assert linalg.qr_rank(m) == 4
        oracle = rank_from_singulars(jacobi_singular_values(m), 1e-6)
        assert oracle == 4

    def test_agrees_with_singular_count_within_one(self):
        rng = np.random.default_rng(4)
        for spectrum in ([5.0, 2.0, 1e-2, 1e-9], [1.0, 1e-3, 1e-4, 1e-10, 1e-12], [7.0] * 6):
            m = random_with_spectrum(rng, (12, 15), spectrum)
            qr = linalg.qr_rank(m, 1e-6)
            sv = rank_from_singulars(linalg.singular_values(m), 1e-6)
            assert abs(qr - sv) <= 1

    def test_tol_is_strict(self):
        m = np.diag([1.0, 1e-6])
        # an entry exactly at the threshold does not count
        assert linalg.qr_rank(m, 1e-6) == 1

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            linalg.qr_rank(np.eye(2), 0.0)


class TestSingularValues:
    def test_diagonal(self):
        assert np.allclose(linalg.singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_orthogonal_all_ones(self):
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.normal(size=(9, 9)))[0]
        assert np.abs(linalg.singular_values(q) - 1.0).max() < 1e-10

    def test_frobenius_identity(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(6, 9))
        s = linalg.singular_values(m)
        assert len(s) == 6
        assert np.all(np.diff(s) <= 0)
        fro2 = np.sum(m * m)
        assert abs(np.sum(s**2) - fro2) < 1e-10 * fro2

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 5))
        assert np.abs(linalg.singular_values(m) - jacobi_singular_values(m)).max() < 1e-8


class TestKernelBasis:
    """The kernel side of `kernel_split`: splitting the identity's rows gives
    the projector onto ker(w.T) as `lost`."""

    def test_identity_columns(self):
        v, d = 7, 3
        w = np.eye(v)[:, :d]
        _, proj = linalg.kernel_split(np.eye(v), w)
        # projector onto the kernel equals the projector onto coords d..v
        expected = np.diag([0.0] * d + [1.0] * (v - d))
        assert np.abs(proj - expected).max() < 1e-10

    def test_full_rank_square_is_empty(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(5, 5))
        g = rng.normal(size=(3, 5))
        kept, lost = linalg.kernel_split(g, w)
        assert np.all(lost == 0.0)
        assert np.array_equal(kept, g)

    def test_random_tall_matrix(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(40, 8))
        _, proj = linalg.kernel_split(np.eye(40), w)
        assert np.trace(proj) == pytest.approx(32, abs=1e-10)
        assert np.abs(w.T @ proj).max() < 1e-8
        # an orthogonal projector: symmetric and idempotent
        assert np.abs(proj - proj.T).max() < 1e-10
        assert np.abs(proj @ proj - proj).max() < 1e-10

    def test_rank_deficient(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 4))  # rank 2, shape 12x4
        _, proj = linalg.kernel_split(np.eye(12), w)
        assert np.trace(proj) == pytest.approx(10, abs=1e-10)
        assert np.abs(w.T @ proj).max() < 1e-8
        basis = linalg.kernel_basis(w)
        assert np.abs(proj - basis @ basis.T).max() < 1e-12


class TestProjection:
    """The row split itself: kept + lost = g, orthogonal and exact at the ends."""

    def test_full_standard_basis_is_identity(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(4, 6))
        kept, lost = linalg.kernel_split(g, np.eye(6))
        assert np.array_equal(kept, g)
        assert np.all(lost == 0.0)

    def test_empty_basis_gives_zero(self):
        g = np.ones((3, 5))
        kept, lost = linalg.kernel_split(g, np.zeros((5, 2)))  # rank 0: no span
        assert np.all(kept == 0)
        assert np.array_equal(lost, g)

    def test_pythagoras(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(10, 20))
        kept, lost = linalg.kernel_split(g, rng.normal(size=(20, 6)))
        total = np.sum(g * g)
        split = np.sum(lost * lost) + np.sum(kept * kept)
        assert abs(split - total) < 1e-8 * total
        assert np.abs(kept + lost - g).max() < 1e-12

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=(5, 12))
        w = rng.normal(size=(12, 5))
        _, lost = linalg.kernel_split(g, w)
        kept_again, again = linalg.kernel_split(lost, w)
        assert np.abs(again - lost).max() < 1e-10
        assert np.abs(kept_again).max() < 1e-10
        assert np.linalg.norm(lost) <= np.linalg.norm(g) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.kernel_split(np.ones((2, 3)), np.eye(4))


class TestBestRankKResidual:
    def test_k_at_least_min_dim(self):
        rng = np.random.default_rng(14)
        m = rng.normal(size=(4, 6))
        assert linalg.best_rank_k_residual(m, 4) == 0.0
        assert linalg.best_rank_k_residual(m, 9) == 0.0

    def test_k_zero_is_frobenius(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(5, 5))
        assert abs(linalg.best_rank_k_residual(m, 0) - np.linalg.norm(m)) < 1e-10

    def test_nonincreasing_in_k(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=(7, 7))
        values = [linalg.best_rank_k_residual(m, k) for k in range(8)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_random_subspace_search_oracle(self):
        # the optimum lower-bounds every sampled rank-3 projection residual,
        # and the best of 200 samples lands within 1.5x (1.337x at this seed)
        rng = np.random.default_rng(42)
        m = rng.normal(size=(10, 10))
        best = linalg.best_rank_k_residual(m, 3)
        sampled = []
        for _ in range(200):
            basis = np.linalg.qr(rng.normal(size=(10, 3)))[0]
            sampled.append(np.linalg.norm(m - basis @ (basis.T @ m)))
        sampled = np.array(sampled)
        assert np.all(sampled >= best - 1e-12)
        assert sampled.min() <= 1.5 * best

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            linalg.best_rank_k_residual(np.eye(2), -1)


@st.composite
def residual_cases(draw):
    """(m, k), 0 < k < min(m.shape): m = U diag(s) V^T of up to 40 x 40
    whose squared singular values beyond the k-th hold about 10**e of
    ||m||_F^2, e in [-14, 0], on both sides of the Gram form's floor."""
    rows, cols = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    n = min(rows, cols)
    k = draw(st.integers(1, n - 1))  # TestBestRankKResidual covers k = 0 and k >= n
    share = 10.0 ** draw(st.floats(-14.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    head = rng.uniform(1.0, 2.0, size=k)
    tail = rng.uniform(0.1, 1.0, size=n - k)
    # at most 1, so that the tail stays below the head
    tail *= min(1.0, np.sqrt(share * np.sum(head**2) / np.sum(tail**2)))
    spectrum = np.sort(np.concatenate([head, tail]))[::-1]
    scale = 10.0 ** draw(st.integers(-3, 3))
    return scale * random_with_spectrum(rng, (rows, cols), spectrum), k


@PROPERTY_SETTINGS
@given(residual_cases())
def test_best_rank_k_residual_matches_gesdd_tail(case):
    m, k = case
    s = np.linalg.svd(m, compute_uv=False)
    expected = np.sqrt(np.sum(s[k:] ** 2))
    assert abs(linalg.best_rank_k_residual(m, k) - expected) <= 1e-10 * np.linalg.norm(m)


@pytest.mark.parametrize("transpose", [False, True])
def test_gram_form_skips_the_svd_unless_the_tail_cancels(transpose, monkeypatch):
    """A random 300 x 256 matrix takes its tail from the 256 x 256 Gram
    matrix alone; an exactly rank-16 one falls back to the singular values."""
    svd_calls, gram_shapes = [], []
    real_svd, real_eigh = linalg.singular_values, scipy.linalg.eigh

    def svd_spy(m):
        svd_calls.append(np.shape(m))
        return real_svd(m)

    def eigh_spy(a, *args, **kwargs):
        gram_shapes.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "singular_values", svd_spy)
    monkeypatch.setattr(scipy.linalg, "eigh", eigh_spy)
    rng = np.random.default_rng(11)
    orient = (lambda m: m.T) if transpose else (lambda m: m)
    dense = orient(rng.normal(size=(300, 256)))
    s = np.linalg.svd(dense, compute_uv=False)
    assert linalg.best_rank_k_residual(dense, 16) == pytest.approx(
        np.sqrt(np.sum(s[16:] ** 2)), rel=1e-12
    )
    assert svd_calls == [] and gram_shapes == [(256, 256)]
    low_rank = orient(rng.normal(size=(300, 16)) @ rng.normal(size=(16, 256)))
    assert linalg.best_rank_k_residual(low_rank, 16) < 1e-10 * np.linalg.norm(low_rank)
    assert svd_calls == [low_rank.shape]


@pytest.mark.parametrize("head", ["one_dominant", "flat"])
def test_gram_form_near_its_floor_at_a_diagnose_sized_matrix(head, monkeypatch):
    """At 1024 x 512 and k = 64 with the tail just above the floor, where
    the difference loses the most digits, the Gram form stays within
    1e-10 ||m||_F of the gesdd tail and never calls the SVD."""
    rng = np.random.default_rng(3)
    top = np.r_[1.0, np.full(63, 1e-3)] if head == "one_dominant" else np.ones(64)
    tail = rng.uniform(0.5, 1.0, size=512 - 64)
    share = 1.05 * linalg._GRAM_TAIL_FLOOR
    tail *= np.sqrt(share / (1.0 - share) * np.sum(top**2) / np.sum(tail**2))
    m = random_with_spectrum(rng, (1024, 512), np.r_[top, tail])
    s = scipy.linalg.svd(m, compute_uv=False, lapack_driver="gesdd")
    assert np.sum(s[64:] ** 2) > linalg._GRAM_TAIL_FLOOR * np.sum(s**2)

    def no_svd(m):
        raise AssertionError("the Gram form fell back to the SVD")

    monkeypatch.setattr(linalg, "singular_values", no_svd)
    got = linalg.best_rank_k_residual(m, 64)
    assert abs(got - np.sqrt(np.sum(s[64:] ** 2))) <= 1e-10 * np.linalg.norm(m)


def test_eigh_failure_falls_back_to_the_singular_values(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    m = np.random.default_rng(4).normal(size=(30, 20))
    s = np.linalg.svd(m, compute_uv=False)
    assert linalg.best_rank_k_residual(m, 5) == pytest.approx(
        np.sqrt(np.sum(s[5:] ** 2)), rel=1e-12
    )

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(linalg.SvdConvergenceError):
        linalg.best_rank_k_residual(m, 5)
