import numpy as np
import pytest

from headlab import corpus as cp
from headlab import diagnostics as dg
from headlab import linalg
from headlab import model as md
from reference import (
    gradient_rank_curve_dense,
    logit_state,
    lost_norm_fraction,
    per_token_gradient_matrix,
    token_occurrences,
)


def efficiency(counts, params, fractions):
    return dg.update_efficiency(counts, params, dg.gradient_pass(counts, params), fractions)


def svd_rank(m, tol=1e-6):
    s = linalg.singular_values(m)
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


@pytest.fixture(scope="module")
def trained_zipf_256():
    """A partially trained width-8 model on a 256-token Markov corpus."""
    corpus = cp.gen_zipf_bigram(256, 1.2, 192, 48, seed=71)
    table, counts = cp.build_counts(corpus, 1)
    cfg = md.TrainConfig(steps=300, lr=1e-2, width=8, optimizer="adam", eval_every=100, seed=5)
    result = md.train(counts, cfg)
    return counts, result.params


class TestGradientRankCurve:
    def test_single_token_has_rank_one(self):
        rng = np.random.default_rng(0)
        corpus = cp.gen_zipf_bigram(8, 1.1, 6, 8, seed=1)
        _, counts = cp.build_counts(corpus, 1)
        params = md.init_params(counts.num_contexts, 8, 3, rng=rng)
        curve = dg.gradient_rank_curve(counts, params, [1], seed=3)
        assert curve.points == [(1, 1, 1)]

    def test_fitted_model_has_vanishing_rank(self):
        # all sequences share one symbol, so a matched model's per-token
        # gradient rows are all ~0 and the measured rank collapses
        corpus = cp.Corpus(3, [[1] * 6] * 4)
        _, counts = cp.build_counts(corpus, 1)
        h = np.log((1 - 1e-8) * counts.to_dense(normalized=True) + 1e-8 / 3)
        params = md.ModelParams(h, md.FullHead(np.eye(3)))
        curve = dg.gradient_rank_curve(counts, params, [4, 16], seed=0)
        assert all(rank == 0 for _, rank, _ in curve.points)

    def test_random_model_rank_saturates(self):
        corpus = cp.gen_zipf_bigram(64, 1.2, 120, 40, seed=5)
        _, counts = cp.build_counts(corpus, 1)
        params = md.init_params(counts.num_contexts, 64, 8, seed=9)
        sizes = [8, 32, 64, 256]
        p = logit_state(counts, params)[2]
        curve = dg.gradient_rank_curve(counts, params, sizes, seed=11)
        assert curve.points == gradient_rank_curve_dense(counts, p, sizes, seed=11)
        occ_r, occ_c = token_occurrences(counts)
        rng = np.random.default_rng(11)
        for k, rank, max_rank in curve.points:
            assert max_rank == min(k, 64)
            assert rank <= max_rank
            assert rank <= counts.num_contexts
            assert rank >= 0.8 * min(k, 64)
            draw = rng.choice(counts.total, size=k, replace=False)
            m = per_token_gradient_matrix(p, occ_r[draw], occ_c[draw])
            assert abs(rank - svd_rank(m)) <= 1

    def test_ranked_rows_are_the_softmax_rows_less_the_one_hots(self, monkeypatch):
        corpus = cp.gen_zipf_bigram(64, 1.2, 120, 40, seed=5)
        _, counts = cp.build_counts(corpus, 1)
        params = md.init_params(counts.num_contexts, 64, 8, seed=9)
        sizes = [8, 32, 64, 256]
        ranked, qr_rank = [], linalg.qr_rank

        def spy(m, *args):
            ranked.append(m.copy())
            return qr_rank(m, *args)

        def no_softmax_rows(m):
            raise AssertionError("the rank curve called softmax_rows")

        monkeypatch.setattr(linalg, "qr_rank", spy)
        monkeypatch.setattr(linalg, "softmax_rows", no_softmax_rows)
        dg.gradient_rank_curve(counts, params, sizes, seed=11)
        monkeypatch.undo()
        occ_r, occ_c = token_occurrences(counts)
        rng = np.random.default_rng(11)
        assert len(ranked) == len(sizes)
        for k, m in zip(sizes, ranked):
            draw = rng.choice(counts.total, size=k, replace=False)
            rows, inverse = np.unique(occ_r[draw], return_inverse=True)
            p = linalg.softmax_rows(params.head.logits(params.h[rows]))
            assert np.array_equal(m, per_token_gradient_matrix(p, inverse, occ_c[draw]))

    def test_oversized_request_rejected(self):
        corpus = cp.gen_spamlang(4, 2, 5, seed=2)
        _, counts = cp.build_counts(corpus, 1)
        params = md.init_params(counts.num_contexts, 4, 2, seed=1)
        with pytest.raises(ValueError):
            dg.gradient_rank_curve(counts, params, [counts.total + 1], seed=0)
        with pytest.raises(ValueError, match="empty"):
            dg.gradient_rank_curve(counts, params, [], seed=0)


class TestLostNormFraction:
    def test_full_rank_square_head_loses_nothing(self):
        rng = np.random.default_rng(13)
        head = md.FullHead(rng.normal(size=(6, 6)))
        g = rng.normal(size=(4, 6))
        assert lost_norm_fraction(g, head) == 0.0

    def test_rows_inside_kernel_lose_everything(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(10, 3))
        basis = linalg.kernel_basis(w)
        g = rng.normal(size=(5, basis.shape[1])) @ basis.T
        assert lost_norm_fraction(g, md.FullHead(w)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gradient_defined_as_zero(self):
        head = md.FullHead(np.eye(4))
        assert lost_norm_fraction(np.zeros((3, 4)), head) == 0.0

    def test_isotropic_split(self):
        rng = np.random.default_rng(15)
        v, d = 256, 8
        fractions = [
            lost_norm_fraction(rng.standard_normal((64, v)), md.FullHead(rng.standard_normal((v, d))))
            for _ in range(5)
        ]
        assert abs(np.mean(fractions) - np.sqrt(1 - d / v)) < 0.02

    def test_invariant_under_head_reparametrization(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(12, 4))
        mix = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        g = rng.normal(size=(6, 12))
        f1 = lost_norm_fraction(g, md.FullHead(w))
        f2 = lost_norm_fraction(g, md.FullHead(w @ mix))
        assert abs(f1 - f2) < 1e-10


class TestKernelCosine:
    def test_full_rank_head_mean_one(self):
        rng = np.random.default_rng(17)
        head = md.FullHead(rng.normal(size=(5, 5)))
        mean, std = dg.kernel_cosine(rng.normal(size=(4, 5)), head)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_kernel_rows_score_zero_and_zero_rows_excluded(self):
        rng = np.random.default_rng(18)
        w = rng.normal(size=(8, 2))
        basis = linalg.kernel_basis(w)
        kernel_row = basis[:, 0]
        col_row = w[:, 0] / np.linalg.norm(w[:, 0])
        g = np.stack([kernel_row, col_row, np.zeros(8)])
        mean, std = dg.kernel_cosine(g, md.FullHead(w))
        # zero row dropped; remaining cosines are 0 and 1
        assert mean == pytest.approx(0.5, abs=1e-10)
        assert std == pytest.approx(0.5, abs=1e-10)

    def test_all_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            dg.kernel_cosine(np.zeros((2, 4)), md.FullHead(np.eye(4)))

    def test_isotropic_alignment(self):
        rng = np.random.default_rng(19)
        v, d = 256, 8
        mean, _ = dg.kernel_cosine(
            rng.standard_normal((256, v)), md.FullHead(rng.standard_normal((v, d)))
        )
        assert abs(mean - np.sqrt(d / v)) < 0.03


class TestCompressionReport:
    def test_per_row_orthogonal_split(self, trained_zipf_256):
        counts, params = trained_zipf_256
        g = logit_state(counts, params)[3]
        report = dg.compression_report(g, params.head)
        lost = linalg.project_rows_onto_span(g, linalg.kernel_basis(params.head.matrix))
        kept = g - lost
        assert report.lost_fraction == pytest.approx(
            np.linalg.norm(lost) / np.linalg.norm(g), rel=1e-12)
        norms = np.linalg.norm(g, axis=1)
        nz = norms > 0
        retained = np.zeros_like(norms)
        retained[nz] = np.linalg.norm(kept[nz], axis=1) / norms[nz]
        split = report.per_row_lost[nz] ** 2 + retained[nz] ** 2
        assert np.abs(split - 1.0).max() < 1e-8
        assert 0.0 <= report.lost_fraction <= 1.0
        assert not report.zero_gradient

    def test_zero_gradient_flagged(self):
        # uniform targets with zero logits make the gradient exactly zero
        counts = cp.CountMatrix.from_counts(np.array([[2, 2], [2, 2]]))
        params = md.ModelParams(np.zeros((2, 2)), md.FullHead(np.eye(2)))
        g = logit_state(counts, params)[3]
        report = dg.compression_report(g, params.head)
        assert report.zero_gradient
        assert report.lost_fraction == 0.0
        assert np.all(report.per_row_lost == 0.0) and report.per_row_lost.shape == (2,)


class TestCoefficientProfile:
    def test_identical_inputs_give_identical_profiles(self):
        rng = np.random.default_rng(20)
        g = rng.normal(size=(6, 10))
        prof = dg.coefficient_profile(g, g)
        assert np.array_equal(prof.full_mean, prof.proj_mean)
        assert np.array_equal(prof.full_std, prof.proj_std)

    def test_zero_projection_gives_zero_stats(self):
        rng = np.random.default_rng(21)
        g = rng.normal(size=(4, 7))
        prof = dg.coefficient_profile(g, np.zeros_like(g))
        assert np.all(prof.proj_mean == 0)
        assert np.all(prof.proj_std == 0)

    def test_anchor_position_flipped_negative(self):
        g = np.array([[0.9, -0.1, -0.8], [-0.9, 0.5, 0.4]])
        prof = dg.coefficient_profile(g, g)
        # first row's largest-|.| entry is +0.9: that row is flipped
        assert prof.full_mean[0] == pytest.approx(-0.9, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dg.coefficient_profile(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_trained_model_pattern(self, trained_zipf_256):
        counts, params = trained_zipf_256
        g = logit_state(counts, params)[3]
        prof = dg.coefficient_profile(g, linalg.kernel_split(g, params.head.matrix)[1])
        # the observed-token coefficient keeps its negative sign after projection
        assert prof.full_mean[0] < 0
        assert prof.proj_mean[0] < 0
        # the projection moves energy into the tail: higher spread there
        tail = slice(32, None)
        assert prof.proj_std[tail].mean() > prof.full_std[tail].mean()


class TestUpdateEfficiency:
    def test_orthogonal_square_head_directions_coincide(self):
        rng = np.random.default_rng(22)
        counts = cp.CountMatrix.from_counts(rng.integers(1, 6, size=(5, 6)))
        q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        params = md.ModelParams(rng.normal(size=(5, 6)), md.FullHead(q))
        curve = efficiency(counts, params, [1e-3, 1e-2, 1e-1])
        for d1, d2 in zip(curve.delta_logit, curve.delta_hidden):
            assert abs(d1 - d2) < 1e-8

    def test_small_alpha_matches_first_order_descent(self):
        rng = np.random.default_rng(23)
        counts = cp.CountMatrix.from_counts(rng.integers(0, 4, size=(6, 8)) + 1)
        params = md.init_params(6, 8, 3, rng=rng)
        lm, _, _, g = logit_state(counts, params)
        alpha = 1e-5
        curve = efficiency(counts, params, [alpha])
        predicted = -alpha * np.linalg.norm(lm) * np.linalg.norm(g)
        assert curve.delta_logit[0] < 0
        assert curve.delta_logit[0] == pytest.approx(predicted, rel=1e-2)

    def test_logit_direction_never_worse(self, trained_zipf_256):
        counts, params = trained_zipf_256
        curve = efficiency(counts, params, [1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
        for d1, d2 in zip(curve.delta_logit, curve.delta_hidden):
            assert d1 <= d2

    def test_bad_fraction_rejected(self):
        counts = cp.CountMatrix.from_counts(np.array([[1, 1]]))
        params = md.init_params(1, 2, 2, seed=0)
        with pytest.raises(ValueError):
            efficiency(counts, params, [0.0])

    def test_overflowing_logits_refused_by_the_first_pass(self):
        counts = cp.CountMatrix.from_counts(np.array([[1, 1]]))
        params = md.init_params(1, 2, 2, seed=0)
        params.h[:] = 1e200
        params.head.w[:] = 1e200
        with pytest.raises(ValueError, match="not finite"):
            dg.gradient_pass(counts, params)

    def test_empty_fractions_refused_before_any_loss(self, monkeypatch):
        counts = cp.CountMatrix.from_counts(np.array([[1, 1]]))
        params = md.init_params(1, 2, 2, seed=0)
        first = dg.gradient_pass(counts, params)

        def no_loss(*args, **kwargs):
            raise AssertionError("a perturbed loss was evaluated")

        monkeypatch.setattr(linalg, "_softmax_block", no_loss)
        with pytest.raises(ValueError, match="fractions must hold at least one"):
            dg.update_efficiency(counts, params, first, [])


class TestEckartYoungGap:
    def test_low_rank_matrix_has_zero_gap(self):
        rng = np.random.default_rng(24)
        d = 2
        m = rng.normal(size=(10, 2 * d)) @ rng.normal(size=(2 * d, 12))
        assert linalg.best_rank_k_residual(m, 2 * d) < 1e-10

    def test_width_zero_gap_is_full_norm(self):
        m = np.eye(7)
        assert linalg.best_rank_k_residual(m, 0) == pytest.approx(np.linalg.norm(m), abs=1e-12)


class TestModelShapeRefused:
    """Every walk of a model's logits, and the rank curve, refuses a model
    whose rows or vocabulary do not match the counts, naming both shapes."""

    ENTRY_POINTS = {
        "loss": lambda counts, params, good: md.loss(counts, params),
        "top1_accuracy": lambda counts, params, good: md.top1_accuracy(counts, params),
        "param_gradients": lambda counts, params, good: md.param_gradients(counts, params),
        "gradient_pass": lambda counts, params, good: dg.gradient_pass(counts, params),
        "gradient_gap": lambda counts, params, good: dg.gradient_gap(counts, params),
        "update_efficiency": lambda counts, params, good: dg.update_efficiency(
            counts, params, dg.gradient_pass(counts, good), [0.1]),
        "gradient_rank_curve": lambda counts, params, good: dg.gradient_rank_curve(
            counts, params, [1, 8]),
    }

    @pytest.fixture(scope="class")
    def counts(self):
        # C = 256 at V = 512 fills two row blocks of 128 rows exactly
        counts = cp.CountMatrix.from_counts(
            np.random.default_rng(3).integers(0, 2, size=(256, 512)) + np.eye(256, 512, dtype=int))
        assert counts.num_contexts % md._block_starts(counts).step == 0
        return counts

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("extra_rows, extra_tokens", [(1, 0), (-1, 0), (0, 1)])
    def test_wrong_shape_raises_naming_both_shapes(self, counts, entry, extra_rows, extra_tokens):
        c, v = counts.shape
        good = md.init_params(c, v, 4, seed=0)
        params = md.init_params(c + extra_rows, v + extra_tokens, 4, seed=0)
        with pytest.raises(ValueError) as exc:
            self.ENTRY_POINTS[entry](counts, params, good)
        assert f"({c + extra_rows}, {v + extra_tokens})" in str(exc.value)
        assert f"{counts.shape}" in str(exc.value)


class TestBlockBuffers:
    """A pass writes each block's temporaries into the leading rows of
    buffers made once for its largest block; reused, dirty buffers give the
    bits of fresh arrays and of numpy's own forms."""

    @staticmethod
    def dirty(rows, like):
        buf = np.full((rows, like.shape[1]), np.nan)
        return buf[:len(like)]

    def block(self, seed):
        g = np.random.default_rng(seed).normal(size=(5, 9))
        g[1] = 0.0
        g[2, :3] = g[2, 3:6]  # ties in |g|
        return g

    def test_row_norms_equal_numpys_norm(self):
        g = self.block(40)
        assert np.array_equal(dg._row_norms(g, self.dirty(8, g)), np.linalg.norm(g, axis=1))

    @pytest.mark.parametrize("rank", [0, 3, 9])
    def test_split_into_buffers_equals_fresh_split(self, rank):
        g = self.block(41)
        basis = np.linalg.qr(np.random.default_rng(42).normal(size=(9, 9)))[0][:, :rank]
        fresh = linalg._split_rows(g, basis)
        reused = linalg._split_rows(g, basis, out=(self.dirty(8, g), self.dirty(8, g)))
        assert all(np.array_equal(a, b) for a, b in zip(fresh, reused))

    def test_profile_from_buffers_equals_the_sorted_rows(self):
        g, proj = self.block(43), self.block(44)
        fresh, reused = dg._ProfileMoments(9), dg._ProfileMoments(9)
        fresh.add(g, proj)
        reused.add(g, proj, (self.dirty(8, g), self.dirty(8, g)))
        assert np.array_equal(fresh.mean, reused.mean) and np.array_equal(fresh.m2, reused.m2)
        order = np.argsort(-np.abs(g), axis=1)
        flip = np.where(np.take_along_axis(g, order, axis=1)[:, :1] > 0, -1.0, 1.0)
        for k, x in enumerate((g, proj)):
            sorted_rows = np.take_along_axis(x, order, axis=1) * flip
            assert np.array_equal(fresh.mean[k], sorted_rows.mean(axis=0))
