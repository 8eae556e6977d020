import inspect

import numpy as np
import pytest

from headlab import corpus as cp
from headlab import linalg
from headlab import model as md
from headlab import verify as vf


class TestLossFloor:
    def test_one_hot_rows_floor_is_zero(self):
        counts = cp.CountMatrix.from_counts(np.array([[3, 0], [0, 2]]))
        assert md.entropy_floor(counts) == 0.0
        params = md.init_params(2, 2, 2, seed=0)
        assert md.loss(counts, params) >= 0.0

    def test_equality_branch(self):
        rng = np.random.default_rng(1)
        counts = cp.CountMatrix.from_counts(rng.integers(1, 7, size=(6, 5)))
        dev = abs(
            md.loss_from_logits(counts, md.smoothed_log_target(counts))
            - md.entropy_floor(counts)
        )
        assert dev < 1e-8

    def test_small_battery_clean(self):
        res = vf.verify_loss_floor(instances=150, seed=3)
        assert res.passed
        assert res.instances_tested == 150
        assert res.worst_margin >= 0.0


class TestLogitRankCaps:
    def test_zero_factor_collapses_rank(self):
        lm = np.zeros((4, 8))
        assert linalg.qr_rank(lm) == 0
        assert linalg.qr_rank(linalg.log_softmax_rows(lm)) <= 1

    def test_width_one(self):
        rng = np.random.default_rng(2)
        lm = rng.normal(size=(5, 1)) @ rng.normal(size=(8, 1)).T
        assert linalg.qr_rank(lm) <= 1
        assert linalg.qr_rank(linalg.log_softmax_rows(lm)) <= 2

    def test_small_battery_clean(self):
        res = vf.verify_logit_rank_caps(instances=120, seed=5)
        assert res.passed

    def test_degenerate_tolerance_collapses_ranks(self):
        res = vf.verify_logit_rank_caps(instances=30, seed=5, rank_tol=1e6)
        # every measured rank degenerates to zero, so the caps hold vacuously
        assert res.passed
        assert all(d["logit_rank"] == 0 for d in res.details)


class TestConstructTop1:
    def test_uniform_row_gets_zero_scale(self):
        counts = cp.CountMatrix.from_counts(np.ones((1, 6), dtype=int))
        params = vf.construct_top1(counts, epsilon=1e-3)
        assert np.abs(params.h).max() == 0.0
        probs = linalg.softmax_rows(md.logits(params))
        assert probs[0, 0] == pytest.approx(1 / 6, abs=1e-12)

    def test_one_hot_row_reaches_near_one(self):
        n = np.zeros((1, 7), dtype=int)
        n[0, 4] = 5
        counts = cp.CountMatrix.from_counts(n)
        params = vf.construct_top1(counts, epsilon=1e-3)
        probs = linalg.softmax_rows(md.logits(params))
        assert probs[0, 4] >= 1 - 1e-3

    def test_interior_target_by_direct_evaluation(self):
        # one context whose top token holds 0.9 of the mass, V = 5
        counts = cp.CountMatrix.from_counts(np.array([[90, 4, 3, 2, 1]]))
        target = counts.to_dense(normalized=True)[0, 0]
        params = vf.construct_top1(counts, epsilon=1e-3)
        probs = linalg.softmax_rows(md.logits(params))
        assert abs(probs[0, 0] - target) < 1e-3

    def test_head_is_width_two_and_rank_two(self):
        rng = np.random.default_rng(7)
        counts = cp.CountMatrix.from_counts(rng.integers(0, 4, size=(10, 9)) + 1)
        params = vf.construct_top1(counts, epsilon=1e-3)
        assert params.head.w.shape == (9, 2)
        assert linalg.qr_rank(params.head.w) == 2

    def test_small_battery_clean(self):
        res = vf.verify_top1_reachability(instances=8, seed=11)
        assert res.passed
        assert res.worst_margin > 0.0


class TestErrorRankFloor:
    def test_all_tokens_unique_gives_near_full_rank(self):
        rng = np.random.default_rng(13)
        v = 8
        n = np.diag(rng.integers(1, 5, size=v))
        counts = cp.CountMatrix.from_counts(n)
        p = rng.uniform(0.05, 1.0, size=(v, v))
        p /= p.sum(axis=1, keepdims=True)
        assert linalg.qr_rank(p - counts.to_dense(normalized=True)) >= v - 1

    def test_single_unique_token(self):
        rng = np.random.default_rng(17)
        n = np.array([[4, 0, 0], [1, 2, 1]])
        counts = cp.CountMatrix.from_counts(n)
        p = rng.uniform(0.1, 1.0, size=(2, 3))
        p /= p.sum(axis=1, keepdims=True)
        assert linalg.qr_rank(p - counts.to_dense(normalized=True)) >= 1

    def test_small_battery_clean_with_positive_submatrix_margin(self):
        res = vf.verify_error_rank_floor(instances=60, seed=19)
        assert res.passed
        for det in res.details:
            assert det["rank_svd"] >= det["bound"]
            if det["unique_tokens"] < det["V"]:
                assert det["submatrix_sigma_min"] > 0


class TestBatchRankFloor:
    def test_hand_built_two_context_instance(self):
        # contexts 0 and 1 each continue two ways in the data but one way in
        # the batch; their batch tokens 2 and 3 cross-connect through the data
        corpus = cp.Corpus(4, [[0, 2], [0, 3], [1, 3], [1, 2]])
        table, counts = cp.build_counts(corpus, 1)
        batch = cp.batch_counts(table, [0, 2])
        rows, tokens = vf.unique_batch_contexts(counts, batch)
        assert rows.size == 2
        assert sorted(tokens.tolist()) == [2, 3]
        delta = 1e-3
        p = (1 - delta) * counts.to_dense(normalized=True) + delta / 4
        diff = p[batch.row_ids] - batch.to_dense(normalized=True)
        sub = diff[[list(batch.row_ids).index(r) for r in rows]][:, tokens]
        # 2x2 minor is nonsingular by direct determinant
        det = sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
        assert abs(det) > 1e-4
        assert linalg.qr_rank(diff) >= 2

    def test_whole_dataset_batch_has_no_qualifying_context(self):
        corpus = cp.gen_zipf_bigram(12, 1.0, 10, 8, seed=23)
        table, counts = cp.build_counts(corpus, 1)
        batch = cp.batch_counts(table, range(10))
        rows, _ = vf.unique_batch_contexts(counts, batch)
        # unique-in-batch implies unique-in-data when the batch is everything
        assert rows.size == 0

    def test_single_corpus_run_reports_epsilon(self):
        corpus = cp.gen_zipf_bigram(32, 0.9, 24, 9, seed=101)
        row = vf.verify_batch_rank_floor(corpus, seed=3)
        if row is not None:
            assert row["held_at_assert_delta"] in (0, 1)
            assert row["max_inf_error"] <= 1e-3

    def test_small_suite_clean(self):
        res = vf.batch_rank_floor_suite(instances=10, seed=29)
        assert res.passed
        assert res.instances_tested == 10
        for det in res.details:
            assert det["largest_held_delta"] is not None


class TestUpdateResidualGap:
    def test_strict_gap_on_planted_instance(self):
        rng = np.random.default_rng(31)
        v = 16
        n = np.diag(rng.integers(1, 5, size=v))
        counts = cp.CountMatrix.from_counts(n)
        d = 1
        params = md.init_params(v, v, d, rng=rng)
        delta = md.first_order_logit_update(counts, params)
        assert linalg.qr_rank(delta, 1e-8) <= 2 * d
        raw = linalg.softmax_rows(md.logits(params)) - counts.to_dense(normalized=True)
        for residual in (raw, counts.weights[:, None] * raw):
            gap = linalg.best_rank_k_residual(residual, 2 * d)
            assert gap > 0
            assert np.linalg.norm(delta - residual) > gap

    def test_small_battery_clean(self):
        res = vf.verify_update_residual_gap(instances=40, seed=37)
        assert res.passed
        # the rank cap may bind exactly, but the residual excess is strict
        assert min(d["excess_raw"] for d in res.details) > 0
        assert min(d["excess_weighted"] for d in res.details) > 0


class TestResultPlumbing:
    def test_deterministic_given_seed(self):
        a = vf.verify_error_rank_floor(instances=25, seed=41)
        b = vf.verify_error_rank_floor(instances=25, seed=41)
        assert a.to_json_dict() == b.to_json_dict()
        assert a.details == b.details

    def test_seed_changes_details_not_outcome(self):
        a = vf.verify_loss_floor(instances=60, seed=1)
        b = vf.verify_loss_floor(instances=60, seed=2)
        assert a.passed and b.passed
        assert a.details != b.details

    def test_one_verifier_signature(self):
        for check_id, check in vf.CHECKS.items():
            names = list(inspect.signature(check).parameters)
            assert names in (["instances", "seed"], ["instances", "seed", "rank_tol"]), check_id

    def test_writers(self, tmp_path):
        res = vf.verify_logit_rank_caps(instances=10, seed=43)
        res.write_json(tmp_path / "res.json")
        res.write_instances_csv(tmp_path / "res.csv")
        import json

        payload = json.loads((tmp_path / "res.json").read_text())
        assert payload["proposition"] == "logit_rank_caps"
        assert payload["violations"] == 0
        lines = (tmp_path / "res.csv").read_text().splitlines()
        assert lines[0].startswith("instance,")
        assert len(lines) == 11

    @pytest.mark.parametrize("check_id", list(vf.CHECKS))
    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_refused_before_any_draw(self, check_id, count, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(vf.np.random, "default_rng", no_draw)
        monkeypatch.setattr(vf, "gen_zipf_bigram", no_draw)
        with pytest.raises(ValueError, match="^instances must be positive$"):
            vf.CHECKS[check_id](instances=count)
