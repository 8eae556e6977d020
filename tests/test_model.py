import math
import pickle

import numpy as np
import pytest

from headlab import corpus as cp
from headlab import model as md
from reference import exact_logit_update, logit_gradient


def random_counts(rng, c, v, interior=False):
    if interior:
        n = rng.integers(1, 9, size=(c, v))
    else:
        n = rng.integers(0, 5, size=(c, v))
        for i in np.flatnonzero(n.sum(axis=1) == 0):
            n[i, rng.integers(v)] = 1
    return cp.CountMatrix.from_counts(n)


def scalar_loss_oracle(counts, logit_matrix):
    """Per-occurrence python-loop reference: average negative log-probability."""
    total = 0.0
    n = counts.to_dense()
    c, v = n.shape
    for i in range(c):
        row = logit_matrix[i]
        mx = max(row)
        z = sum(math.exp(x - mx) for x in row)
        for j in range(v):
            reps = int(n[i, j])
            if reps:
                total += reps * -(row[j] - mx - math.log(z))
    return total / counts.total


def fd_gradient(fun, x, h=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fun()
        x[idx] = orig - h
        fm = fun()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


def matched_params(counts):
    """Width-V parameters whose probabilities equal the normalized counts
    (requires interior counts)."""
    v = counts.vocab_size
    h = np.log(counts.to_dense(normalized=True))
    return md.ModelParams(h, md.FullHead(np.eye(v)))


class TestLogits:
    def test_zero_representations(self):
        params = md.ModelParams(np.zeros((3, 2)), md.FullHead(np.ones((4, 2))))
        assert np.all(md.logits(params) == 0)

    def test_factored_equals_collapsed_full(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 4))
        a = rng.normal(size=(7, 2))
        b = rng.normal(size=(2, 4))
        lf = md.logits(md.ModelParams(h, md.FactoredHead(a, b)))
        lc = md.logits(md.ModelParams(h, md.FullHead(a @ b)))
        assert np.abs(lf - lc).max() < 1e-12

    def test_entrywise_dot_product_oracle(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))
        got = md.logits(md.ModelParams(h, md.FullHead(w)))
        want = np.array([[sum(h[i, k] * w[j, k] for k in range(3)) for j in range(5)] for i in range(4)])
        assert np.abs(got - want).max() < 1e-12

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            md.ModelParams(np.zeros((2, 3)), md.FullHead(np.zeros((4, 2))))


class TestInitParamsSizeGuard:
    """The C x D rows and the V x D head are refused, naming their sizes,
    before any of them is drawn."""

    class NoDraw:
        def normal(self, *args, **kwargs):
            raise AssertionError("a matrix was drawn")

    @pytest.fixture(autouse=True)
    def tiny_limit(self, monkeypatch):
        monkeypatch.setattr(cp, "MAX_DENSE_BYTES", 4 * 4 * 8)

    def test_at_the_limit_draws(self):
        params = md.init_params(4, 4, 4, head_rank=2, seed=0)
        assert params.h.shape == (4, 4) and params.head.matrix.shape == (4, 4)

    @pytest.mark.parametrize("sizes, head_rank, what, shape", [
        ((5, 4, 4), None, "context rows", "5 x 4"),
        ((4, 5, 4), None, "head", "5 x 4"),
        ((4, 5, 4), 2, "head", "5 x 4"),
        ((4, 4, 5), None, "context rows", "4 x 5"),
    ])
    def test_over_the_limit_refused_before_any_draw(self, sizes, head_rank, what, shape):
        with pytest.raises(cp.ContextOverflowError,
                           match=rf"^the model's {what} \(.*\): {shape} exceed 128 bytes"):
            md.init_params(*sizes, head_rank=head_rank, rng=self.NoDraw())


class TestLoss:
    def test_matched_interior_model_hits_floor(self):
        rng = np.random.default_rng(2)
        counts = random_counts(rng, 4, 5, interior=True)
        lm = md.smoothed_log_target(counts)
        assert abs(md.loss_from_logits(counts, lm) - md.entropy_floor(counts)) < 1e-10

    def test_huge_margin_drives_loss_to_zero(self):
        counts = cp.CountMatrix.from_counts(np.array([[1, 0, 0]]))
        lm = np.array([[50.0, 0.0, 0.0]])
        assert md.loss_from_logits(counts, lm) < 1e-20

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        counts = random_counts(rng, 3, 4)
        lm = rng.normal(size=(3, 4)) * 2
        assert abs(md.loss_from_logits(counts, lm) - scalar_loss_oracle(counts, lm)) < 1e-12

    def test_zero_counts_do_not_contribute(self):
        counts = cp.CountMatrix.from_counts(np.array([[2, 0], [0, 3]]))
        lm = np.array([[0.0, -700.0], [-700.0, 0.0]])
        # the -700 logits sit under zero counts; loss is the observed-cell part
        assert md.loss_from_logits(counts, lm) < 1e-12


class TestLogitGradient:
    def test_matched_probs_give_zero(self):
        rng = np.random.default_rng(4)
        counts = random_counts(rng, 5, 6)
        g = logit_gradient(counts, counts.to_dense(normalized=True).copy())
        assert np.abs(g).max() == 0.0

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        counts = random_counts(rng, 6, 7)
        p = rng.uniform(0.1, 1.0, size=(6, 7))
        p /= p.sum(axis=1, keepdims=True)
        g = logit_gradient(counts, p)
        assert np.abs(g.sum(axis=1)).max() < 1e-12

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(6)
        counts = random_counts(rng, 6, 9)
        lm = rng.normal(size=(6, 9))
        p, _ = md.probs_and_loss(counts, lm)
        analytic = logit_gradient(counts, p)
        fd = fd_gradient(lambda: md.loss_from_logits(counts, lm), lm)
        assert rel_err(analytic, fd) < 1e-5


class TestParamGradients:
    def test_zero_at_matched_model(self):
        rng = np.random.default_rng(7)
        counts = random_counts(rng, 4, 5, interior=True)
        grads = md.param_gradients(counts, matched_params(counts))
        assert np.abs(grads["h"]).max() < 1e-14
        assert np.abs(grads["w"]).max() < 1e-14

    @pytest.mark.parametrize("head_rank", [None, 2])
    def test_finite_difference_oracle(self, head_rank):
        rng = np.random.default_rng(8)
        counts = random_counts(rng, 5, 8)
        params = md.init_params(5, 8, 3, head_rank=head_rank, rng=rng)
        grads = md.param_gradients(counts, params)
        assert rel_err(grads["h"], fd_gradient(lambda: md.loss(counts, params), params.h)) < 1e-5
        if head_rank is None:
            fd = fd_gradient(lambda: md.loss(counts, params), params.head.w)
            assert rel_err(grads["w"], fd) < 1e-5
        else:
            fa = fd_gradient(lambda: md.loss(counts, params), params.head.a)
            fb = fd_gradient(lambda: md.loss(counts, params), params.head.b)
            assert rel_err(grads["a"], fa) < 1e-5
            assert rel_err(grads["b"], fb) < 1e-5

    def test_h_gradient_rank_bounded_by_head_rank(self):
        # the representation gradient factors through the head, so its rank
        # is capped by the head's rank whatever the head's form
        from headlab.linalg import qr_rank

        rng = np.random.default_rng(9)
        counts = random_counts(rng, 12, 10)
        params = md.init_params(12, 10, 3, rng=rng)
        grads = md.param_gradients(counts, params)
        assert qr_rank(grads["h"]) <= qr_rank(params.head.w)
        factored = md.init_params(12, 10, 5, head_rank=2, rng=rng)
        grads = md.param_gradients(counts, factored)
        assert qr_rank(grads["h"]) <= 2


class TestTrain:
    def test_zero_lr_keeps_params_and_flat_trajectory(self):
        rng = np.random.default_rng(10)
        counts = random_counts(rng, 5, 6)
        cfg = md.TrainConfig(steps=20, lr=0.0, width=3, optimizer="gd", eval_every=5, seed=0)
        before = md.init_params(5, 6, 3, seed=0)
        result = md.train(counts, cfg)
        assert np.array_equal(result.params.h, before.h)
        losses = {p.train_loss for p in result.trajectory.points}
        assert len(losses) == 1

    def test_plain_gd_reaches_entropy_floor(self):
        counts = cp.CountMatrix.from_counts(np.array([[2, 1, 0], [0, 1, 3]]))
        cfg = md.TrainConfig(steps=5000, lr=0.5, width=3, optimizer="gd", eval_every=1000, seed=0)
        result = md.train(counts, cfg)
        assert result.trajectory.final_train_loss - md.entropy_floor(counts) < 1e-3

    def test_whole_corpus_batches_reproduce_full_batch_exactly(self):
        corpus = cp.gen_zipf_bigram(6, 1.2, 8, 9, seed=12)
        table, counts = cp.build_counts(corpus, 2)
        full_cfg = md.TrainConfig(steps=40, lr=0.05, width=3, optimizer="adam", eval_every=10, seed=4)
        sgd_cfg = md.TrainConfig(
            steps=40, lr=0.05, width=3, optimizer="adam", eval_every=10, seed=4, batch_sequences=8
        )
        full = md.train(counts, full_cfg)
        sgd = md.train(counts, sgd_cfg, table=table)
        assert np.array_equal(full.params.h, sgd.params.h)
        assert np.array_equal(full.params.head.w, sgd.params.head.w)
        assert [p.train_loss for p in full.trajectory.points] == [
            p.train_loss for p in sgd.trajectory.points
        ]

    def test_sgd_leaves_out_of_batch_rows_untouched(self):
        corpus = cp.gen_spamlang(6, 10, 8, seed=13)
        table, counts = cp.build_counts(corpus, 1)
        cfg = md.TrainConfig(
            steps=1, lr=0.1, width=3, optimizer="gd", eval_every=1, seed=7, batch_sequences=2
        )
        init = md.init_params(counts.num_contexts, 6, 3, seed=99)
        result = md.train(counts, cfg, params=init, table=table)
        # params were supplied, so the config rng's first draw is the epoch order
        batch = np.random.default_rng(7).permutation(10)[:2]
        batch_rows = cp.batch_counts(table, batch).row_ids
        moved = np.abs(result.params.h - init.h).max(axis=1)
        untouched = np.setdiff1d(np.arange(counts.num_contexts), batch_rows)
        assert np.all(moved[untouched] == 0)
        assert np.all(moved[batch_rows] > 0)

    def test_batches_without_a_table_are_refused_before_any_step(self, monkeypatch):
        _, counts = cp.build_counts(cp.gen_spamlang(6, 10, 8, seed=13), 1)
        cfg = md.TrainConfig(steps=3, lr=0.1, width=3, batch_sequences=2)

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(md, "_grad_pass", no_step)
        monkeypatch.setattr(md, "_eval_pass", no_step)
        with pytest.raises(ValueError, match="ContextTable"):
            md.train(counts, cfg)

    def test_table_of_other_contexts_is_refused(self):
        corpus = cp.gen_zipf_bigram(6, 1.2, 8, 9, seed=12)
        table, _ = cp.build_counts(corpus, 1)
        _, counts = cp.build_counts(corpus, 2)
        assert len(table) != counts.num_contexts
        for batch_sequences in (None, 4):
            cfg = md.TrainConfig(steps=3, lr=0.1, width=3, batch_sequences=batch_sequences)
            with pytest.raises(ValueError, match="contexts"):
                md.train(counts, cfg, table=table)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(14)
        counts = random_counts(rng, 6, 5)
        for opt in ("gd", "adam"):
            cfg = md.TrainConfig(steps=30, lr=0.05, width=3, optimizer=opt, eval_every=10, seed=3)
            a = md.train(counts, cfg)
            b = md.train(counts, cfg)
            assert np.array_equal(a.params.h, b.params.h)
            assert np.array_equal(a.params.head.w, b.params.head.w)

    def test_single_gd_step_matches_update_rule(self):
        rng = np.random.default_rng(15)
        counts = random_counts(rng, 5, 7)
        lr = 0.3
        init = md.init_params(5, 7, 3, seed=11)
        p, _ = md.probs_and_loss(counts, md.logits(init))
        expected_w = init.head.w - lr * (p - counts.to_dense(normalized=True)).T @ (
            counts.weights[:, None] * init.h
        )
        cfg = md.TrainConfig(steps=1, lr=lr, width=3, optimizer="gd", eval_every=1, seed=11)
        result = md.train(counts, cfg)
        assert np.abs(result.params.head.w - expected_w).max() < 1e-12

    def test_divergence_raises_with_diagnostics(self):
        rng = np.random.default_rng(16)
        counts = random_counts(rng, 4, 5)
        cfg = md.TrainConfig(steps=200, lr=1e6, width=3, optimizer="gd", eval_every=50, seed=0)
        with pytest.raises(md.TrainingDivergedError) as exc:
            md.train(counts, cfg)
        assert exc.value.step >= 0
        assert not np.isfinite(exc.value.loss_value) or exc.value.max_abs_logit > 0
        # it crosses a sweep worker's process boundary intact
        back = pickle.loads(pickle.dumps(exc.value))
        assert (type(back), str(back), back.step) == (type(exc.value), str(exc.value), exc.value.step)

    @pytest.mark.parametrize("optimizer, lr", [("gd", 1e6), ("adam", 1e300)])
    @pytest.mark.parametrize("head_rank", [None, 2])
    def test_divergence_pays_for_no_loss_pass(self, optimizer, lr, head_rank, monkeypatch):
        """A non-finite row max makes the step's loss NaN, so the divergence
        reports NaN and makes no eval pass beyond its eval points'."""
        calls = []
        real = md._eval_pass

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(md, "_eval_pass", spy)
        counts = random_counts(np.random.default_rng(16), 4, 5)
        cfg = md.TrainConfig(steps=200, lr=lr, width=3, optimizer=optimizer, eval_every=1,
                             seed=0, head_rank=head_rank)
        with pytest.raises(md.TrainingDivergedError) as exc:
            md.train(counts, cfg)
        # one eval point at step 0 and one after each finished step
        assert len(calls) == exc.value.step + 1
        assert math.isnan(exc.value.loss_value)
        assert "loss=nan" in str(exc.value)

    def test_snapshots_and_cosine_schedule(self):
        rng = np.random.default_rng(17)
        counts = random_counts(rng, 5, 6)
        cfg = md.TrainConfig(
            steps=30, lr=0.05, width=3, schedule="cosine", warmup_steps=5, eval_every=10, seed=1
        )
        result = md.train(counts, cfg, snapshot_steps=[10, 30])
        assert [s for s, _ in result.snapshots] == [10, 30]
        steps = [p.step for p in result.trajectory.points]
        assert steps == sorted(set(steps))

    @pytest.mark.parametrize("wanted", [[20], [-1], [0, 10, 11]])
    def test_snapshot_steps_outside_the_run_refused_before_step_zero(self, wanted, monkeypatch):
        counts = random_counts(np.random.default_rng(18), 4, 5)

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass over the logits ran")

        monkeypatch.setattr(md, "_grad_pass", no_pass)
        monkeypatch.setattr(md, "_eval_pass", no_pass)
        with pytest.raises(ValueError, match=r"snapshot_steps must lie in \[0, steps\]"):
            md.train(counts, md.TrainConfig(steps=10, lr=0.1, width=2),
                     snapshot_steps=wanted)

    def test_negative_warmup_refused(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            md.TrainConfig(steps=10, lr=0.1, width=2, schedule="cosine", warmup_steps=-5)

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("head_rank", [None, 1], ids=["full", "factored"])
    def test_one_owner_of_the_parameter_layout(self, head_rank, optimizer, tmp_path):
        """The gradients, Adam's moments and the checkpoint's matrices follow
        `params.parts` in its keys and order, and a step moves every part."""
        counts = random_counts(np.random.default_rng(18), 4, 5)
        cfg = md.TrainConfig(steps=5, lr=0.1, width=2, head_rank=head_rank,
                             optimizer=optimizer, eval_every=5, seed=2)
        init = md.init_params(4, 5, 2, head_rank, seed=2)
        params = md.train(counts, cfg).params
        names = ["h", "w"] if head_rank is None else ["h", "a", "b"]
        assert list(params.parts) == names
        assert list(md.param_gradients(counts, params)) == names
        optimizer_state = md._Optimizer(cfg, params)
        moments = names if optimizer == "adam" else []
        assert list(optimizer_state.m) == list(optimizer_state.v) == moments
        md.save_checkpoint(tmp_path / "checkpoint.bin", params)
        loaded = md.load_checkpoint(tmp_path / "checkpoint.bin").parts
        assert list(loaded) == names
        for name, before in init.parts.items():
            assert np.array_equal(loaded[name], params.parts[name]), name
            assert not np.array_equal(params.parts[name], before), name

    def test_first_adam_step_of_a_factored_head(self):
        """Bias correction makes Adam's first step -lr * g / (|g| + eps)."""
        rng = np.random.default_rng(21)
        counts = random_counts(rng, 5, 6)
        lr = 0.1
        cfg = md.TrainConfig(steps=1, lr=lr, width=3, head_rank=2, optimizer="adam", seed=5)
        init = md.init_params(5, 6, 3, 2, seed=5)
        grads = md.param_gradients(counts, init)
        result = md.train(counts, cfg)
        after = result.params.parts
        for name, before in init.parts.items():
            g = grads[name]
            assert rel_err(after[name] - before, -lr * g / (np.abs(g) + md.ADAM_EPS)) < 1e-12


class TestFirstOrderLogitUpdate:
    def test_rank_bounded_by_twice_width(self):
        from headlab.linalg import qr_rank

        rng = np.random.default_rng(19)
        for d in (1, 2, 3):
            counts = random_counts(rng, 10, 2 * d + 5)
            params = md.init_params(10, 2 * d + 5, d, rng=rng)
            delta = md.first_order_logit_update(counts, params)
            assert qr_rank(delta, 1e-8) <= 2 * d

    def test_exact_update_converges_at_first_order(self):
        rng = np.random.default_rng(20)
        counts = random_counts(rng, 6, 7)
        params = md.init_params(6, 7, 3, rng=rng)
        analytic = md.first_order_logit_update(counts, params)
        gaps = [
            np.linalg.norm(exact_logit_update(counts, params, eta) - analytic)
            for eta in (1e-3, 1e-4, 1e-5)
        ]
        # the gap is exactly eta * ||grad_H grad_W^T||_F, so successive ratios are 10
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=1e-3)
        assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=1e-2)

    def test_factored_head_first_order(self):
        rng = np.random.default_rng(22)
        counts = random_counts(rng, 5, 8)
        params = md.init_params(5, 8, 4, head_rank=2, rng=rng)
        analytic = md.first_order_logit_update(counts, params)
        eta = 1e-6
        exact = exact_logit_update(counts, params, eta)
        assert np.linalg.norm(exact - analytic) < 1e-4 * max(np.linalg.norm(analytic), 1e-12)


class TestTop1Accuracy:
    def test_matched_interior_model_is_perfect(self):
        rng = np.random.default_rng(23)
        counts = random_counts(rng, 5, 4, interior=True)
        acc = md.top1_accuracy(counts, matched_params(counts))
        assert acc.weighted == pytest.approx(1.0, abs=1e-12)
        assert acc.unweighted == 1.0

    def test_reversed_logits_score_zero(self):
        counts = cp.CountMatrix.from_counts(np.array([[5, 3, 2], [1, 6, 3]]))
        params = md.ModelParams(-np.log(counts.to_dense(normalized=True)), md.FullHead(np.eye(3)))
        acc = md.top1_accuracy(counts, params)
        assert acc.weighted == 0.0
        assert acc.unweighted == 0.0

    def test_argmax_ties_break_low(self):
        counts = cp.CountMatrix.from_counts(np.array([[2, 2, 1]]))
        params = md.ModelParams(np.zeros((1, 3)), md.FullHead(np.zeros((3, 3))))
        # both sides tie across all tokens; both argmaxes resolve to token 0
        acc = md.top1_accuracy(counts, params)
        assert acc.unweighted == 1.0


class TestCheckpoints:
    def test_full_head_round_trip(self, tmp_path):
        params = md.init_params(4, 6, 3, seed=31)
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(path, params)
        loaded = md.load_checkpoint(path)
        assert np.array_equal(loaded.h, params.h)
        assert np.array_equal(loaded.head.w, params.head.w)

    def test_factored_head_round_trip(self, tmp_path):
        params = md.init_params(3, 5, 4, head_rank=2, seed=32)
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(path, params)
        loaded = md.load_checkpoint(path)
        assert isinstance(loaded.head, md.FactoredHead)
        assert np.array_equal(loaded.head.a, params.head.a)
        assert np.array_equal(loaded.head.b, params.head.b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(path, md.init_params(2, 3, 2, seed=1))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(path, md.init_params(2, 3, 2, seed=1))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_bad_dimensions(self, tmp_path):
        import struct

        path = tmp_path / "ckpt.bin"
        path.write_bytes(md.CHECKPOINT_MAGIC + struct.pack("<4q", -1, 3, 2, 0))
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)


class TestTrajectoryCsv:
    def test_header_and_blank_optionals(self, tmp_path):
        traj = md.Trajectory(
            [md.TrajectoryPoint(0, 1.5), md.TrajectoryPoint(10, 0.75, val_loss=0.8, top1_acc=0.5)]
        )
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,train_loss,val_loss,top1_acc"
        assert lines[1] == "0,1.5,,"
        assert lines[2] == "10,0.75,0.8,0.5"


class TestGibbsFloorProperty:
    def test_thousand_random_params_never_beat_floor(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            counts = random_counts(rng, int(rng.integers(1, 8)), int(rng.integers(2, 9)))
            floor = md.entropy_floor(counts)
            for _ in range(50):
                params = md.init_params(
                    counts.num_contexts, counts.vocab_size, int(rng.integers(1, 5)), rng=rng
                )
                assert md.loss(counts, params) >= floor - 1e-10
