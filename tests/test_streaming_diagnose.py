"""`diagnose` in row blocks: its accumulators against one block, its figures
against the dense C x V reference, the branches of its Eckart-Young gap and
a memory bound that a dense C x V matrix would break."""

import csv
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from headlab import cli, linalg, parallel
from headlab import corpus as cp
from headlab import diagnostics as dg
from headlab import model as md
from reference import diagnose_dense, logit_state

PROPERTY_SETTINGS = settings(settings.get_profile("deterministic"), max_examples=150)

CORPUS = {"vocab_size": 96, "num_seqs": 64, "seq_len": 30, "seed": 12}
TOKEN_COUNTS = [1, 8, 64, 256]
FRACTIONS = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]


def close(got, want, rtol=1e-12):
    """`got` equals `want` to `rtol` of the norm of `want`."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want), (got, want)


def corpus_args(spec, max_context_len=1):
    args = ["--corpus.kind", "zipf", "--max_context_len", str(max_context_len)]
    for key, value in spec.items():
        args += [f"--corpus.{key}", str(value)]
    return args


def counted(spec, max_context_len=1):
    corpus = cp.gen_zipf_bigram(spec["vocab_size"], 1.2, spec["num_seqs"], spec["seq_len"],
                                spec["seed"])
    return cp.build_counts(corpus, max_context_len)[1]


def diagnose(root, name, checkpoint, spec=CORPUS, max_context_len=1,
             token_counts=TOKEN_COUNTS):
    """Exit code of one `diagnose` run and its directory."""
    code = cli.main(["diagnose", "--out", str(root), "--name", name,
                     "--checkpoint", str(checkpoint), "--token_counts", json.dumps(token_counts),
                     *corpus_args(spec, max_context_len)])
    return code, root / name


def table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=np.float64)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A width-6 checkpoint trained for 80 steps on CORPUS (V = 96)."""
    root = tmp_path_factory.mktemp("streaming")
    assert cli.main(["train", "--out", str(root), "--width", "6", "--steps", "80",
                     "--lr", "0.02", "--eval_every", "40", *corpus_args(CORPUS)]) == 0
    return root, root / "train" / "checkpoint.bin"


def block_bytes(rows, vocab_size=CORPUS["vocab_size"]):
    return 8 * vocab_size * rows


@st.composite
def blocked_gradients(draw):
    """(g, head, cuts): a gradient with some zero rows, a full,
    rank-deficient or full-rank square head, and the row offsets that cut g
    into blocks, 1-row blocks included."""
    kind = draw(st.sampled_from(["full", "deficient", "square"]))
    d = draw(st.integers(1, 5))
    v = d if kind == "square" else draw(st.integers(d + 1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(size=(v, d))
    if kind == "deficient":
        w[:, 0] = 0.0
    c = draw(st.integers(1, 24))
    g = rng.normal(size=(c, v)) * 10.0 ** draw(st.integers(-3, 3))
    g[draw(st.lists(st.integers(0, c - 1), max_size=c // 2))] = 0.0
    cuts = [0, *sorted(draw(st.sets(st.integers(1, c - 1), max_size=c - 1)) if c > 1 else []), c]
    return g, md.FullHead(w), cuts


@PROPERTY_SETTINGS
@given(blocked_gradients())
def test_blocks_added_in_row_order_equal_one_block(case):
    """Blocks added in row order, as `gradient_pass` walks them, equal one
    block."""
    g, head, cuts = case
    basis = linalg.range_basis(head.matrix)
    split, moments = dg._KernelSplit(basis), dg._ProfileMoments(g.shape[1])
    for lo, hi in zip(cuts, cuts[1:]):
        moments.add(g[lo:hi], split.add(g[lo:hi]))
    one_split, one_moments = dg._KernelSplit(basis), dg._ProfileMoments(g.shape[1])
    one_moments.add(g, one_split.add(g))
    close(split.grad_sq, one_split.grad_sq)
    close(split.lost_sq, one_split.lost_sq)
    blocked, one = split.report(), one_split.report()
    assert blocked.zero_gradient == one.zero_gradient
    for name in ("lost_fraction", "cosine_mean", "cosine_std", "per_row_lost"):
        close(getattr(blocked, name), getattr(one, name))
    blocked, one = moments.profile(), one_moments.profile()
    for name in ("full_mean", "full_std", "proj_mean", "proj_std"):
        close(getattr(blocked, name), getattr(one, name))


class TestBlockwiseMatchesDense:
    @pytest.mark.parametrize("rows", [1, 7, 10**6], ids=["one-row", "uneven", "single"])
    def test_every_figure(self, rows, trained, monkeypatch):
        root, checkpoint = trained
        counts = counted(CORPUS)
        assert counts.num_contexts % 7 != 0 and counts.num_contexts < 10**6
        monkeypatch.setattr(md, "BLOCK_BYTES", block_bytes(rows))
        code, run_dir = diagnose(root, f"rows{rows}", checkpoint)
        assert code == 0
        want = diagnose_dense(counts, md.load_checkpoint(checkpoint), TOKEN_COUNTS, FRACTIONS,
                              seed=0)
        got = table(run_dir / "compression.csv")[0]
        for value, reference in zip(got[:4], want["compression"]):
            close(value, reference)
        assert got[4] == 0.0
        close(table(run_dir / "per_row_lost.csv")[:, 1], want["per_row_lost"])
        profile = table(run_dir / "coefficient_profile.csv")
        for column, reference in zip(profile.T[1:], want["coefficient_profile"]):
            close(column, reference)
        efficiency = table(run_dir / "efficiency.csv")
        close(efficiency[:, 0], FRACTIONS)
        for column, reference in zip(efficiency.T[1:], want["efficiency"]):
            close(column, reference)
        assert [tuple(row) for row in table(run_dir / "rank_curve.csv")] == want["rank_curve"]

    def test_rank_v_loses_exactly_nothing(self, monkeypatch):
        counts = counted(CORPUS)
        v = counts.vocab_size
        params = md.init_params(counts.num_contexts, v, v, seed=3)
        monkeypatch.setattr(md, "BLOCK_BYTES", block_bytes(1))
        report = dg.gradient_pass(counts, params).report
        assert report.lost_fraction == 0.0 and not report.per_row_lost.any()


class TestGap:
    def test_width_at_least_half_the_smaller_side_is_exactly_zero(self, tmp_path, monkeypatch):
        spec = {"vocab_size": 8, "num_seqs": 16, "seq_len": 10, "seed": 6}
        assert cli.main(["train", "--out", str(tmp_path), "--width", "4", "--steps", "20",
                         "--eval_every", "10", *corpus_args(spec)]) == 0

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh was called")

        monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
        code, run_dir = diagnose(tmp_path, "d", tmp_path / "train" / "checkpoint.bin", spec,
                                 token_counts=[1, 8])
        assert code == 0
        assert json.loads((run_dir / "summary.json").read_text())["eckart_young_gap"] == 0.0

    def test_width_zero_is_the_frobenius_norm(self, trained, monkeypatch):
        # a checkpoint has width >= 1, so k = 0 is taken on the Gram matrix
        # that gradient_gap forms
        counts = counted(CORPUS)
        params = md.load_checkpoint(trained[1])
        grams, real = [], linalg.gram_residual

        def spy(gram, *args):
            grams.append(gram.copy())
            return real(gram, *args)

        def no_matrix():
            raise AssertionError("the dense gradient was rebuilt")

        monkeypatch.setattr(linalg, "gram_residual", spy)
        dg.gradient_gap(counts, params)
        gap = real(grams[0], 0, min(counts.shape), no_matrix)
        close(gap, dg.gradient_pass(counts, params).grad_norm)

    def test_tail_below_the_floor_rebuilds_the_dense_gradient(self, trained, monkeypatch):
        root, checkpoint = trained
        rebuilt = []
        real = dg._dense_gradient

        def spy(*args):
            rebuilt.append(real(*args))
            return rebuilt[-1]

        monkeypatch.setattr(dg, "_dense_gradient", spy)
        monkeypatch.setattr(md, "BLOCK_BYTES", block_bytes(5))
        monkeypatch.setattr(linalg, "_GRAM_TAIL_FLOOR", 1.0)  # every tail is below it
        monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)  # the spy runs here
        code, run_dir = diagnose(root, "floor", checkpoint)
        assert code == 0
        counts = counted(CORPUS)
        params = md.load_checkpoint(checkpoint)
        g = logit_state(counts, params)[3]
        assert len(rebuilt) == 1
        close(rebuilt[0], g)
        s = np.linalg.svd(g, compute_uv=False)
        summary = json.loads((run_dir / "summary.json").read_text())
        close(summary["eckart_young_gap"], np.sqrt(np.sum(s[2 * params.width:] ** 2)))

    def test_over_the_limit_gram_matrix_refused_before_it_is_allocated(self, trained,
                                                                        monkeypatch):
        counts = counted(CORPUS)
        params = md.load_checkpoint(trained[1])

        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was allocated or a row block read")

        monkeypatch.setattr(cp, "MAX_DENSE_BYTES", 8 * 96 * 96 - 1)
        monkeypatch.setattr(np, "zeros", no_matrix)
        monkeypatch.setattr(md, "_row_blocks", no_matrix)
        with pytest.raises(cp.ContextOverflowError, match=r"^the Eckart-Young gap's Gram "
                           r"matrix \(tokens x tokens\): 96 x 96 exceed 73727 bytes"):
            dg.gradient_gap(counts, params)

    @pytest.mark.parametrize("limit", [1, 2])
    def test_eigh_failure_takes_the_singular_values_and_their_failure_exits_numeric(
        self, limit, trained, monkeypatch, capsys
    ):
        root, checkpoint = trained

        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
        monkeypatch.setattr(parallel, "cpu_budget", lambda: limit)
        code, run_dir = diagnose(root, f"eigh{limit}", checkpoint)
        assert code == 0
        params = md.load_checkpoint(checkpoint)
        g = logit_state(counted(CORPUS), params)[3]
        s = np.linalg.svd(g, compute_uv=False)
        summary = json.loads((run_dir / "summary.json").read_text())
        close(summary["eckart_young_gap"], np.sqrt(np.sum(s[2 * params.width:] ** 2)))

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        code, _ = diagnose(root, f"svd{limit}", checkpoint)
        assert code == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err


def test_passes_start_no_thread(trained, monkeypatch):
    """At budget 2, with several row blocks, `diagnose`'s three walks of the
    blocks run in the calling thread."""
    def no_threads(*args, **kwargs):
        raise AssertionError("a diagnose pass started threads")

    monkeypatch.setattr(parallel, "cpu_budget", lambda: 2)
    monkeypatch.setattr(parallel, "map_threads", no_threads)
    monkeypatch.setattr(md, "map_threads", no_threads)
    monkeypatch.setattr(md, "BLOCK_BYTES", block_bytes(7))
    counts, params = counted(CORPUS), md.load_checkpoint(trained[1])
    assert len(md._block_starts(counts)) > md.SHARDS
    first = dg.gradient_pass(counts, params)
    dg.update_efficiency(counts, params, first, FRACTIONS)
    dg.gradient_gap(counts, params)


def test_files_are_bit_identical_at_budgets_one_and_two(trained, two_cpus, monkeypatch,
                                                       tmp_path):
    """The fork pool at budget 2, with several row blocks, writes the bytes
    of the serial run at budget 1."""
    monkeypatch.setattr(md, "BLOCK_BYTES", block_bytes(7))
    trees = []
    for budget in (2, 1):
        if budget == 1:
            monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
        code, run_dir = diagnose(tmp_path / f"budget{budget}", "d", trained[1])
        assert code == 0
        trees.append({path.relative_to(run_dir): path.read_bytes()
                      for path in sorted(run_dir.rglob("*")) if path.is_file()})
    assert len(trees[0]) == 10
    assert trees[0] == trees[1]


def test_peak_memory_stays_below_one_dense_matrix(tmp_path, monkeypatch):
    """C >> V (two tokens of context), blocks of three rows and no pool: the
    traced peak of a whole `diagnose` run stays under one C x V float64
    matrix, which the dense path formed about ten times over."""
    spec = {"vocab_size": 256, "num_seqs": 80, "seq_len": 100, "seed": 0}
    counts = counted(spec, max_context_len=2)
    dense_bytes = counts.num_contexts * counts.vocab_size * 8
    assert counts.num_contexts > 16 * counts.vocab_size
    md.save_checkpoint(tmp_path / "checkpoint.bin",
                       md.init_params(counts.num_contexts, counts.vocab_size, 4, seed=1))
    monkeypatch.setattr(md, "BLOCK_BYTES", block_bytes(3, counts.vocab_size))
    monkeypatch.setattr(parallel, "cpu_budget", lambda: 1)
    tracemalloc.start()
    try:
        code, _ = diagnose(tmp_path, "d", tmp_path / "checkpoint.bin", spec,
                           max_context_len=2, token_counts=[1, 16])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < dense_bytes, (peak, dense_bytes)
