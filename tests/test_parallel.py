"""The CPU budget, the kernel thread pool, and both under fork."""

import multiprocessing
import threading

import numpy as np
import pytest

from headlab import corpus as cp
from headlab import model as md
from headlab import parallel

TIMEOUT_S = 60


def _job(i, barrier=None):
    if barrier is not None:
        barrier.wait(TIMEOUT_S)  # passes only with both jobs running at once
    return i * i, threading.get_ident()


class TestMapThreads:
    def test_jobs_run_on_threads_in_job_order(self, two_cpus):
        barrier = threading.Barrier(2)
        results = parallel.map_threads(_job, [(3, barrier), (4, barrier)])
        assert [value for value, _ in results] == [9, 16]
        assert threading.get_ident() not in {ident for _, ident in results}

    @pytest.mark.parametrize("budget, jobs", [(1, 3), (2, 1), (2, 0), (4, 1)])
    def test_runs_inline_at_budget_or_job_count_one(self, budget, jobs, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_budget", lambda: budget)
        results = parallel.map_threads(_job, [(i,) for i in range(jobs)])
        assert results == [(i * i, threading.get_ident()) for i in range(jobs)]

    def test_exception_reaches_caller_unchanged_after_every_job(self, two_cpus):
        error = ValueError("a shard failed on purpose")
        done = []

        def job(i):
            if i == 0:
                raise error
            threading.Event().wait(0.2)
            done.append(i)

        with pytest.raises(ValueError) as raised:
            parallel.map_threads(job, [(0,), (1,), (2,)])
        assert raised.value is error
        assert sorted(done) == [1, 2]


def _child_state(queue):
    # a forked child with an inherited executor would hang on its first job
    had_executor = parallel._executor is not None
    queue.put((had_executor, parallel.map_threads(_job, [(5,), (6,)])[1][0]))


def _budget_and_threads(shared, i):
    results = parallel.map_threads(_job, [(i,), (i + 1,)])
    return parallel.cpu_budget(), {ident for _, ident in results} == {threading.get_ident()}


class TestFork:
    def test_forked_child_drops_the_executor(self, two_cpus):
        parallel.map_threads(_job, [(1,), (2,)])
        assert parallel._executor is not None
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_child_state, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=TIMEOUT_S) == (False, 36)
        finally:
            child.join(TIMEOUT_S)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0

    def test_pool_workers_have_budget_one_and_start_no_threads(self, two_cpus):
        parallel.map_threads(_job, [(1,), (2,)])
        results = parallel._map_cells(_budget_and_threads, None, [(i,) for i in range(4)])
        assert results == [(1, True)] * 4
        assert parallel.cpu_budget() == 2


def test_diverging_run_raises_at_the_same_step_on_threads(monkeypatch):
    """Four blocks in two shards; the loss and max |logit| the error carries
    are equal too."""
    rng = np.random.default_rng(16)
    counts = cp.CountMatrix.from_counts(rng.integers(0, 3, size=(24, 5)) + 1)
    monkeypatch.setattr(md, "BLOCK_BYTES", 6 * 8 * 5)
    cfg = md.TrainConfig(steps=200, lr=1e6, width=3, optimizer="gd", eval_every=50, seed=0)
    errors = []
    for budget in (1, 2):
        monkeypatch.setattr(parallel, "cpu_budget", lambda: budget)
        with pytest.raises(md.TrainingDivergedError) as raised:
            md.train(counts, cfg)
        errors.append(raised.value)
    assert errors[0].step == errors[1].step
    assert str(errors[0]) == str(errors[1])
