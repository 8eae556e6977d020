"""The CPU budget, the kernel thread pool, and both under fork."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from functools import partial

import numpy as np
import pytest

from headlab import cli, parallel
from headlab import corpus as cp
from headlab import model as md

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


def _with_pid(fn, i):
    return fn(i), os.getpid()


def _fail_after(seconds, message):
    threading.Event().wait(seconds)
    raise ValueError(message)


def _mark_after(seconds, path):
    threading.Event().wait(seconds)
    path.touch()


def _budget_and_threads(i):
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

    def test_jobs_closing_over_a_lambda_run_in_two_workers_in_job_order(self, two_cpus):
        square = lambda i: i * i  # noqa: E731 - a lambda cannot be pickled
        results = parallel._map_cells([partial(_with_pid, square, i) for i in range(5)])
        assert [value for value, _ in results] == [0, 1, 4, 9, 16]
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids and len(pids) <= 2

    @pytest.mark.parametrize("budget", [1, 2])
    def test_first_exception_in_job_order_after_every_job(self, budget, monkeypatch,
                                                          tmp_path):
        # in the pool job 0 fails last, job 1 at once, and job 2 leaves a
        # mark when done; in this process the jobs stop at job 0's failure
        monkeypatch.setattr(parallel, "cpu_budget", lambda: budget)
        jobs = [partial(_fail_after, 0.3, "job 0 failed"), partial(_fail_after, 0.0, "job 1"),
                partial(_mark_after, 0.3, tmp_path / "done")]
        with pytest.raises(ValueError, match="^job 0 failed$"):
            parallel._map_cells(jobs)
        assert (tmp_path / "done").exists() == (budget == 2)

    def test_pool_workers_have_budget_one_and_start_no_threads(self, two_cpus):
        parallel.map_threads(_job, [(1,), (2,)])
        results = parallel._map_cells([partial(_budget_and_threads, i) for i in range(4)])
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


# what the getters of numpy's and scipy's OpenBLAS read, in this process and
# in two pool workers, after `import headlab.cli`
_PIN_PROBE = """
import ctypes, json, os
import headlab.cli
from headlab import parallel

def threads():
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    return {name: getattr(lib, name)() for lib in map(ctypes.CDLL, sorted(paths))
            for name in names if hasattr(lib, name)}

print(json.dumps({"threads": threads(), "workers": parallel._map_cells([threads, threads]),
                  "budget": parallel.cpu_budget(), "cpus": len(os.sched_getaffinity(0))}))
"""

# `_map_cells` at budget 2 on three jobs, the middle one killing its own worker
# or raising an error that cannot be rebuilt from its args; prints the live
# children left once the pool reports itself broken
_BROKEN_POOL_PROBE = """
import multiprocessing, os, signal, sys
from concurrent.futures.process import BrokenProcessPool
from headlab import parallel

os.sched_getaffinity = lambda pid: {0, 1}  # budget 2, as the two_cpus fixture sets it

class TwoArgumentError(Exception):
    def __init__(self, step, loss):
        super().__init__(f"step {step}: loss {loss}")

def fine():
    return 1

def kill_own_worker():
    os.kill(os.getpid(), signal.SIGKILL)

def raise_two_argument_error():
    raise TwoArgumentError(3, 1.5)

job = {"kill": kill_own_worker, "raise": raise_two_argument_error}[sys.argv[1]]
try:
    parallel._map_cells([fine, job, fine])
except BrokenProcessPool:
    print(len(multiprocessing.active_children()))
"""

# a shape at which OpenBLAS's own threads once changed diagnose's lost fraction
# in the last digit
_DIAGNOSE_CORPUS = [
    "--corpus.kind", "zipf", "--corpus.vocab_size", "256", "--corpus.num_seqs", "16",
    "--corpus.seq_len", "16", "--corpus.seed", "0", "--max_context_len", "1",
]


def _run_child(args, blas_threads, cwd):
    """`python args` with the BLAS thread variables unset, then
    OPENBLAS_NUM_THREADS set to `blas_threads` unless that is None."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBlasPin:
    @pytest.mark.parametrize("blas_threads", [None, "1", "2"])
    def test_import_pins_both_openblas_to_one_thread(self, blas_threads, tmp_path):
        probe = json.loads(_run_child(["-c", _PIN_PROBE], blas_threads, tmp_path))
        one = {"scipy_openblas_get_num_threads64_": 1, "scipy_openblas_get_num_threads": 1}
        assert probe["threads"] == one
        assert probe["workers"] == [one, one]
        assert probe["budget"] == probe["cpus"]

    def test_diagnose_bytes_do_not_depend_on_the_thread_variable(self, tmp_path):
        assert cli.main(["train", "--out", str(tmp_path), "--width", "4", "--steps", "10",
                         "--eval_every", "10"] + _DIAGNOSE_CORPUS) == 0
        trees = []
        for blas_threads in (None, "1", "2"):
            out = tmp_path / f"blas{blas_threads}"
            _run_child(["-m", "headlab", "diagnose", "--out", str(out), "--name", "diagnose",
                        "--checkpoint", str(tmp_path / "train" / "checkpoint.bin"),
                        "--token_counts", "[1,16]"] + _DIAGNOSE_CORPUS, blas_threads, tmp_path)
            trees.append({path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()})
        assert len(trees[0]) == 10
        assert trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("job", ["kill", "raise"])
def test_broken_pool_fails_instead_of_hanging(job, tmp_path):
    """A worker killed mid-job, or a job error the parent cannot unpickle,
    raises BrokenProcessPool within the timeout and leaves no worker alive."""
    assert _run_child(["-c", _BROKEN_POOL_PROBE, job], None, tmp_path) == "0\n"
