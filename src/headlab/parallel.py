"""How many CPUs a computation may use, and the two ways it uses them.

`cpu_budget()` is the one rule: the usable CPUs over the BLAS threads of one
computation. `_map_cells` runs independent cells (the sweeps' training runs,
`diagnose`'s measurements) in a fork process pool of that many workers, and
`map_threads` runs the fixed shards of one logit pass on that many threads.
A pool worker's budget is 1, so its cells never start threads of their own.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

# OpenBLAS's thread-count variables, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_budget = None  # fixed at 1 in each pool worker by _install_cell
_worker_cell = None  # set in each pool worker by _install_cell, never in the parent
_executor = None  # the ThreadPoolExecutor of map_threads, built on first use


def cpu_budget() -> int:
    """How many computations can run at once: the usable CPUs over the BLAS
    threads of each. Unless a thread variable says otherwise, OpenBLAS runs
    one thread per CPU, and a second computation would then oversubscribe
    every core. Always 1 in a pool worker."""
    if _budget is not None:
        return _budget
    cpus = len(os.sched_getaffinity(0))
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def _drop_executor() -> None:
    # a forked child has none of its parent's threads: an inherited executor
    # would queue jobs that no thread runs
    global _executor
    _executor = None


os.register_at_fork(after_in_child=_drop_executor)


def map_threads(fn, jobs: list) -> list:
    """[fn(*job) for job in jobs], in job order.

    The jobs run on one thread pool of cpu_budget() threads, built on first
    use, or in the calling thread when the budget or the job count is 1.
    `fn` must release the interpreter lock for most of its time (numpy's BLAS
    calls and ufuncs do) to gain anything. Every job finishes before the
    first exception among them, in job order, is raised unchanged.
    """
    global _executor
    threads = cpu_budget()
    if threads <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    if _executor is None:
        _executor = ThreadPoolExecutor(threads, thread_name_prefix="headlab")
    futures = [_executor.submit(fn, *job) for job in jobs]
    wait(futures)
    return [future.result() for future in futures]


def _install_cell(cell) -> None:
    global _budget, _worker_cell
    _budget = 1
    _worker_cell = cell


def _run_installed_cell(task):
    return _worker_cell(*task)


def _map_cells(cell, shared, tasks: list) -> list:
    """[cell(shared, *task) for task in tasks], in task order.

    The cells run in a fork pool of min(len(tasks), cpu_budget()) workers,
    or in this process when that is one. `shared` (the config, count
    matrices) reaches the workers through fork and is never pickled; only the
    task tuples and the results are. Workers keep the parent's BLAS thread
    setting and run their logit passes on one thread, so the results equal
    the serial ones at that setting.
    """
    run = partial(cell, shared)
    workers = min(len(tasks), cpu_budget())
    if workers <= 1:
        return [run(*task) for task in tasks]
    with multiprocessing.get_context("fork").Pool(
        workers, initializer=_install_cell, initargs=(run,)
    ) as pool:
        results = pool.map(_run_installed_cell, tasks, chunksize=1)
        # close and join, so that the workers' rusage reaches this process
        pool.close()
        pool.join()
    return results
