"""How many CPUs a computation may use, and the two ways it uses them.

Importing this module sets numpy's and scipy's OpenBLAS to one thread, so
`cpu_budget()`, the one rule, is the usable CPUs. `_map_cells` runs independent
jobs (the sweeps' training runs, `diagnose`'s measurements, `verify`'s checks)
on a fork `ProcessPoolExecutor` of that many workers, and `map_threads` the
fixed shards of one logit pass on a `ThreadPoolExecutor` of that many threads.
A pool worker's budget is 1, so its jobs never start threads of their own.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait

import scipy.linalg  # noqa: F401 - loads numpy's and scipy's OpenBLAS, for _pin_blas

# OpenBLAS's thread-count setter in numpy's wheel, in scipy's, in a plain build
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads")

_budget = None  # fixed at 1 in each pool worker by _start_worker
_worker_jobs = None  # set in each pool worker by _start_worker, never in the parent
_executor = None  # the ThreadPoolExecutor of map_threads, built on first use


def _pin_blas() -> bool:
    """Set each OpenBLAS mapped into this process to one thread, as
    threadpoolctl does. True when there was one and each took the setting."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    setters = [next((getattr(lib, name) for name in _BLAS_SETTERS if hasattr(lib, name)), None)
               for lib in map(ctypes.CDLL, sorted(paths))]
    for setter in filter(None, setters):
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    return bool(setters) and None not in setters


_blas_pinned = _pin_blas()


def cpu_budget() -> int:
    """How many computations can run at once: the usable CPUs, since each
    runs its BLAS on one thread. 1 where the BLAS could not be pinned, as its
    own threads would then fill every core. Always 1 in a pool worker."""
    if _budget is not None:
        return _budget
    return len(os.sched_getaffinity(0)) if _blas_pinned else 1


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


def _start_worker(jobs: list) -> None:
    global _budget, _worker_jobs
    _budget = 1
    _worker_jobs = jobs


def _run_job(index: int):
    return _worker_jobs[index]()


def _map_cells(jobs: list) -> list:
    """[job() for job in jobs], in job order.

    The zero-argument jobs run on min(len(jobs), cpu_budget()) fork workers,
    or in this process when that is one. Fork carries them into the workers
    unpickled, so they may close over count matrices or lambdas; only their
    results and exceptions are pickled. Each worker takes the next job in job
    order when it is free, with the one-thread BLAS, so the results equal the
    serial ones. The first exception in job order is raised, its type and
    message unchanged: in the pool, as in `map_threads`, after every job has
    finished, and in this process at once. A dead worker, or an exception
    this process cannot unpickle, raises `BrokenProcessPool` instead.
    """
    workers = min(len(jobs), cpu_budget())
    if workers <= 1:
        return [job() for job in jobs]
    # leaving the block waits for every job and joins the workers, so their
    # rusage reaches this process
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(jobs,)) as pool:
        futures = [pool.submit(_run_job, index) for index in range(len(jobs))]
    return [future.result() for future in futures]
