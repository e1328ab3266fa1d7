"""One task runner for simulation chunks and MMD stripes.

Independent tasks run on ``workers(n_tasks)`` threads: as many as the cores
divided by the BLAS thread cap, and 1 without a cap, when BLAS itself already
runs on every core. The calling thread is worker 0 and takes tasks too;
``workers - 1`` more threads pull task indices from one shared counter, and
each worker runs on a core of its own. Results come back in index order, so
a caller that combines them in that order gets the same bits on any number
of workers.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Optional, TypeVar

T = TypeVar("T")


def _parse_cap(value: Optional[str]) -> Optional[int]:
    return int(value) if value and value.isascii() and value.isdigit() else None


# The cap BLAS runs under: OPENBLAS_NUM_THREADS as a non-negative integer, or
# None. OpenBLAS read it when numpy loaded it, before this module was imported
# (``import bridgekit`` sets it from BRIDGEKIT_THREADS first), and later
# changes to the environment reach neither BLAS nor this value.
_BLAS_CAP = _parse_cap(os.environ.get("OPENBLAS_NUM_THREADS"))


def workers(n_tasks: int) -> int:
    """Threads that run ``n_tasks`` tasks: one per task, up to the cores
    divided by the BLAS thread cap. Without a cap (unset, 0 or not a number)
    BLAS already runs on every core, and tasks on more threads beside it were
    measured slower, so the answer is 1."""
    if not _BLAS_CAP:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(n_tasks, max(1, cores // _BLAS_CAP))


def _pin(cpus) -> None:
    """Restricts the calling thread to ``cpus``. It is only a placement hint,
    so a set the system refuses (say, its allowed cores changed) leaves the
    thread as it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def run_tasks(n: int, workers: int, task: Callable[[int, int], T]) -> list[T]:
    """Calls ``task(i, w)`` for i in range(n) and returns the results in index
    order. ``w`` is the worker that runs the task, 0 <= w < ``workers``; no two
    tasks with the same ``w`` run at once, so a task may use worker ``w``'s
    buffers. Worker 0 is the calling thread.

    Tasks start in index order. After a task fails no new task starts, and the
    exception of the lowest failed index is raised, as in a serial loop: every
    lower index had started, and has finished, by then.

    With more than one worker, worker w runs on core w of the process's
    allowed cores, and the calling thread gets its own affinity back at the
    end. Left to the scheduler, a new worker was seen to share the calling
    thread's core for a whole run, which then took as long as on one thread.
    """
    results: list = [None] * n
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    state = {"next": 0, "stop": False}
    own = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cores = sorted(own or ())

    def work(w):
        if w and cores:
            _pin({cores[w % len(cores)]})
        while True:
            with lock:
                i = state["next"]
                if i >= n or state["stop"]:
                    return
                state["next"] = i + 1
            try:
                results[i] = task(i, w)
            except BaseException as exc:  # handed to the calling thread below
                with lock:
                    errors[i] = exc
                    state["stop"] = True
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, min(workers, n))]
    for thread in threads:
        thread.start()
    if threads and cores:
        _pin({cores[0]})
    try:
        work(0)
    finally:
        if threads and cores:
            _pin(own)
        with lock:  # the calling thread may leave early, e.g. on an interrupt
            state["stop"] = True
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results
