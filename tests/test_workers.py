"""The task runner that simulation chunks and MMD stripes share."""

import os
import sys
import threading
import time

import pytest

from bridgekit import _workers
from bridgekit._workers import run_tasks


def test_results_come_back_in_index_order():
    # Later tasks finish first in time.
    def task(i, w):
        time.sleep(0.002 * (8 - i))
        return i * i

    for workers in (1, 2, 3):
        assert run_tasks(8, workers, task) == [i * i for i in range(8)]


def test_lowest_failed_task_is_raised():
    # Task 5 fails at once, task 2 only later; task 2's error must win, as in
    # a serial loop.
    def task(i, w):
        if i == 2:
            time.sleep(0.05)
            raise ValueError("task 2")
        if i == 5:
            raise KeyError("task 5")
        return i

    for workers in (1, 2, 3, 6):
        with pytest.raises(ValueError, match="task 2"):
            run_tasks(8, workers, task)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_task_starts_after_a_failure(workers):
    started = []
    failed = threading.Event()

    def task(i, w):
        started.append(i)
        if i == 1:
            failed.set()
            raise RuntimeError("task 1")
        if i == 0 and workers > 1:
            # Task 0 holds its worker until task 1 has failed on the other.
            assert failed.wait(timeout=10)
            time.sleep(0.2)  # for the failure to be recorded
        return i

    with pytest.raises(RuntimeError, match="task 1"):
        run_tasks(10, workers, task)
    assert sorted(started) == [0, 1]


@pytest.mark.parametrize("workers, n, started", [(1, 5, 0), (2, 5, 1), (3, 5, 2), (5, 2, 1),
                                                 (3, 0, 0)])
def test_workers_minus_one_threads_are_started(monkeypatch, workers, n, started):
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(_workers.threading, "Thread", Counted)
    # Each of the first min(workers, n) tasks waits for the others, so every
    # worker takes one; the calling thread is worker 0.
    barrier = threading.Barrier(min(workers, n)) if n else None
    seen = []

    def task(i, w):
        if i < min(workers, n):
            barrier.wait(timeout=10)
        seen.append((w, threading.get_ident()))
        return w

    result = run_tasks(n, workers, task)
    assert len(made) == started
    assert not any(thread.is_alive() for thread in made)
    assert sorted(set(result)) == list(range(min(workers, n)))
    idents = {w: ident for w, ident in seen}
    assert len(set(idents.values())) == len(idents)
    if n:
        assert idents[0] == threading.get_ident()


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs thread affinity and two allowed cores")
def test_each_worker_runs_on_a_core_of_its_own():
    own = os.sched_getaffinity(0)
    cores = sorted(own)
    barrier = threading.Barrier(2)

    def task(i, w):
        barrier.wait(timeout=10)  # one task on each worker
        return w, os.sched_getaffinity(0)

    assert sorted(run_tasks(2, 2, task)) == [(0, {cores[0]}), (1, {cores[1]})]
    assert os.sched_getaffinity(0) == own  # the calling thread's is restored
    # One worker runs where it was.
    assert run_tasks(1, 1, lambda i, w: os.sched_getaffinity(0)) == [own]


def test_every_task_runs_once_under_contention():
    # More workers than cores and a short switch interval: a lost update on
    # the shared counter would run an index twice or skip one.
    counts = [0] * 3000
    lock = threading.Lock()

    def task(i, w):
        with lock:
            counts[i] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_tasks(len(counts), 8, task)
    finally:
        sys.setswitchinterval(interval)
    assert result == list(range(len(counts)))
    assert counts == [1] * len(counts)
