"""Tests for the deterministic parallel map."""

import concurrent.futures
import os
import threading

from cayplex import util


def test_ordered_map_clamps_threads(monkeypatch):
    """An oversized thread count is clamped to the CPU count before any
    pool is created; the recording stand-in starts no threads.  The pool
    class is imported when a pool is needed, so the stand-in replaces it
    in ``concurrent.futures``."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, x):
            future = concurrent.futures.Future()
            future.set_result(fn(x))
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    out = util.ordered_map(lambda x: 2 * x, range(10), threads=10**6)
    assert out == [2 * x for x in range(10)]
    assert seen == [os.cpu_count() or 1]


def test_ordered_imap_runs_bounded_ahead():
    """On a pool, results come in item order, and at most one item per
    worker is started ahead of the one consumed."""
    started = []
    lock = threading.Lock()

    def square(x):
        with lock:
            started.append(x)
        return x * x

    workers = min(2, os.cpu_count() or 1)
    it = util.ordered_imap(square, range(20), threads=2)
    assert next(it) == 0
    assert len(started) <= workers + 1
    assert list(it) == [x * x for x in range(1, 20)]
    assert sorted(started) == list(range(20))
