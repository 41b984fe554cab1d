"""Tests for the deterministic parallel map."""

import concurrent.futures
import os

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

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    out = util.ordered_map(lambda x: 2 * x, range(10), threads=10**6)
    assert out == [2 * x for x in range(10)]
    assert seen == [os.cpu_count() or 1]
