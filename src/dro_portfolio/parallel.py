"""The one rule for running independent jobs side by side."""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """One pool per worker count, kept for the life of the process.

    Its threads outlive each call, so each keeps the allocator arena it
    started with; fresh threads per call would pick up arenas in varying
    order and spread the retained memory of the large LPs over all of
    them.
    """
    return ThreadPoolExecutor(max_workers=workers)


def thread_map(fn, items) -> list:
    """fn over items on up to one thread per CPU, results in input order.

    The jobs must share no mutable state and must not call thread_map
    themselves: a job waiting on the shared pool could wait forever.
    HiGHS and NumPy's array loops release the interpreter lock, so the
    threads overlap there; results do not depend on the thread count.
    """
    workers = max(1, min(len(items), os.cpu_count() or 1))
    return list(_pool(workers).map(fn, items))
