"""The one rule for running independent jobs side by side."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_map(fn, items) -> list:
    """fn over items on up to one thread per CPU, results in input order.

    The jobs must share no mutable state.  HiGHS and NumPy's array loops
    release the interpreter lock, so the threads overlap there; results
    do not depend on the thread count.
    """
    workers = max(1, min(len(items), os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
