"""One worker per CPU for the parts of a pass that share no output.

The network pass (:mod:`sgnet.net`) runs in blocks of branches and the
triple-product contraction (:mod:`sgnet.spectral`) in ranges of points; no
two parts write the same output.  :func:`run` hands every worker its own
share of the parts and its own scratch, and each part does the same
arithmetic on whichever worker runs it, so results do not depend on the
worker count.  numpy's ufuncs and matrix products and scipy's sparse
products release the interpreter lock, so the workers' arithmetic overlaps.

There is one worker per CPU in the process's affinity mask, so ``taskset``
sets the count.  Worker 0 is the calling thread.  The others are the threads
of one pool, started by the first pass that has two workers or more and
forgotten in a forked child, which inherits none of them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def count() -> int:
    """Workers a pass may use: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # a platform without affinity masks


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, count() - 1), thread_name_prefix="sgnet-worker")
        return _pool


def run(task: Callable[[int], None], n_workers: int) -> None:
    """Call ``task(w)`` for w = 0, ..., n_workers - 1: w = 0 in the caller, the rest on the pool.

    Returns once every call has returned, and then raises the first
    exception a call raised (the caller's own first).  A task must not call
    :func:`run` itself: with the pool's threads busy, it would wait on its
    own parts.
    """
    futures = [_executor().submit(task, w) for w in range(1, n_workers)]
    try:
        task(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _forget_pool() -> None:
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


os.register_at_fork(after_in_child=_forget_pool)
