"""One worker per CPU for the parts of a pass that share no output.

The network pass (:mod:`sgnet.net`) runs in blocks of branches, the
triple-product contraction (:mod:`sgnet.spectral`) in ranges of points, the
error metric's Monte Carlo pass (:mod:`sgnet.metrics`) in chunks of samples
and the pathwise FEM reference in single samples; no two parts write the
same output.  :func:`run` hands every worker its own share of the parts and
its own scratch (:func:`shares` cuts even, contiguous shares of blocks and
ranges), and each part does the same arithmetic on whichever worker runs it,
so results do not depend on the worker count.  numpy's ufuncs and
matrix products, scipy's sparse products and the reference's banded solves
release the interpreter lock, so the workers' arithmetic overlaps.  A pass
started inside a part of another pass runs its parts in order on that
part's thread.

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
_inside = threading.local()  # .part is true on a thread while it runs a part of a shared pass


def count() -> int:
    """Workers a pass may use: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # a platform without affinity masks


def shares(n_items: int, most: int) -> list[list[slice]]:
    """Each worker's share of ``range(n_items)``, cut into runs of at most ``most`` items.

    A pass has one worker per CPU and at most one per run.  The shares are
    contiguous and their lengths differ by at most one, and so do the
    lengths of the runs within one share.
    """

    def even(start: int, stop: int, parts: int) -> list[slice]:
        q, r = divmod(stop - start, parts)
        cuts = [start + p * q + min(p, r) for p in range(parts + 1)]
        return [slice(a, b) for a, b in zip(cuts, cuts[1:])]

    if n_items < 1:
        return []
    own = even(0, n_items, min(count(), -(-n_items // most)))
    return [even(s.start, s.stop, -(-(s.stop - s.start) // most)) for s in own]


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, count() - 1), thread_name_prefix="sgnet-worker")
        return _pool


def run(task: Callable[[int], None], n_workers: int) -> None:
    """Call ``task(w)`` for w = 0, ..., n_workers - 1: w = 0 in the caller, the rest on the pool.

    Returns once every call has returned, and then raises the first
    exception a call raised (the caller's own first).  Called from inside a
    part of a pass with two workers or more, it makes its calls in order on
    the calling thread, up to the first that raises, since the pool's
    threads may all be busy with that pass.
    """
    if n_workers < 2 or getattr(_inside, "part", False):
        for worker in range(n_workers):
            task(worker)
        return
    futures = [_executor().submit(_part, task, w) for w in range(1, n_workers)]
    try:
        _part(task, 0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _part(task: Callable[[int], None], worker: int) -> None:
    _inside.part = True
    try:
        task(worker)
    finally:
        _inside.part = False


def _forget_pool() -> None:
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


os.register_at_fork(after_in_child=_forget_pool)
