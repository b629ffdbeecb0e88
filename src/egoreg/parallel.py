"""Two items in flight: the library's one threading path.

`map_on_two(fn, items)` maps `fn` over `items` with the calling thread
taking the even items and, when `_helper_thread_pays`, one helper thread
the odd ones. Results come back in input order and each item runs the same
arithmetic on either thread, so callers get the same bits either way.

Three callers nest: `match_sequence` maps its kept frames through it two
at a time, and inside a frame `attach_context` maps its eigendecomposition
chunks and `match_frame_to_shortlist` its shortlisted model images. A
`map_on_two` called from inside a running item runs inline on its thread,
so at most one helper thread exists and the inner callers keep theirs only
when no outer lane runs (a lone frame: a 1-frame clip or an odd last one).
Frames are the outer unit because a frame's whole pipeline is independent
of its neighbour's matches: detection, tracking and retrieval, which run
on one thread inside a frame, then overlap too, where chunks or images
left one core idle for a third of a day frame. The work that dominates
(LAPACK eigensolvers, BLAS products, the assignment solver) spends most of
its time outside the interpreter lock.

The helper pays only with a single-threaded BLAS and at least two CPUs in
this process's affinity set. With a multi-threaded BLAS the helper would
only contend with BLAS's own threads: a second Python thread made contexts
1.3-1.6x slower on two cores. One helper, not one per CPU: each thread
grows its own malloc arena, and a second helper's arena cost ~10% more
peak RSS on a day frame.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

# the variables OpenBLAS reads its thread count from at load, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# `in_lane` is True on a thread while it runs a two-lane map's items
_lane = threading.local()


def _helper_thread_pays() -> bool:
    """True when a helper thread can take items without contention.

    That needs at least two CPUs in this process's affinity set and a
    single-threaded BLAS: the first of BLAS_THREAD_VARS that is set equals
    "1". Unset, BLAS starts a thread per CPU.
    """
    # sched_getaffinity is Linux-only; elsewhere every CPU counts
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    for name in BLAS_THREAD_VARS:
        value = os.environ.get(name)
        if value is not None:
            return value == "1"
    return False


def _enter_lane() -> None:
    _lane.in_lane = True


def map_on_two(fn: Callable, items: list) -> list:
    """[fn(x) for x in items], with the odd items on one helper thread.

    The helper runs only for two or more items, when `_helper_thread_pays`,
    and when this call is not made from inside another two-lane map's item;
    otherwise every item runs on the calling thread. An exception from
    either thread is raised here with its own type, after the helper has
    been joined and its unstarted items cancelled.
    """
    if len(items) < 2 or getattr(_lane, "in_lane", False) or not _helper_thread_pays():
        return [fn(x) for x in items]
    out = [None] * len(items)
    helper = ThreadPoolExecutor(1, initializer=_enter_lane)
    _enter_lane()
    try:
        odd = [helper.submit(fn, x) for x in items[1::2]]
        out[0::2] = [fn(x) for x in items[0::2]]
        out[1::2] = [f.result() for f in odd]
    finally:
        _lane.in_lane = False
        helper.shutdown(cancel_futures=True)
    return out
