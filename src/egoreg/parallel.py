"""Two lanes that share work: the library's one threading path.

`map_on_two(fn, items)` maps `fn` over `items` on two lanes: the calling
thread and, when `_helper_thread_pays`, one helper thread. Results come
back in input order and each item runs the same arithmetic on either
thread, so callers get the same bits either way.

Four callers nest: `registration` maps all kept frames of a clip through
one call, each frame matched and, in `register_sequence`, lifted and
posed in the item that matched it; inside a frame `attach_context` maps
its eigendecomposition chunks and `match_frame_to_shortlist` its
shortlisted model images. On a map build, `ensure_contexts` maps the model
images that lack contexts, each with its `attach_context` chunks inside.
So a clip or a map build is one top-level call, with one helper thread
and no barrier between its stages. A top-level call starts the helper on the
second item while the caller runs the first. A call made from inside a
running item publishes its items as a batch nested in that item's batch,
and its lane works through them. A lane with nothing of its own to run
takes the next item of the oldest batch that has some pending: the next
frame (or model image) while any is left, then the other lane's images or
chunks, instead of waiting at a barrier (work sharing; as in Blumofe &
Leiserson's work stealing, JACM 1999, the idle worker takes the oldest
work). A lane inside an item runs only items of batches nested inside that
item's own batch, never a sibling of the item: each lane has at most one
outer item open, so at most two frames (or model images) are in flight.
A frame's whole pipeline is independent of its neighbour's
matches, and the work that dominates (LAPACK eigensolvers, BLAS products,
the assignment solver) spends most of its time outside the interpreter
lock. The only state lanes share across items is what callers share
themselves: a clip's tracking pyramids, under `registration`'s lock.

The helper pays only with a single-threaded BLAS and at least two CPUs in
this process's affinity set. With a multi-threaded BLAS the helper would
only contend with BLAS's own threads: a second Python thread made contexts
1.3-1.6x slower on two cores. One helper, not one per CPU: each thread
grows its own malloc arena, and a second helper's arena cost ~10% more
peak RSS on a day frame. Without it every item, nested ones included, runs
on the calling thread in input order.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable

# the variables OpenBLAS reads its thread count from at load, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# on a lane thread: `lanes`, the call's _Lanes, and `batch`, the batch of
# the item it runs (None between items)
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


class _Batch:
    """One map_on_two call's items: items[next:] are pending."""

    def __init__(self, fn: Callable, items: list, parent: _Batch | None):
        self.fn, self.items, self.parent = fn, items, parent
        self.out = [None] * len(items)
        self.next = 0
        self.running = 0
        self.errors: dict[int, BaseException] = {}

    def done(self) -> bool:
        return self.next == len(self.items) and not self.running

    def inside(self, other: _Batch) -> bool:
        """True when this batch is `other` or was published by one of its items."""
        batch = self
        while batch is not None and batch is not other:
            batch = batch.parent
        return batch is other


class _Lanes:
    """The two lanes of one top-level call and the batches they share."""

    def __init__(self):
        self.cond = threading.Condition()
        self.pending: list[_Batch] = []  # batches with pending items, oldest first
        self.closed = False

    def take(self, within: _Batch | None) -> tuple[_Batch, int] | None:
        """Under `cond`: claim the next item of the oldest pending batch
        inside `within` (any batch when None)."""
        for batch in self.pending:
            if within is None or batch.inside(within):
                i = batch.next
                batch.next += 1
                batch.running += 1
                if batch.next == len(batch.items):
                    self.pending.remove(batch)
                return batch, i
        return None

    def run(self, batch: _Batch, i: int) -> None:
        """Run a claimed item; an error cancels its batch's pending items."""
        outer = getattr(_lane, "batch", None)
        _lane.batch = batch
        error = None
        try:
            batch.out[i] = batch.fn(batch.items[i])
        except BaseException as exc:  # raised by the batch's caller
            error = exc
        finally:
            _lane.batch = outer
        with self.cond:
            batch.running -= 1
            if error is not None:
                batch.errors[i] = error
                if batch.next < len(batch.items):
                    batch.next = len(batch.items)
                    self.pending.remove(batch)
            self.cond.notify_all()

    def work(self, batch: _Batch) -> list:
        """Run items inside `batch` until all of its own have finished."""
        while True:
            with self.cond:
                while not batch.done() and (claim := self.take(batch)) is None:
                    self.cond.wait()
                if batch.done():
                    break
            self.run(*claim)
        if batch.errors:
            raise batch.errors[min(batch.errors)]
        return batch.out

    def publish(self, fn: Callable, items: list) -> list:
        """A nested call: share `items` with the other lane and work them here."""
        batch = _Batch(fn, items, _lane.batch)
        with self.cond:
            self.pending.append(batch)
            self.cond.notify_all()
        return self.work(batch)

    def help(self, first: tuple[_Batch, int]) -> None:
        """The helper lane: its first item, then any pending item until closed."""
        _lane.lanes = self
        claim = first
        while claim is not None:
            self.run(*claim)
            claim = None
            with self.cond:
                while not self.closed and (claim := self.take(None)) is None:
                    self.cond.wait()


def map_on_two(fn: Callable, items: list) -> list:
    """[fn(x) for x in items], with a helper thread taking items as it is free.

    The helper runs only for two or more items and when
    `_helper_thread_pays`; otherwise every item runs on the calling thread.
    At the top level the caller starts on item 0 and the helper on item 1.
    A call from inside another call's item publishes its items: the calling
    lane works through them, the other lane takes pending ones when it is
    idle, and the call returns once they have all finished. An exception
    is raised here with its own type, that of the lowest failing item, once
    the batch's started items have finished (and, at the top level, the
    helper has been joined); its unstarted items are cancelled.
    """
    lanes = getattr(_lane, "lanes", None)
    if len(items) < 2:
        return [fn(x) for x in items]
    if lanes is not None:
        return lanes.publish(fn, items)
    if not _helper_thread_pays():
        return [fn(x) for x in items]
    lanes = _Lanes()
    root = _Batch(fn, items, None)
    root.next = root.running = 2  # the caller runs item 0, the helper item 1
    if len(items) > 2:
        lanes.pending.append(root)
    helper = threading.Thread(target=lanes.help, args=((root, 1),), name="egoreg-lane")
    helper.start()
    _lane.lanes = lanes
    try:
        lanes.run(root, 0)
        return lanes.work(root)
    finally:
        with lanes.cond:
            lanes.closed = True
            lanes.cond.notify_all()
        helper.join()
        _lane.lanes = None
