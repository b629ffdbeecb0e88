"""`map_on_two` work sharing: an idle lane takes the other lane's pending items.

Every scheduler test runs its map on a daemon thread joined with a timeout,
so a deadlock fails the test instead of hanging the suite. Concurrency is
forced with events: an item that needs the other lane to have done
something waits for it, and a wait that runs out is a failed check. The
one short wait that is meant to run out watches for an item that must
not start.
"""

import sys
import threading

import pytest

from egoreg import parallel
from egoreg.parallel import map_on_two

WAIT_S = 10.0  # far beyond any wait a working scheduler makes


class InnerFailure(Exception):
    pass


@pytest.fixture
def helper_pays(monkeypatch):
    monkeypatch.setattr(parallel, "_helper_thread_pays", lambda: True)


def bounded(call):
    """call() on a daemon thread; its result, or its error raised here."""
    out = {}

    def target():
        try:
            out["value"] = call()
        except BaseException as exc:
            out["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(WAIT_S)
    assert not runner.is_alive(), "map_on_two did not return: the lanes deadlocked"
    if "error" in out:
        raise out["error"]
    return out["value"]


def lane_threads():
    return [t for t in threading.enumerate() if t.name == "egoreg-lane"]


def test_nested_results_come_back_in_input_order(helper_pays):
    def run_outer(x):
        return map_on_two(lambda y: 10 * x + y, [0, 1, 2])

    assert bounded(lambda: map_on_two(run_outer, [1, 2, 3, 4, 5])) == \
        [[10 * x + y for y in (0, 1, 2)] for x in (1, 2, 3, 4, 5)]


def test_an_idle_lane_takes_a_nested_item_from_the_busy_lane(helper_pays):
    # outer item 1 ends at once, so the helper is idle while outer item 0
    # maps its inner items; the caller's first inner item waits until the
    # helper has taken one of them
    ran = []
    helper_took_one = threading.Event()

    def run():
        caller = threading.get_ident()

        def run_inner(y):
            ran.append((y, threading.get_ident() == caller))
            if threading.get_ident() != caller:
                helper_took_one.set()
            else:
                assert helper_took_one.wait(WAIT_S)
            return y

        def run_outer(x):
            return map_on_two(run_inner, [0, 1, 2, 3]) if x == 0 else None

        return map_on_two(run_outer, [0, 1])

    assert bounded(run) == [[0, 1, 2, 3], None]
    assert sorted(y for y, _ in ran) == [0, 1, 2, 3]
    assert not all(on_caller for _, on_caller in ran)


def test_an_idle_lane_opens_the_next_outer_item_before_it_helps(helper_pays):
    # outer item 1 ends once outer item 0's inner items are published, and
    # the caller's first inner item holds until the helper has taken its
    # next item; the helper then finds both outer item 2 and inner items
    # pending and takes the oldest, outer item 2
    inner_started = threading.Event()
    helper_moved_on = threading.Event()
    helper_ran = []

    def run():
        caller = threading.get_ident()

        def note(item):
            if threading.get_ident() != caller:
                helper_ran.append(item)
                if len(helper_ran) > 1:
                    helper_moved_on.set()

        def run_inner(y):
            note(("inner", y))
            inner_started.set()
            if threading.get_ident() == caller:
                assert helper_moved_on.wait(WAIT_S)
            return y

        def run_outer(x):
            note(("outer", x))
            if x == 1:
                assert inner_started.wait(WAIT_S)
            return map_on_two(run_inner, [0, 1, 2]) if x == 0 else x

        return map_on_two(run_outer, [0, 1, 2])

    assert bounded(run) == [[0, 1, 2], 1, 2]
    assert helper_ran[:2] == [("outer", 1), ("outer", 2)]


def test_no_more_than_two_outer_items_are_open_at_once(helper_pays):
    # the first inner item on each thread waits until the other thread is
    # in an inner item too, so both lanes map inner items at once; under a
    # tiny switch interval the lanes interleave as finely as they can, and
    # a lost update to the shared batches would lose or repeat an item
    lock = threading.Lock()
    open_items, most, ran = set(), [], []
    threads_in, both_in = set(), threading.Event()

    def run_inner(x, y):
        with lock:
            ran.append((x, y))
            threads_in.add(threading.get_ident())
            if len(threads_in) == 2:
                both_in.set()
        assert both_in.wait(WAIT_S)
        return (x, y)

    def run_outer(x):
        with lock:
            open_items.add(x)
            most.append(len(open_items))
        try:
            return map_on_two(lambda y: run_inner(x, y), list(range(4)))
        finally:
            with lock:
                open_items.discard(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = bounded(lambda: map_on_two(run_outer, list(range(40))))
    finally:
        sys.setswitchinterval(interval)
    assert out == [[(x, y) for y in range(4)] for x in range(40)]
    assert sorted(ran) == [(x, y) for x in range(40) for y in range(4)]
    assert max(most) <= 2


def test_a_lane_inside_an_item_opens_no_sibling_of_it(helper_pays):
    # the helper holds outer item 1 until outer item 0 has ended, so outer
    # item 2 stays pending while the caller maps item 0's inner items; the
    # caller must run those, not start outer item 2 in between
    item_0_done = threading.Event()
    sibling_started = threading.Event()
    saw_sibling = []

    def run_inner(y):
        saw_sibling.append(sibling_started.is_set())
        return y

    def run_outer(x):
        if x == 1:
            assert item_0_done.wait(WAIT_S)
        if x == 2:
            sibling_started.set()
        if x != 0:
            return x
        out = map_on_two(run_inner, [0, 1, 2])
        item_0_done.set()
        return out

    assert bounded(lambda: map_on_two(run_outer, [0, 1, 2])) == [[0, 1, 2], 1, 2]
    assert saw_sibling == [False, False, False]


def test_a_nested_call_starts_no_second_thread(helper_pays):
    # at most one helper thread is alive during a call, and none after it
    seen = []

    def run():
        def run_outer(x):
            return map_on_two(lambda y: seen.append(
                (threading.get_ident(), len(lane_threads()))), [0, 1, 2])

        before = lane_threads()
        map_on_two(run_outer, [0, 1, 2, 3])
        return before

    assert bounded(run) == []
    assert {n for _, n in seen} == {1}
    assert len({ident for ident, _ in seen}) <= 2
    assert lane_threads() == []


def raise_on(failing):
    """Outer item 0 maps 20 inner items while outer item 1 ends at once. The
    first inner item on the `failing` thread raises once the other thread
    has taken an inner item; that item then waits for any other to start.
    Returns the map's error and the inner items that started."""
    started = []
    both_in = threading.Event()
    another_started = threading.Event()

    def run():
        caller = threading.get_ident()

        def run_inner(y):
            on_caller = threading.get_ident() == caller
            started.append(y)
            if len(started) > 2:
                another_started.set()
            if on_caller == (failing == "caller"):
                assert both_in.wait(WAIT_S)
                raise InnerFailure(f"inner item {y} on the {failing}")
            both_in.set()
            # a bounded wait for an item that must not start
            another_started.wait(0.3)
            return y

        def run_outer(x):
            return map_on_two(run_inner, list(range(20))) if x == 0 else x

        return map_on_two(run_outer, [0, 1])

    with pytest.raises(InnerFailure) as raised:
        bounded(run)
    return raised.value, started


def test_a_nested_error_surfaces_with_its_type_after_the_helper_is_joined(helper_pays):
    for failing in ("caller", "helper"):
        error, started = raise_on(failing)
        assert str(error).endswith(f"on the {failing}")
        # the batch's unstarted items were cancelled
        assert len(started) == 2
        assert lane_threads() == []


@pytest.mark.parametrize("fail", [False, True], ids=["after-a-run", "after-an-error"])
def test_a_later_top_level_call_uses_the_helper_again(helper_pays, fail):
    def first(x):
        if fail and x == 1:
            raise InnerFailure("outer item 1")
        return map_on_two(lambda y: y, [0, 1, 2])

    if fail:
        with pytest.raises(InnerFailure, match="outer item 1"):
            bounded(lambda: map_on_two(first, [0, 1, 2, 3]))
    else:
        bounded(lambda: map_on_two(first, [0, 1, 2, 3]))
    assert lane_threads() == []

    helper_took_one = threading.Event()

    def run():
        caller = threading.get_ident()

        def item(y):
            if threading.get_ident() != caller:
                helper_took_one.set()
            elif y == 0:
                assert helper_took_one.wait(WAIT_S)
            return map_on_two(lambda z: 10 * y + z, [0, 1])

        return map_on_two(item, [0, 1, 2])

    assert bounded(run) == [[0, 1], [10, 11], [20, 21]]
    assert helper_took_one.is_set()


def test_a_lone_outer_item_keeps_the_helper_for_its_own_items(helper_pays):
    # one outer item runs inline, so its inner map is a top-level call
    helper_took_one = threading.Event()

    def run():
        caller = threading.get_ident()

        def run_inner(y):
            if threading.get_ident() != caller:
                helper_took_one.set()
            elif y == 0:
                assert helper_took_one.wait(WAIT_S)
            return y

        return map_on_two(lambda x: map_on_two(run_inner, [0, 1, 2]), [0])

    assert bounded(run) == [[0, 1, 2]]
    assert helper_took_one.is_set()


def test_without_the_helper_every_item_runs_on_the_caller_in_order(monkeypatch):
    monkeypatch.setattr(parallel, "_helper_thread_pays", lambda: False)
    ran = []

    def run():
        def run_outer(x):
            return map_on_two(lambda y: ran.append((x, y, threading.get_ident())), [0, 1])

        map_on_two(run_outer, [0, 1, 2])
        return threading.get_ident()

    caller = bounded(run)
    assert ran == [(x, y, caller) for x in range(3) for y in range(2)]
