"""`map_on_two` nesting: a call from inside a running item stays on its thread."""

import threading

import pytest

from egoreg import parallel
from egoreg.parallel import map_on_two


class InnerFailure(Exception):
    pass


@pytest.fixture
def helper_pays(monkeypatch):
    monkeypatch.setattr(parallel, "_helper_thread_pays", lambda: True)


def nested(threads, outer, inner):
    """map_on_two over `outer`, each item mapping `inner` items through it.

    Every inner item y of outer item x records (x, y, its thread, the
    thread of the outer item).
    """
    def run_outer(x):
        caller = threading.get_ident()

        def run_inner(y):
            threads.append((x, y, threading.get_ident(), caller))
            return 10 * x + y

        return map_on_two(run_inner, inner)

    return map_on_two(run_outer, outer)


def test_a_nested_call_starts_no_second_thread(helper_pays):
    threads = []
    before = threading.active_count()
    nested(threads, [1, 2, 3], [0, 1, 2, 3])
    assert threading.active_count() == before
    # each inner item ran on the thread of the outer item that mapped it
    assert all(ran == caller for _, _, ran, caller in threads)
    # main thread plus one helper: the outer map's odd item went off the caller
    assert len({ran for _, _, ran, _ in threads}) == 2
    assert {ran for x, _, ran, _ in threads if x == 2} != {threading.get_ident()}


def test_nested_results_come_back_in_input_order(helper_pays):
    threads = []
    assert nested(threads, [1, 2, 3, 4, 5], [0, 1, 2]) == \
        [[10 * x + y for y in (0, 1, 2)] for x in (1, 2, 3, 4, 5)]


def test_a_nested_error_surfaces_with_its_type_after_the_helper_is_joined(helper_pays):
    raised_in = []

    def run_outer(x):
        def run_inner(y):
            if x == 2 and y == 1:
                raised_in.append(threading.current_thread() is threading.main_thread())
                raise InnerFailure(f"item {x}.{y}")
            return y

        return map_on_two(run_inner, [0, 1, 2])

    before = threading.active_count()
    with pytest.raises(InnerFailure, match="item 2.1"):
        map_on_two(run_outer, [1, 2, 3])
    # outer item 2 ran on the helper, and so did its inner items
    assert raised_in == [False]
    assert threading.active_count() == before


@pytest.mark.parametrize("fail", [False, True], ids=["after-a-run", "after-an-error"])
def test_a_later_top_level_call_uses_the_helper_again(helper_pays, fail):
    def run_outer(x):
        if fail and x == 0:
            raise InnerFailure("outer item on the caller")
        return map_on_two(lambda y: y, [0, 1])

    if fail:
        with pytest.raises(InnerFailure):
            map_on_two(run_outer, [0, 1])
    else:
        map_on_two(run_outer, [0, 1])
    ran = map_on_two(lambda y: threading.current_thread() is threading.main_thread(), [0, 1])
    assert ran == [True, False]


def test_a_lone_outer_item_keeps_the_helper_for_its_own_items(helper_pays):
    threads = []
    nested(threads, [1], [0, 1, 2])
    main = threading.get_ident()
    assert [ran == main for _, _, ran, _ in sorted(threads)] == [True, False, True]
