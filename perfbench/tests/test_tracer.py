"""Span bookkeeping: self times, nesting, and patch restoration."""

import time
import types

import pytest

from tracer import Span, Target, Tracer, root_of, self_times


def _tree() -> list[Span]:
    # root [0, 10] with children [1, 4] (grandchild [2, 3]) and [5, 9];
    # a second root [20, 21] with no children
    return [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.inner", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 9.0),
        Span(4, None, "other", 20.0, 21.0),
    ]


def test_self_times_sum_to_root_duration():
    spans = _tree()
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0}
    roots = root_of(spans)
    for root in (sp for sp in spans if sp.parent is None):
        total = sum(selfs[sp.id] for sp in spans if roots[sp.id] == root.id)
        assert total == pytest.approx(root.duration)


def test_recorded_spans_nest_and_sum_to_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():  # calls through the namespace, as the pipeline does
        ns.leaf()
        time.sleep(0.001)
        ns.leaf()

    ns = types.SimpleNamespace(leaf=leaf, middle=middle)
    with tracer.installed([Target(ns, "leaf", "x"), Target(ns, "middle", "x")]):
        tracer.request = "r1"
        with tracer.span("root"):
            ns.middle()
            ns.leaf()
    spans = tracer.spans
    assert [sp.name for sp in spans] == ["root", "x.middle", "x.leaf", "x.leaf", "x.leaf"]
    assert [sp.parent for sp in spans] == [None, 0, 1, 1, 0]
    assert {sp.request for sp in spans} == {"r1"}
    selfs = self_times(spans)
    assert sum(selfs.values()) == pytest.approx(spans[0].duration, abs=1e-9)
    assert all(v >= 0.0 for v in selfs.values())


def test_installed_restores_originals_even_on_error():
    def f(x):
        return x + 1

    ns = types.SimpleNamespace(f=f)
    tracer = Tracer()
    seen = []
    with pytest.raises(RuntimeError):
        with tracer.installed([Target(ns, "f", "m", lambda c, a, kw, out: seen.append(out))]):
            assert ns.f is not f
            assert ns.f(1) == 2
            raise RuntimeError("boom")
    assert ns.f is f
    assert seen == [2]
    assert [sp.name for sp in tracer.spans] == ["m.f"]
