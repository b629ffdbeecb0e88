"""Benchmark-side tracer: spans around egoreg's public functions.

`Tracer.installed()` replaces each target name in the namespace the
pipeline calls it through (for example `egoreg.registration.attach_context`,
not `egoreg.features.attach_context`) with a wrapper that records a span,
and puts the originals back on exit, so untraced code runs unpatched.

A span holds a name, start and end (perf_counter seconds), the id of the
enclosing span, and the request id current when it opened (the clip or
ingest id). Observers attached to some targets read arguments and results
after the span closes and add to named counters, so ratios are measured at
the layer boundary where the work happens.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    request: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "request": self.request}


@dataclass(frozen=True)
class Target:
    """One name to wrap: `attr` in `module`, reported as `<layer>.<attr>`."""

    module: object
    attr: str
    layer: str
    observe: object = None  # callable(counters, args, kwargs, result) or None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    request: str | None = None

    def __post_init__(self):
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sp = Span(len(self.spans), stack[-1] if stack else None, name,
                  time.perf_counter(), request=self.request)
        self.spans.append(sp)
        stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def root(self, name: str, request: str):
        """Open a top-level span for one request; nested spans inherit its id."""
        self.request = request
        return self.span(name)

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        originals = []
        try:
            for t in targets:
                fn = getattr(t.module, t.attr)
                originals.append((t.module, t.attr, fn))
                setattr(t.module, t.attr, self.wrap(t.name, fn, t.observe))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children[sp.id], key=lambda c: c.start):
            lo = max(ch.start, cursor)
            hi = min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


def root_of(spans: list[Span]) -> dict[int, int]:
    """Span id -> id of the outermost span that encloses it."""
    out: dict[int, int] = {}
    for sp in spans:  # parents are recorded before their children
        out[sp.id] = sp.id if sp.parent is None else out[sp.parent]
    return out
