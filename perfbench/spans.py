"""Self-time arithmetic over a traced run's span tree.

A span is one timed call into a layer, recorded by :mod:`perfbench.tracer`
as a tuple of the fields in :data:`FIELDS`. Spans nest on one thread: a
span's parent is the span that was open on the same thread when it
started, so parent and child share one thread-CPU clock.

* A span's *self* wall time is its wall duration minus the wall durations
  of its direct children; its self CPU time is the same difference over
  thread-CPU time.
* *busy* is self CPU time: work this layer did on its own thread.
* *wait* is self wall time minus busy: time the layer's thread spent
  blocked (a lock, a commit flush, a peer reply) or descheduled while
  another thread held the interpreter.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, NamedTuple

__all__ = ["FIELDS", "Span", "SelfTime", "self_times", "layer_totals", "percentile"]


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a span with no open parent on its thread
    request_id: int
    layer: str
    label: str
    wall_start: float
    wall_end: float
    cpu_start: float
    cpu_end: float
    n: float  # a size the layer reports: bytes, rows, or a wait in seconds


FIELDS = Span._fields


class SelfTime(NamedTuple):
    span: Span
    wall: float
    busy: float

    @property
    def wait(self) -> float:
        # thread-CPU and wall clocks tick at different granularities, so
        # a purely busy span can read a few nanoseconds of negative wait
        return max(0.0, self.wall - self.busy)


def self_times(spans: Iterable[Span]) -> list[SelfTime]:
    """Each span with its self wall and self CPU time.

    A child whose parent was never recorded (tracing switched on while the
    parent was already open) simply stands alone.
    """
    spans = [Span(*s) for s in spans]
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id:
            child_wall[s.parent_id] += s.wall_end - s.wall_start
            child_cpu[s.parent_id] += s.cpu_end - s.cpu_start
    return [
        SelfTime(
            s,
            (s.wall_end - s.wall_start) - child_wall.get(s.span_id, 0.0),
            (s.cpu_end - s.cpu_start) - child_cpu.get(s.span_id, 0.0),
        )
        for s in spans
    ]


class Totals(NamedTuple):
    calls: int
    busy: float
    wait: float
    n: float


def layer_totals(timed: Iterable[SelfTime], key=lambda s: s.layer) -> dict:
    """Sum calls, busy, wait and ``n`` per ``key(span)`` (default: layer)."""
    acc: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for t in timed:
        entry = acc[key(t.span)]
        entry[0] += 1
        entry[1] += t.busy
        entry[2] += t.wait
        entry[3] += t.span.n
    return {k: Totals(*v) for k, v in acc.items()}


def percentile(values: list, q: float) -> float:
    """The *q*-quantile (0..1) by nearest rank; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]
