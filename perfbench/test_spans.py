"""Tests of the traced run's arithmetic and of the wrappers binding.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import Span, layer_totals, percentile, self_times  # noqa: E402


def span(sid, parent, layer, wall, cpu, n=0.0):
    """A span starting at 0 on both clocks, lasting *wall* / *cpu*."""
    return Span(sid, parent, 1, layer, layer, 0.0, wall, 0.0, cpu, n)


def test_self_time_subtracts_direct_children_only():
    # rpc(10 wall, 6 cpu) -> server(7, 5) -> db(3, 1) -> schema(1, 1)
    tree = [
        span(1, 0, "rpc", 10.0, 6.0),
        span(2, 1, "server", 7.0, 5.0),
        span(3, 2, "db", 3.0, 1.0),
        span(4, 3, "schema", 1.0, 1.0),
    ]
    got = {t.span.layer: (t.wall, t.busy, t.wait) for t in self_times(tree)}
    assert got["rpc"] == (3.0, 1.0, 2.0)
    assert got["server"] == (4.0, 4.0, 0.0)
    assert got["db"] == (2.0, 0.0, 2.0)  # a commit that only waited
    assert got["schema"] == (1.0, 1.0, 0.0)


def test_self_times_add_up_to_the_roots():
    tree = [
        span(1, 0, "rpc", 10.0, 6.0),
        span(2, 1, "serialize", 2.0, 2.0),
        span(3, 1, "server", 5.0, 3.0),
        span(4, 3, "locks", 2.0, 0.5),
    ]
    timed = self_times(tree)
    assert sum(t.wall for t in timed) == pytest.approx(10.0)
    assert sum(t.busy for t in timed) == pytest.approx(6.0)


def test_busy_and_wait_totals_per_layer():
    tree = [
        span(1, 0, "db", 4.0, 1.0, n=1),
        span(2, 0, "db", 2.0, 2.0, n=1),
        span(3, 0, "locks", 3.0, 0.0),
    ]
    totals = layer_totals(self_times(tree))
    assert totals["db"].calls == 2
    assert totals["db"].busy == pytest.approx(3.0)
    assert totals["db"].wait == pytest.approx(3.0)
    assert totals["db"].n == 2
    assert totals["locks"].wait == pytest.approx(3.0)


def test_clock_granularity_never_yields_negative_wait():
    timed = self_times([span(1, 0, "cipher", 1.0, 1.0000001)])
    assert timed[0].wait == 0.0


def test_orphan_child_stands_alone():
    timed = self_times([span(7, 99, "db", 2.0, 1.0)])
    assert (timed[0].wall, timed[0].busy) == (2.0, 1.0)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([], 0.99) == 0.0


_REBIND_PROBE = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench import tracer
t = tracer.Tracer()
report = tracer.install(t, tracer.SERVER_LAYERS, server=True)
from repro.net import message, rpc
from repro.bank import replies
from repro.util import serialize
assert report["repro.util.serialize.canonical_dumps"] >= 10, report
assert message.canonical_loads is serialize.canonical_loads
assert replies.canonical_dumps is rpc.canonical_dumps
t.on = True
message.parse_payload(serialize.canonical_dumps({"kind": "response"}))
layers = [s[3] for s in t.spans]
assert layers.count("serialize") == 2, layers
print("ok")
"""


def test_wrappers_rebind_every_importing_module():
    root = str(Path(__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _REBIND_PROBE, root],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
