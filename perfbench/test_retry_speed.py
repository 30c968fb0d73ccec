"""Tests of the eviction-race retry and of the speed normalisation.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.errors import AccountError, NotFoundError, TransportError  # noqa: E402

from perfbench.load import EvictionRaceRetry, lost_eviction_race  # noqa: E402
from perfbench.run import at_reference_speed  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402


def test_race_is_recognised_however_often_its_message_was_quoted():
    direct = NotFoundError("no row ('k:1',) in 'replies'")
    reraised = NotFoundError(str(direct))  # the client re-raises by class
    aborted = AccountError("NotFoundError: no row ('2pc:ab',) in 'replies'")
    for exc in (direct, reraised, aborted):
        assert lost_eviction_race(exc)
    assert not lost_eviction_race(NotFoundError("no row ('01-0001-1',) in 'accounts'"))


def test_only_the_race_is_resent_and_every_resend_is_counted():
    policy = EvictionRaceRetry()
    race = NotFoundError("no row ('k:1',) in 'replies'")
    assert policy.is_retryable(race)
    assert not policy.is_retryable(AccountError("NotFoundError: no row ('x',) in 'replies'"))
    assert not policy.is_retryable(NotFoundError("no row ('a',) in 'accounts'"))
    assert not policy.is_retryable(TransportError("connection reset"))
    policy.on_retry(1, race)
    policy.on_retry(2, race)
    assert policy.retried == {"NotFoundError": 2}


def test_reference_speed_scales_timing_metrics_only():
    raw = {
        "ops_per_s": (200.0, "1/s"), "p50_ms": (6.0, "ms"), "p99_ms": (60.0, "ms"),
        "p50_ms.cross_shard": (8.0, "ms"), "p99_ms.cross_shard": (80.0, "ms"),
        "server_cpu_ms_per_op": (5.0, "ms"), "client_cpu_ms_per_op": (0.5, "ms"),
        "wal_bytes_per_op": (4600.0, "B"), "setup_s": (10.0, "s"),
    }
    # a VM running 25% slower than the reference during the window
    got = at_reference_speed(raw, window_slowdown=1.25, setup_slowdown=2.0)
    assert got["ops_per_s"] == (250.0, "1/s")
    assert got["p50_ms"] == (4.8, "ms")
    assert got["server_cpu_ms_per_op"] == (4.0, "ms")
    assert got["wal_bytes_per_op"] == raw["wal_bytes_per_op"]
    assert got["setup_s"] == (5.0, "s")


def test_probe_samples_and_stops():
    probe = SpeedProbe()
    try:
        started = time.monotonic()
        time.sleep(1.0)
        slowdown = probe.slowdown(started, time.monotonic())
        assert 0.1 < slowdown < 10.0
        with pytest.raises(RuntimeError):
            probe.slowdown(0.0, 1.0)  # long before the probe started
    finally:
        probe.stop()
    assert probe._proc.returncode is not None
