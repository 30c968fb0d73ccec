"""Per-layer metrics of a traced run.

Each bank process writes the spans its layer wrappers recorded during the
traced window (see :mod:`perfbench.bankproc`); the client's spans are in
this process. Busy and wait are self times (:mod:`perfbench.spans`), so
the layers' busy times add up to the CPU the wrapped calls used, and what
the bank processes spent outside any wrapped call is reported as
``unattributed.busy_us_per_op``.
"""

from __future__ import annotations

import json

from perfbench import load
from perfbench.spans import Span, layer_totals, percentile, self_times

__all__ = ["layer_metrics"]

_US = 1e6


def _scrape_delta(window, prefix: str) -> float:
    """Growth of every scraped series starting with *prefix*, all banks."""
    total = 0.0
    for before, after in zip(window.scrape_before, window.scrape_after):
        for series, value in after.items():
            if series.startswith(prefix):
                total += value - before.get(series, 0.0)
    return total


def _peer_wait(spans: list) -> float:
    """Wait inside RPC client calls made from the 2PC peer step."""
    by_id = {t.span.span_id: t.span for t in spans}
    total = 0.0
    for t in spans:
        span = t.span
        if span.layer != "rpc" or span.label != "client_call":
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.layer == "shard" and parent.label == "peer":
                total += t.wait
                break
            parent = by_id.get(parent.parent_id)
    return total


def layer_metrics(dep, untraced, traced, client_spans: list) -> tuple[dict, list[str]]:
    """``{metric: (value, unit)}`` and a printable layer table."""
    ops = sum(r.attempted for r in traced.results)
    xfers = sum(len(r.latencies.get(load.XPAY, ())) for r in traced.results)
    server = []
    peer_wait = 0.0
    for bank in dep.banks:
        spans = self_times(Span(*s) for s in json.loads(bank.trace_file.read_text())["spans"])
        server.extend(spans)
        peer_wait += _peer_wait(spans)
    by_label = layer_totals(server, key=lambda s: (s.layer, s.label))
    by_layer = layer_totals(server)
    client = layer_totals(self_times(Span(*s) for s in client_spans))

    def tot(layer: str, *labels: str):
        rows = [v for (lay, lab), v in by_label.items()
                if lay == layer and (not labels or lab in labels)]
        return (sum(r.calls for r in rows), sum(r.busy for r in rows),
                sum(r.wait for r in rows), sum(r.n for r in rows))

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def per_xfer(value: float) -> float:
        return value / xfers if xfers else 0.0

    def per_call(value: float, calls: int) -> float:
        return value / calls if calls else 0.0

    m: dict[str, tuple[float, str]] = {}
    calls, busy, _, n = tot("serialize")
    m["serialize.calls_per_op"] = (per_op(calls), "1/op")
    m["serialize.busy_us_per_op"] = (per_op(busy * _US), "us")
    m["serialize.bytes_per_op"] = (per_op(n), "B")
    _, busy, _, n = tot("cipher")
    m["cipher.busy_us_per_op"] = (per_op(busy * _US), "us")
    m["cipher.bytes_per_op"] = (per_op(n), "B")
    m["gsi.busy_us_per_op"] = (per_op(tot("gsi")[1] * _US), "us")
    m["gsi.handshakes"] = (tot("gsi", "step", "resume")[3], "count")
    m["rpc.busy_us_per_op"] = (per_op(tot("rpc")[1] * _US), "us")
    m["rpc.queue_wait_us_per_op"] = (per_op(tot("rpc", "dispatch_task")[3] * _US), "us")
    m["server.busy_us_per_op"] = (per_op(tot("server")[1] * _US), "us")
    calls, _, wait, _ = tot("locks", "acquire")
    m["locks.acquires_per_op"] = (per_op(calls), "1/op")
    m["locks.wait_us_per_op"] = (per_op(wait * _US), "us")
    m["accounts.busy_us_per_op"] = (per_op(tot("accounts")[1] * _US), "us")
    m["db.txns_per_op"] = (per_op(tot("db", "commit")[0]), "1/op")
    m["db.rows_written_per_op"] = (per_op(tot("db", "write")[0]), "1/op")
    m["db.busy_us_per_op"] = (per_op(tot("db", "write", "read")[1] * _US), "us")
    _, busy, wait, _ = tot("db", "commit")
    m["db.commit_busy_us_per_op"] = (per_op(busy * _US), "us")
    m["db.commit_wait_us_per_op"] = (per_op(wait * _US), "us")
    calls, busy, _, n = tot("db", "select")
    m["db.select_calls_per_op"] = (per_op(calls), "1/op")
    m["db.select_rows_per_call"] = (per_call(n, calls), "rows")
    m["db.select_busy_us_per_call"] = (per_call(busy * _US, calls), "us")
    calls, busy, _, _ = tot("schema")
    m["schema.validations_per_op"] = (per_op(calls), "1/op")
    m["schema.busy_us_per_op"] = (per_op(busy * _US), "us")
    m["replies.lookup_busy_us_per_op"] = (per_op(tot("replies", "lookup")[1] * _US), "us")
    m["replies.store_busy_us_per_op"] = (per_op(tot("replies", "store")[1] * _US), "us")
    stores = [t.span.wall_end - t.span.wall_start for t in server
              if t.span.layer == "replies" and t.span.label == "store"]
    m["replies.store_p99_us"] = (percentile(stores, 0.99) * _US, "us")
    calls, busy, _, _ = tot("signature", "sign")
    m["signature.signs_per_op"] = (per_op(calls), "1/op")
    m["signature.sign_busy_us_per_op"] = (per_op(busy * _US), "us")
    m["signature.verifies_per_op"] = (per_op(tot("signature", "verify")[0]), "1/op")
    hits = _scrape_delta(traced, "crypto_verify_cache_hits")
    misses = _scrape_delta(traced, "crypto_verify_cache_misses")
    m["signature.verify_cache_hit_ratio"] = (per_call(hits, hits + misses), "frac")
    m["obs.spans_per_op"] = (per_op(tot("obs", "emit")[0]), "1/op")
    m["obs.span_sink_busy_us_per_op"] = (per_op(tot("obs", "emit", "sink")[1] * _US), "us")
    m["obs.usage_busy_us_per_op"] = (per_op(tot("obs", "usage", "slo")[1] * _US), "us")
    m["obs.diag_busy_us_per_op"] = (per_op(tot("obs", "diag")[1] * _US), "us")
    m["shard.coordinate_busy_us_per_xfer"] = (
        per_xfer(tot("shard", "coordinate", "guard", "peer")[1] * _US), "us")
    m["shard.peer_rpc_wait_us_per_xfer"] = (per_xfer(peer_wait * _US), "us")
    m["shard.apply_busy_us_per_xfer"] = (per_xfer(tot("shard", "apply")[1] * _US), "us")
    m["shard.bounces_per_op"] = (per_op(_scrape_delta(traced, "bank_shard_bounces")), "1/op")
    m["replication.fetches_per_op"] = (per_op(tot("replication", "fetch")[0]), "1/op")
    m["replication.ship_busy_us_per_op"] = (
        per_op(tot("replication", "ship", "fetch")[1] * _US), "us")
    m["replication.bytes_per_op"] = (per_op(tot("replication", "ship")[3]), "B")
    m["replication.apply_busy_us_per_op"] = (per_op(tot("replication", "apply")[1] * _US), "us")

    def client_busy(layer: str) -> float:
        entry = client.get(layer)
        return per_op(entry.busy * _US) if entry else 0.0

    m["client.serialize_busy_us_per_op"] = (client_busy("serialize"), "us")
    m["client.cipher_busy_us_per_op"] = (client_busy("cipher"), "us")
    m["client.verify_busy_us_per_op"] = (client_busy("signature"), "us")

    server_cpu_us = per_op(traced.server_cpu * _US)
    attributed_us = per_op(sum(v.busy for v in by_layer.values()) * _US)
    untraced_ops = sum(r.attempted for r in untraced.results)
    untraced_us = untraced.server_cpu * _US / untraced_ops if untraced_ops else 0.0
    # the two windows ran minutes apart: compare them at the same VM speed
    untraced_us *= traced.slowdown / untraced.slowdown
    m["unattributed.busy_us_per_op"] = (server_cpu_us - attributed_us, "us")
    m["trace.server_cpu_us_per_op"] = (server_cpu_us, "us")
    m["trace.attributed_frac"] = (attributed_us / server_cpu_us if server_cpu_us else 0.0, "frac")
    m["trace.overhead_frac"] = (server_cpu_us / untraced_us - 1.0 if untraced_us else 0.0, "frac")

    table = [f"  {'layer':12s} {'calls/op':>9s} {'busy us/op':>11s} {'wait us/op':>11s} "
             f"{'share':>6s}"]
    for layer, v in sorted(by_layer.items(), key=lambda kv: -kv[1].busy):
        table.append(
            f"  {layer:12s} {per_op(v.calls):9.1f} {per_op(v.busy * _US):11.1f} "
            f"{per_op(v.wait * _US):11.1f} "
            f"{(per_op(v.busy * _US) / server_cpu_us if server_cpu_us else 0):6.1%}"
        )
    table.append(f"  {'(outside)':12s} {'':9s} {server_cpu_us - attributed_us:11.1f}")
    return m, table
