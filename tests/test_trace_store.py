"""Durable spans: recording, the SPAN store, trace CLI, exporter, gate.

The PR 3 subsystem end to end — spans recorded around RPC/bank dispatch,
flushed to sinks, persisted as SPAN rows through the WAL'd database
(surviving crash recovery), queried back by ``gridbank trace``, metrics
rendered as Prometheus text, and the benchmark-trajectory gate logic.
"""

import importlib.util
import json
import random
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import _load_bank, main
from repro.db.database import Database
from repro.errors import (
    InsufficientFundsError,
    TransactionError,
    TransactionRequiredError,
    ValidationError,
)
from repro.net.retry import BREAKER_OPEN, CircuitBreaker
from repro.net.tcp import TCPServer
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.store import JsonlSpanSink, SpanStore, render_waterfall, span_schema
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits

from tests.test_exactly_once import world  # noqa: F401 - reuse the crash harness


# -- span recording ----------------------------------------------------------


class TestSpanRecording:
    def test_span_record_shape_and_sink_delivery(self):
        records = []
        with obs_trace.sink_installed(records.append):
            with obs_trace.span("unit.work", kind="test", flavour="plain") as rec:
                rec.add_event("milestone", step=1)
        assert len(records) == 1
        record = records[0]
        assert record["name"] == "unit.work"
        assert record["kind"] == "test"
        assert record["status"] == "ok"
        assert record["error_type"] == ""
        assert record["attrs"] == {"flavour": "plain"}
        assert record["duration_seconds"] >= 0.0
        assert record["events"][0]["name"] == "milestone"
        assert record["events"][0]["fields"] == {"step": 1}
        assert record["trace_id"] and record["span_id"]

    def test_nested_spans_share_trace_and_link_parent(self):
        records = []
        with obs_trace.sink_installed(records.append):
            with obs_trace.span("outer"):
                with obs_trace.span("inner"):
                    pass
        inner, outer = records  # inner closes first
        assert inner["name"] == "inner"
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]

    def test_exception_marks_error_and_still_flushes(self):
        records = []
        with obs_trace.sink_installed(records.append):
            with pytest.raises(ValidationError):
                with obs_trace.span("doomed"):
                    raise ValidationError("boom")
        assert records[0]["status"] == "error"
        assert records[0]["error_type"] == "ValidationError"

    def test_broken_sink_is_swallowed_into_counter(self):
        before = obs_metrics.counter("obs.span_sink_errors").value

        def broken(_record):
            raise RuntimeError("sink is broken")

        with obs_trace.sink_installed(broken):
            with obs_trace.span("survives"):
                pass
        assert obs_metrics.counter("obs.span_sink_errors").value == before + 1

    def test_add_event_outside_any_span_is_a_noop(self):
        assert obs_trace.add_event("nobody.listening", x=1) is False


class TestBreakerEvents:
    def test_breaker_transition_lands_on_active_span(self):
        records = []
        clock = VirtualClock()
        breaker = CircuitBreaker(
            "evt-test", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        with obs_trace.sink_installed(records.append):
            with obs_trace.span("guarded.call"):
                breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        events = records[0]["events"]
        assert any(
            e["name"] == "breaker.transition"
            and e["fields"]["to_state"] == BREAKER_OPEN
            for e in events
        )


# -- the SPAN store ----------------------------------------------------------


class TestSpanStore:
    def _record(self, **overrides):
        record = {
            "trace_id": "t" * 16,
            "span_id": "s" * 8,
            "parent_id": "",
            "name": "unit.op",
            "kind": "internal",
            "status": "ok",
            "error_type": "",
            "start_epoch": 1000.0,
            "duration_seconds": 0.25,
            "attrs": {"k": "v"},
            "events": [{"offset_seconds": 0.1, "name": "e", "fields": {"n": 1}}],
        }
        record.update(overrides)
        return record

    def test_store_and_query_roundtrip(self):
        store = SpanStore(Database())
        store(self._record())
        [back] = store.spans_for_trace("t" * 16)
        assert back["name"] == "unit.op"
        assert back["attrs"] == {"k": "v"}
        assert back["events"][0]["fields"] == {"n": 1}
        assert back["duration_seconds"] == 0.25

    def test_long_strings_truncated_not_refused(self):
        store = SpanStore(Database())
        store(self._record(name="n" * 500, error_type="E" * 500, status="error"))
        [back] = store.spans_for_trace("t" * 16)
        assert back["name"] == "n" * 64
        assert back["error_type"] == "E" * 64

    def test_insert_deferred_while_transaction_open(self):
        db = Database()
        store = SpanStore(db)
        with db.transaction():
            store(self._record())
            assert len(store) == 0  # must not ride the open transaction
        store.flush()
        assert len(store) == 1

    def test_next_record_flushes_earlier_deferred_ones(self):
        db = Database()
        store = SpanStore(db)
        with db.transaction():
            store(self._record(span_id="aaaa0001"))
        store(self._record(span_id="aaaa0002"))
        assert len(store) == 2

    def test_eviction_keeps_newest(self):
        store = SpanStore(Database(), max_rows=300)
        for i in range(601):
            store(self._record(span_id=f"sp{i:06d}", trace_id=f"tr{i:06d}"))
        assert len(store) <= 300
        assert store.spans_for_trace("tr000600")  # newest survived

    def test_eviction_is_one_journal_line_and_recovers(self, tmp_path):
        db = Database(path=tmp_path)
        store = SpanStore(db, max_rows=300)
        db.recover()
        for i in range(300):
            store(self._record(span_id=f"sp{i:06d}"))
        _, lines = db.replication_position()
        store(self._record(span_id="sp000300"))  # full: evicts a 256-row batch
        assert db.replication_position()[1] - lines == 2  # the eviction + the insert
        assert len(store) == 300 - 256 + 1
        db.close()
        reopened = Database(path=tmp_path)
        recovered = SpanStore(reopened, max_rows=300)
        reopened.recover()
        assert len(recovered) == 45
        assert recovered.spans_for_trace("t" * 16)[-1]["span_id"] == "sp000300"
        reopened.close()

    def test_slowest_and_grep(self):
        store = SpanStore(Database())
        store(self._record(span_id="fast0000", name="op.fast", duration_seconds=0.01))
        store(self._record(span_id="slow0000", name="op.slow", duration_seconds=2.0))
        slowest = store.slowest(limit=1)
        assert slowest[0]["name"] == "op.slow"
        assert [r["name"] for r in store.grep("op.fast")] == ["op.fast"]
        assert store.grep("no-such-needle") == []

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "spans" / "out.jsonl"
        sink = JsonlSpanSink(path)
        sink(self._record())
        sink(self._record(span_id="bbbb0001"))
        records = JsonlSpanSink.read(path)
        assert len(records) == 2
        assert records[0]["name"] == "unit.op"

    def test_waterfall_renders_hierarchy_events_and_ledger(self):
        records = [
            self._record(span_id="root0000", name="rpc.call", start_epoch=1000.0),
            self._record(
                span_id="chld0000", parent_id="root0000",
                name="rpc.server.dispatch", start_epoch=1000.1,
            ),
        ]
        ledger = [{"_table": "transfers", "TransactionID": 7, "TraceID": "t" * 16}]
        text = render_waterfall(records, ledger)
        assert "rpc.call" in text and "rpc.server.dispatch" in text
        assert text.index("rpc.call") < text.index("rpc.server.dispatch")
        assert "transfers" in text and "TransactionID=7" in text
        assert "+" in text  # offsets rendered
        assert render_waterfall([]) == "(no spans)"


# -- typed transaction guard -------------------------------------------------


class TestTransactionRequired:
    def test_require_transaction_raises_typed_error(self):
        db = Database()
        db.create_table(span_schema())
        with pytest.raises(TransactionRequiredError):
            db.require_transaction("test writes")
        with db.transaction():
            db.require_transaction("test writes")  # no raise inside

    def test_subclass_of_transaction_error(self):
        assert issubclass(TransactionRequiredError, TransactionError)

    def test_preserved_over_rpc(self, world):  # noqa: F811
        bank = world["bank"]()
        bank.endpoint.register(
            "Test.RequireTxn",
            lambda subject, params: bank.db.require_transaction("guarded effect"),
        )
        with pytest.raises(TransactionRequiredError):
            world["alice"]._client.call("Test.RequireTxn")


# -- trace propagation edge cases over real dispatch -------------------------


class TestDispatchTracing:
    def test_spans_cover_client_server_and_bank_op(self, world):  # noqa: F811
        records = []
        with obs_trace.sink_installed(records.append):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(5)
            )
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], record)
        client = by_name["rpc.call"]
        server = by_name["rpc.server.dispatch"]
        bank_op = by_name["bank.op.direct_transfer"]
        assert client["trace_id"] == server["trace_id"] == bank_op["trace_id"]
        assert server["parent_id"] == client["span_id"]
        assert bank_op["parent_id"] == server["span_id"]
        # the ledger rows carry the same trace id
        bank = world["bank"]()
        transfer = bank.db.select("transfers")[-1]
        assert transfer["TraceID"] == client["trace_id"]

    def test_malformed_trace_envelope_roots_fresh_server_trace(self, world, monkeypatch):  # noqa: F811
        records = []
        monkeypatch.setattr(obs_trace, "to_wire", lambda span: {"bogus": True})
        with obs_trace.sink_installed(records.append):
            details = world["alice"]._client.call(
                "RequestAccountDetails", account_id=world["alice_account"]
            )
        assert details["AccountID"] == world["alice_account"]
        server = next(r for r in records if r["name"] == "rpc.server.dispatch")
        client = next(r for r in records if r["name"] == "rpc.call")
        # the wire trace was garbage, so the server rooted its own trace
        assert server["parent_id"] == ""
        assert server["trace_id"] != client["trace_id"]

    def test_dispatch_error_still_flushes_error_span(self, world):  # noqa: F811
        records = []
        with obs_trace.sink_installed(records.append):
            with pytest.raises(InsufficientFundsError):
                world["alice"].request_direct_transfer(
                    world["alice_account"], world["gsp_account"], Credits(10**9)
                )
        server = next(r for r in records if r["name"] == "rpc.server.dispatch")
        assert server["status"] == "error"
        assert server["error_type"] == "InsufficientFundsError"

    def test_span_rows_survive_crash_recovery(self, world):  # noqa: F811
        bank = world["bank"]()
        with obs_trace.sink_installed(bank.spans):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(7)
            )
        trace_id = bank.db.select("transfers")[-1]["TraceID"]
        assert trace_id
        assert bank.spans.spans_for_trace(trace_id)
        # crash + WAL replay into a fresh process-equivalent
        restarted = world["restart_bank"]()
        revived = restarted.spans.spans_for_trace(trace_id)
        names = {r["name"] for r in revived}
        assert "rpc.server.dispatch" in names
        assert "bank.op.direct_transfer" in names
        # and the waterfall joins spans with the recovered ledger row
        text = render_waterfall(
            revived,
            [{"_table": "transfers", **row}
             for row in restarted.db.select("transfers")
             if row["TraceID"] == trace_id],
        )
        assert "bank.op.direct_transfer" in text
        assert "transfers" in text


# -- exponential buckets -----------------------------------------------------


class TestExponentialBuckets:
    def test_generator_values_and_validation(self):
        assert obs_metrics.exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            obs_metrics.exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            obs_metrics.exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            obs_metrics.exponential_buckets(1.0, 2.0, 0)

    def test_default_buckets_configurable_for_new_histograms(self):
        original = obs_metrics.default_latency_buckets()
        try:
            obs_metrics.set_default_latency_buckets((0.1, 1.0, 10.0))
            histogram = obs_metrics.Histogram("cfg.test")
            assert histogram.buckets == (0.1, 1.0, 10.0)
        finally:
            obs_metrics.set_default_latency_buckets(original)
        assert obs_metrics.Histogram("cfg.test2").buckets == original

    def test_snapshot_shape_unchanged(self):
        histogram = obs_metrics.Histogram("shape.test")
        histogram.observe(0.5)
        assert set(histogram.summary()) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99", "buckets",
        }
        # cumulative pairs, ending at the +Inf overflow = total count
        buckets = histogram.summary()["buckets"]
        assert buckets[-1] == ["+Inf", 1]
        assert [count for _, count in buckets] == sorted(count for _, count in buckets)


# -- Prometheus export -------------------------------------------------------


class TestPrometheusExport:
    def _snapshot(self):
        return {
            "counters": {"bank.dedup_hits": 3.0, "rpc.client.retries{method=Pay}": 2.0},
            "gauges": {"rpc.breaker.state{breaker=bank}": 2.0},
            "histograms": {
                "rpc.client.call_seconds{method=Pay}": {
                    "count": 10, "sum": 1.5, "mean": 0.15, "min": 0.1,
                    "max": 0.2, "p50": 0.14, "p95": 0.19, "p99": 0.2,
                }
            },
        }

    def test_render_types_labels_and_quantiles(self):
        text = obs_export.render_prometheus(self._snapshot())
        assert "# TYPE bank_dedup_hits counter" in text
        assert "bank_dedup_hits 3" in text
        assert '# TYPE rpc_breaker_state gauge' in text
        assert 'rpc_breaker_state{breaker="bank"} 2' in text
        assert "# TYPE rpc_client_call_seconds summary" in text
        assert 'rpc_client_call_seconds{method="Pay",quantile="0.5"} 0.14' in text
        assert 'rpc_client_call_seconds_sum{method="Pay"} 1.5' in text
        assert 'rpc_client_call_seconds_count{method="Pay"} 10' in text

    def test_file_exporter_atomic_write(self, tmp_path):
        out = tmp_path / "metrics.prom"
        exporter = obs_export.FileExporter(out, snapshot_fn=self._snapshot)
        exporter.write_once()
        assert "bank_dedup_hits 3" in out.read_text()

    def test_http_exporter_serves_scrapes(self):
        exporter = obs_export.HTTPExporter(port=0, snapshot_fn=self._snapshot).start()
        try:
            url = f"http://127.0.0.1:{exporter.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                assert "0.0.4" in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert 'rpc_breaker_state{breaker="bank"} 2' in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/nope", timeout=5
                )
        finally:
            exporter.stop()


# -- trajectory recorder + regression gate (logic, no subprocess) ------------


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPO = Path(__file__).resolve().parent.parent
trajectory = _load_module(REPO / "benchmarks" / "trajectory.py", "gb_trajectory")
gate = _load_module(REPO / "tools" / "check_bench_regression.py", "gb_bench_gate")


class TestTrajectory:
    def _report(self, mean):
        return {
            "benchmarks": [
                {
                    "fullname": "benchmarks/bench_x.py::test_y",
                    "stats": {"mean": mean, "rounds": 5},
                }
            ]
        }

    def _sidecar(self):
        return {
            "benchmarks/bench_x.py::test_y": {
                "histograms": {
                    "rpc.client.call_seconds": {
                        "count": 50, "p50": 0.01, "p95": 0.02, "p99": 0.03,
                    },
                    "minor.histogram": {"count": 2, "p50": 9.0, "p95": 9.0, "p99": 9.0},
                }
            }
        }

    def test_entry_schema_and_sidecar_join(self):
        entry = trajectory.build_entry(self._report(0.01), self._sidecar(), quick=True)
        assert entry["schema"] == 1
        assert entry["quick"] is True
        assert entry["commit"]
        assert entry["recorded_at"].endswith("Z")
        scenario = entry["scenarios"]["benchmarks/bench_x.py::test_y"]
        assert scenario["ops_per_second"] == pytest.approx(100.0)
        # the hot-path histogram (highest count) supplies the percentiles
        assert scenario["latency_metric"] == "rpc.client.call_seconds"
        assert scenario["p99"] == 0.03

    def test_append_builds_a_list(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        entry = trajectory.build_entry(self._report(0.01), {}, quick=False)
        assert trajectory.append_entry(entry, out) == 1
        assert trajectory.append_entry(entry, out) == 2
        history = json.loads(out.read_text())
        assert isinstance(history, list) and len(history) == 2

    def test_gate_exits_3_with_fewer_than_two_entries(self, tmp_path, capsys):
        # exit 3 is the distinct "no baseline yet" code: not a pass (0),
        # not a regression (1) — CI tolerates it explicitly
        out = tmp_path / "BENCH_TRAJECTORY.json"
        assert gate.main(["--file", str(out)]) == 3  # no file at all
        entry = trajectory.build_entry(self._report(0.01), {}, quick=False)
        trajectory.append_entry(entry, out)
        assert gate.main(["--file", str(out)]) == 3  # baseline only
        assert "make bench-record" in capsys.readouterr().out

    def test_gate_fails_on_regression_and_passes_within_threshold(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False), out
        )
        # 10% slower: within the 20% budget
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.011), {}, quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 0
        # 50% slower than the previous full entry: gate trips
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.022), {}, quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 1

    def _sidecar_p95(self, p95):
        return {
            "benchmarks/bench_x.py::test_y": {
                "histograms": {
                    "rpc.client.call_seconds": {
                        "count": 50, "p50": p95 / 2, "p95": p95, "p99": p95 * 1.5,
                    },
                }
            }
        }

    def test_gate_fails_on_p95_growth_even_with_steady_ops(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), self._sidecar_p95(0.020), quick=False), out
        )
        # same throughput, p95 +20%: within the 25% tail budget
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), self._sidecar_p95(0.024), quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 0
        # same throughput again, but p95 +150% vs prior entry: gate trips
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), self._sidecar_p95(0.060), quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 1
        # a tighter ops threshold does not excuse the tail, a looser p95 one does
        assert gate.main(["--file", str(out), "--p95-threshold", "2.0"]) == 0

    def test_gate_normalizes_by_machine_calibration(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        # baseline on a fast machine: 100 ops/s at calibration 2M
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False, calibration=2e6), out
        )
        # the box slowed to half speed and the scenario slowed with it:
        # raw drop is 40% (gate limit 20%) but calibrated it's a wash
        trajectory.append_entry(
            trajectory.build_entry(self._report(1 / 60.0), {}, quick=False, calibration=1e6), out
        )
        assert gate.main(["--file", str(out)]) == 0
        # same half-speed machine, but the scenario lost 50% even after
        # scaling: a real code regression the calibration must NOT excuse
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.04), {}, quick=False, calibration=1e6), out
        )
        assert gate.main(["--file", str(out)]) == 1

    def test_gate_rebaselines_when_only_one_entry_is_calibrated(self, tmp_path, capsys):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        # uncalibrated baseline (recorded before the probe existed),
        # calibrated latest with a catastrophic raw drop: no comparison
        # is possible, the gate must re-baseline loudly instead of failing
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False), out
        )
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.05), {}, quick=False, calibration=1e6), out
        )
        assert gate.main(["--file", str(out)]) == 0
        assert "RE-BASELINING" in capsys.readouterr().out

    def test_gate_never_compares_quick_against_full(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False), out
        )
        # a terrible quick run must not be judged against the full baseline;
        # with no quick baseline to compare against, that's the distinct
        # "nothing to compare" exit, not a pass
        trajectory.append_entry(
            trajectory.build_entry(self._report(1.0), {}, quick=True), out
        )
        assert gate.main(["--file", str(out)]) == 3


# -- CLI acceptance: Fig.1 pay-before-use, reconstructed after restart -------


class TestTraceCLI:
    def test_show_reconstructs_transfer_after_restart(self, tmp_path, capsys):
        home = str(tmp_path / "bankhome")
        assert main(["init", "--home", home, "--key-bits", "512", "--seed", "7"]) == 0
        alice_cred = str(tmp_path / "alice.gbk")
        gsp_cred = str(tmp_path / "gsp.gbk")
        for name, cred in (("alice", alice_cred), ("gsp", gsp_cred)):
            assert main(
                ["issue-identity", "--home", home, "--organization", "VO",
                 "--name", name, "--out", cred, "--key-bits", "512"]
            ) == 0
        capsys.readouterr()

        # serve in-process with the durable span sink, as cmd_serve does
        bank = _load_bank(Path(home))
        with obs_trace.sink_installed(bank.spans):
            with TCPServer(bank.connection_handler) as server:
                address = f"{server.address[0]}:{server.address[1]}"
                assert main(
                    ["remote-create-account", "--credential", alice_cred,
                     "--address", address]
                ) == 0
                alice_account = capsys.readouterr().out.strip()
                assert main(
                    ["remote-create-account", "--credential", gsp_cred,
                     "--address", address]
                ) == 0
                gsp_account = capsys.readouterr().out.strip()
                bank.admin.deposit(alice_account, Credits(100))
                # Fig.1 pay-before-use: the user pays the GSP up front
                assert main(
                    ["remote-transfer", "--credential", alice_cred,
                     "--address", address, "--from-account", alice_account,
                     "--to-account", gsp_account, "--amount", "40"]
                ) == 0
                capsys.readouterr()
        bank.spans.flush()
        trace_id = bank.db.select("transfers")[-1]["TraceID"]
        assert trace_id
        bank.db.close()  # "process exit"

        # a fresh process: everything below re-loads from WAL storage
        code = main(["trace", "list", "--home", home])
        out = capsys.readouterr().out
        assert code == 0 and trace_id in out

        code = main(["trace", "show", trace_id, "--home", home])
        out = capsys.readouterr().out
        assert code == 0
        assert "rpc.call" in out
        assert "rpc.server.dispatch" in out
        assert "bank.op.direct_transfer" in out
        assert "ledger rows:" in out
        assert "transfers" in out and "transactions" in out

        code = main(["trace", "slowest", "--home", home, "-n", "3"])
        out = capsys.readouterr().out
        assert code == 0 and trace_id in out

        code = main(["trace", "grep", "direct_transfer", "--home", home])
        out = capsys.readouterr().out
        assert code == 0 and trace_id in out

        # unknown trace id fails loudly
        code = main(["trace", "show", "deadbeefdeadbeef", "--home", home])
        assert code == 1

    def test_metrics_export_renders_prometheus(self, tmp_path, capsys):
        home = str(tmp_path / "bankhome")
        assert main(["init", "--home", home, "--key-bits", "512", "--seed", "9"]) == 0
        capsys.readouterr()
        obs_metrics.counter("cli.export.test").inc()
        code = main(["metrics", "export", "--home", home, "--live"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE cli_export_test counter" in out
        out_file = tmp_path / "metrics.prom"
        code = main(
            ["metrics", "export", "--home", home, "--live", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        assert "cli_export_test" in out_file.read_text()
