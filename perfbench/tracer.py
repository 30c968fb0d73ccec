"""Layer tracer: times calls into each GridBank layer's functions.

Used only by the benchmark's traced run. :func:`install` wraps the
functions and methods named in :data:`SERVER_LAYERS` (inside a bank
process) or :data:`CLIENT_LAYERS` (inside the load generator) so that
each call records a :class:`perfbench.spans.Span`: layer, parent span on
the same thread, request, wall and thread-CPU start and end. Spans stay
in memory while recording is on and are written out by the caller when
the run ends.

A module-level function is often imported by name into other modules
(``from repro.util.serialize import canonical_dumps``), and those modules
keep calling their own binding. :func:`install` therefore imports every
``repro`` module first and then rebinds *every* module attribute that is
the original function, not only the one in the defining module. Methods
are wrapped on the class, which every instance looks up at call time.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Optional

__all__ = ["Tracer", "install", "SERVER_LAYERS", "CLIENT_LAYERS"]

_MISSING = object()


def _size_of_result(args, kwargs, result) -> float:
    return len(result) if isinstance(result, (bytes, str, list, tuple)) else 0


def _size_of_first_arg(args, kwargs, result) -> float:
    data = args[-1] if args else b""
    return len(data) if isinstance(data, (bytes, str)) else 0


def _one(args, kwargs, result) -> float:
    return 1


def _fetched_bytes(args, kwargs, result) -> float:
    # ReplicationLog.fetch -> (status, epoch, last_seq, [[seq, payload], ...])
    records = result[3] if isinstance(result, tuple) and len(result) == 4 else ()
    return sum(len(payload) for _, payload in records)


def _handshake_done(args, kwargs, result) -> float:
    context = args[0]
    return 1 if getattr(context, "established", False) and result is None else 0


class Tracer:
    """Records spans for wrapped callables while :attr:`on` is true."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        # request dict id -> (request id, wall time prepare() handed it off)
        self._handoff: dict[int, tuple[int, float]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        label: str,
        fn: Callable,
        measure: Optional[Callable[[tuple, dict, Any], float]] = None,
    ) -> Callable:
        tracer = self
        perf = time.perf_counter
        cpu = time.thread_time

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            if stack:
                parent_id, request_id = stack[-1]
            else:
                parent_id = 0
                request_id = next(tracer._requests)
            stack.append((span_id, request_id))
            result = _MISSING
            w0 = perf()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1 = cpu()
                w1 = perf()
                stack.pop()
                n = measure(args, kwargs, result) if measure and result is not _MISSING else 0
                tracer.spans.append(
                    (span_id, parent_id, request_id, layer, label, w0, w1, c0, c1, n)
                )

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__wrapped__ = fn
        return traced

    # -- the RPC hand-off between the read thread and the worker pool -------

    def wrap_prepare(self, fn: Callable) -> Callable:
        """``_ServerConnection.prepare``: remember when each request left
        the connection's read thread, so the worker can time its queue wait."""
        tracer = self
        traced = self.wrap("rpc", "prepare", fn)

        def prepare(conn, payload):
            result = traced(conn, payload)
            if tracer.on and result[0] == "call":
                request_id = next(tracer._requests)
                tracer._handoff[id(result[1])] = (request_id, time.perf_counter())
            return result

        return prepare

    def wrap_dispatch_task(self, fn: Callable) -> Callable:
        """``TCPServer._dispatch`` (complete, seal, send on a pool worker):
        the span's ``n`` is the time the request waited between the read
        thread and this worker, and it carries the read thread's request id."""
        tracer = self
        perf = time.perf_counter
        cpu = time.thread_time

        def dispatch_task(server, handler, request, *rest):
            handoff = tracer._handoff.pop(id(request), None)
            if not tracer.on or handoff is None:
                return fn(server, handler, request, *rest)
            request_id, handed_at = handoff
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent_id = stack[-1][0] if stack else 0
            stack.append((span_id, request_id))
            w0 = perf()
            c0 = cpu()
            try:
                return fn(server, handler, request, *rest)
            finally:
                c1 = cpu()
                w1 = perf()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent_id, request_id, "rpc", "dispatch_task",
                     w0, w1, c0, c1, max(0.0, w0 - handed_at))
                )

        return dispatch_task

    def wrap_iterator(self, layer: str, label: str, fn: Callable) -> Callable:
        """A generator function whose every ``next()`` becomes one span."""
        tracer = self

        def traced_iter(*args, **kwargs):
            step = tracer.wrap(layer, label, next, _size_of_result)
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return traced_iter


# (module, attribute, layer, label, measure). An attribute "Class.method"
# is wrapped on the class; a plain name is a module function rebound in
# every module that holds it.
_CODEC = [
    ("repro.util.serialize", "canonical_dumps", "serialize", "dumps", _size_of_result),
    ("repro.util.serialize", "canonical_loads", "serialize", "loads", _size_of_first_arg),
]
_CIPHER = [
    ("repro.crypto.cipher", "ChannelCipher.protect", "cipher", "protect", _size_of_first_arg),
    ("repro.crypto.cipher", "ChannelCipher.unprotect", "cipher", "unprotect", _size_of_first_arg),
]
_GSI = [
    ("repro.gsi.context", "SecurityContext.wrap", "gsi", "wrap", None),
    ("repro.gsi.context", "SecurityContext.unwrap", "gsi", "unwrap", None),
    ("repro.gsi.context", "SecurityContext.step", "gsi", "step", _handshake_done),
    ("repro.gsi.context", "SecurityContext.resume", "gsi", "resume", _one),
]
_SIGNATURE = [
    ("repro.crypto.signature", "sign", "signature", "sign", None),
    ("repro.crypto.signature", "verify", "signature", "verify", None),
]
_RPC_CLIENT = [
    ("repro.net.rpc", "RPCClient.call", "rpc", "client_call", None),
    ("repro.net.rpc", "RPCClient.connect", "rpc", "client_connect", None),
]

SERVER_LAYERS = (
    _CODEC
    + _CIPHER
    + _GSI
    + _SIGNATURE
    + _RPC_CLIENT
    + [
        ("repro.net.rpc", "_ServerConnection.seal", "rpc", "seal", None),
        ("repro.net.rpc", "_ServerConnection.complete", "rpc", "complete", None),
        ("repro.bank.locks", "_StripeLock.acquire_exclusive", "locks", "acquire", None),
        ("repro.bank.locks", "_StripeLock.acquire_shared", "locks", "acquire", None),
        ("repro.bank.locks", "_StripeLock.release_exclusive", "locks", "release", None),
        ("repro.bank.locks", "_StripeLock.release_shared", "locks", "release", None),
        ("repro.payments.direct", "DirectTransferProtocol.transfer", "accounts", "direct", None),
        ("repro.db.database", "Database.insert", "db", "write", _one),
        ("repro.db.database", "Database.update", "db", "write", _one),
        ("repro.db.database", "Database.delete", "db", "write", _one),
        ("repro.db.database", "Database.find", "db", "read", None),
        ("repro.db.database", "Database.get", "db", "read", None),
        ("repro.db.database", "Database.count", "db", "read", None),
        ("repro.db.database", "Database.select", "db", "select", _size_of_result),
        ("repro.db.database", "Database._write_journal", "db", "commit", _one),
        ("repro.db.schema", "TableSchema.validate_row", "schema", "validate", None),
        ("repro.bank.replies", "ReplyCache.lookup", "replies", "lookup", None),
        ("repro.bank.replies", "ReplyCache.store", "replies", "store", None),
        ("repro.obs.trace", "_emit", "obs", "emit", None),
        ("repro.obs.sampling", "SamplingSpanSink.__call__", "obs", "sink", None),
        ("repro.obs.store", "SpanStore.__call__", "obs", "sink", None),
        ("repro.obs.store", "JsonlSpanSink.__call__", "obs", "sink", None),
        ("repro.obs.diag", "FlightRecorder._span_sink", "obs", "sink", None),
        ("repro.obs.diag", "FlightRecorder.tick", "obs", "diag", None),
        ("repro.obs.diag", "SamplingProfiler.sample_once", "obs", "diag", None),
        ("repro.obs.usage", "UsageMeter.record_op", "obs", "usage", None),
        ("repro.obs.usage", "UsageMeter.record_bytes", "obs", "usage", None),
        ("repro.obs.usage", "UsageMeter.maybe_rollup", "obs", "usage", None),
        ("repro.obs.slo", "SLOEngine.record", "obs", "slo", None),
        ("repro.bank.shard", "ShardNode.guard", "shard", "guard", None),
        ("repro.bank.shard", "ShardNode.wants", "shard", "guard", None),
        ("repro.bank.shard", "ShardNode.execute_detached", "shard", "coordinate", None),
        ("repro.bank.shard", "ShardNode._prepare", "shard", "coordinate", None),
        ("repro.bank.shard", "ShardNode._complete", "shard", "coordinate", None),
        ("repro.bank.shard", "ShardNode._commit", "shard", "coordinate", None),
        ("repro.bank.shard", "ShardNode._call_peer", "shard", "peer", None),
        ("repro.bank.shard", "ShardNode.op_shard_apply", "shard", "apply", None),
        ("repro.db.replication", "ReplicationLog.append", "replication", "ship", None),
        ("repro.db.replication", "ReplicationLog.fetch", "replication", "ship", _fetched_bytes),
        ("repro.bank.cluster", "ClusterNode.op_replication_fetch", "replication", "fetch", _one),
        ("repro.bank.cluster", "StandbyReplicator._poll_once", "replication", "apply", None),
        ("repro.db.database", "Database.apply_replicated", "replication", "apply", None),
    ]
)

CLIENT_LAYERS = _CODEC + _CIPHER + _GSI + _SIGNATURE + _RPC_CLIENT

# dispatch-wrapper factories on GridBankServer: each returns the closure
# that sits on the request path, and it is the closure that gets timed
_SERVER_WRAPPER_FACTORIES = (
    "_instrumented",
    "_exactly_once",
    "_primary_only",
    "_staleness_guarded",
    "_read_only",
    "_shard_guarded",
)


def _import_all_repro_modules() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _rebind_everywhere(original: Callable, replacement: Callable) -> int:
    """Point every module attribute holding *original* at *replacement*."""
    rebound = 0
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def _wrap_factory(tracer: Tracer, cls: type, factory: str) -> None:
    original = getattr(cls, factory)
    label = factory.lstrip("_")

    def make(self, *args, **kwargs):
        return tracer.wrap("server", label, original(self, *args, **kwargs))

    setattr(cls, factory, make)


def install(tracer: Tracer, specs, server: bool) -> dict:
    """Wrap every callable in *specs*; returns ``{name: modules rebound}``."""
    _import_all_repro_modules()
    report = {}
    for module_name, attr, layer, label, measure in specs:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".", 1)
            cls = getattr(module, class_name)
            setattr(cls, method, tracer.wrap(layer, label, getattr(cls, method), measure))
            report[f"{module_name}.{attr}"] = 1
        else:
            original = getattr(module, attr)
            wrapped = tracer.wrap(layer, label, original, measure)
            report[f"{module_name}.{attr}"] = _rebind_everywhere(original, wrapped)
    if server:
        from repro.bank.accounts import GBAccounts
        from repro.bank.server import GridBankServer
        from repro.net import message, rpc, tcp

        rpc._ServerConnection.prepare = tracer.wrap_prepare(rpc._ServerConnection.prepare)
        tcp.TCPServer._dispatch = tracer.wrap_dispatch_task(tcp.TCPServer._dispatch)
        # the read thread's socket reads and framing, one span per frame
        report["repro.net.message.unframe_stream"] = _rebind_everywhere(
            message.unframe_stream,
            tracer.wrap_iterator("rpc", "recv", message.unframe_stream),
        )
        for name in _SERVER_WRAPPER_FACTORIES:
            _wrap_factory(tracer, GridBankServer, name)
        for name in dir(GridBankServer):
            if name.startswith("op_"):
                setattr(GridBankServer, name,
                        tracer.wrap("server", "op", getattr(GridBankServer, name)))
        for name in dir(GBAccounts):
            value = getattr(GBAccounts, name)
            if not name.startswith("_") and callable(value):
                setattr(GBAccounts, name, tracer.wrap("accounts", name, value))
    return report
