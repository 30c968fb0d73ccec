"""Secure RPC: GSI-authenticated request/response services.

A :class:`ServiceEndpoint` owns a credential, a trust store, an
authorization policy and a registry of named operations. Each client
connection runs the three-token GSI handshake; after the final token the
endpoint authorizes the authenticated subject and either confirms
establishment or *refuses the connection* — the paper's DoS-limiting
behaviour ("Clients simply cannot send any requests before a connection is
established", sec 3.2). Established sessions carry encrypted, sequenced
records only.

Remote exceptions propagate by name: the server maps a raised library
exception to its class name, and the client re-raises the matching class
from :mod:`repro.errors` (falling back to :class:`RPCError`).

Concurrency layer: a server connection's work is split into three phases —
:meth:`_ServerConnection.prepare` (unwrap, must run serially in the
transport's read thread because the channel cipher enforces strictly
increasing record sequence numbers), :meth:`_ServerConnection.complete`
(the dispatch itself, safe to run on a worker pool), and
:meth:`_ServerConnection.seal` (wrap the response; the transport must seal
and transmit under one per-connection lock so wire order equals cipher
sequence order). ``handle()`` composes all three for synchronous
transports. On the client, :meth:`RPCClient.pipeline` keeps a window of
requests in flight on one connection, matching responses to calls by
envelope id. Session resumption: the server returns a bearer ticket with
the ``established`` reply; a client holding the ticket and the session's
master secret can skip the three-token handshake on reconnect via a
``gsi_resume`` exchange authenticated by HMACs in both directions, with
fresh nonces mixed into the resumed channel keys.

Exactly-once layer: every request envelope carries a stable idempotency
key (``client_nonce:seq``) and an optional absolute deadline. The server
rejects expired requests with :class:`~repro.errors.DeadlineExceeded`
*before* dispatch and exposes the key/deadline to operations through
:func:`current_request` (a context variable, like the trace span), which
the bank's durable reply cache consumes. A client built with a
:class:`~repro.net.retry.RetryPolicy` transparently re-sends on retryable
failures — reconnecting and re-running the handshake when the connection
died — which is safe precisely because the key never changes across
re-sends.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.crypto.cipher import RECORD_OVERHEAD
from repro.crypto.hashes import sha256
from repro.errors import (
    AuthenticationError,
    ChannelError,
    DeadlineExceeded,
    NotPrimaryError,
    ProtocolError,
    ReproError,
    TransportError,
    WrongShardError,
)
from repro.gsi.authorization import AuthorizationPolicy
from repro.gsi.context import Role, SecurityContext
from repro.net.message import (
    fits_frame,
    make_error,
    make_request,
    make_response,
    parse_payload,
    raise_remote_error,
)
from repro.net.retry import RetryPolicy, is_retryable, sleep_for
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.pki.validation import CertificateStore
from repro.util.gbtime import Clock, SystemClock
from repro.util.ids import random_token
from repro.util.serialize import canonical_dumps

__all__ = [
    "ServiceEndpoint",
    "RPCClient",
    "ConnectionRefused",
    "Operation",
    "PendingCall",
    "RequestContext",
    "SessionTicketStore",
    "current_request",
    "request_scope",
]

Operation = Callable[[str, dict], Any]

_log = get_logger("net.rpc")

#: a sealed response's bytes beyond its hex-encoded record
_SEALED_ENVELOPE = len(canonical_dumps({"kind": "sealed", "record": b""}))


class ConnectionRefused(TransportError):
    """The service refused the connection at authorization time."""


_RESUME_NONCE_LEN = 32


def _resume_mac(master: bytes, label: bytes, *parts: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104 construction over our own sha256)."""
    key = master.ljust(64, b"\x00")
    inner = sha256(bytes(b ^ 0x36 for b in key) + label + b"".join(parts))
    return sha256(bytes(b ^ 0x5C for b in key) + inner)


def _mac_equal(a: Any, b: bytes) -> bool:
    """Constant-time-ish MAC comparison (no early exit on first mismatch)."""
    if not isinstance(a, bytes) or len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0


class SessionTicketStore:
    """Bearer tickets for GSI session resumption (TLS-session-ticket style).

    The endpoint issues a ticket with every ``established`` reply, mapping
    an opaque token to ``(subject, master_secret)``. A later connection
    presenting the ticket plus an HMAC keyed by the master secret skips
    the full handshake. Tickets are reusable until they age out (TTL) or
    are evicted (LRU capacity) — a miss simply falls back to the full
    handshake, so eviction is a performance event, not a failure.
    """

    def __init__(
        self,
        clock: Clock,
        rng: random.Random,
        capacity: int = 1024,
        ttl: float = 900.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._clock = clock
        self._rng = rng
        self.capacity = capacity
        self.ttl = ttl
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[str, bytes, float]] = OrderedDict()

    def issue(self, subject: str, master_secret: bytes) -> str:
        token = random_token(self._rng, nbytes=16)
        expires = self._clock.epoch() + self.ttl
        with self._lock:
            self._entries[token] = (subject, master_secret, expires)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return token

    def redeem(self, token: str) -> Optional[tuple[str, bytes]]:
        """Look a ticket up; ``None`` on miss or expiry (ticket survives)."""
        with self._lock:
            entry = self._entries.get(token)
            if entry is None:
                return None
            subject, master, expires = entry
            if self._clock.epoch() > expires:
                del self._entries[token]
                return None
            self._entries.move_to_end(token)
            return subject, master

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class RequestContext:
    """Envelope metadata of the request being dispatched.

    Available to operations via :func:`current_request` while the server
    runs them — the idempotency key is what the bank's reply cache keys
    on, and the deadline lets long operations bail out early.
    """

    method: str
    subject: str
    idempotency_key: str = ""
    deadline: Optional[float] = None
    #: Client clock epoch when the logical call began (stable across
    #: re-sends). The bank's SLO accounting compares it against the server
    #: clock to include queueing/retry/network time in observed latency.
    sent_at: Optional[float] = None


_request_ctx: contextvars.ContextVar[Optional[RequestContext]] = contextvars.ContextVar(
    "gridbank_rpc_request", default=None
)


def current_request() -> Optional[RequestContext]:
    """The request context active in this dispatch, if any."""
    return _request_ctx.get()


@contextlib.contextmanager
def request_scope(context: Optional[RequestContext]) -> Iterator[Optional[RequestContext]]:
    """Make *context* the active request for the duration of the block.

    The server wraps every dispatch in this; tests replaying a specific
    idempotency key against a bank operation use it directly.
    """
    token = _request_ctx.set(context)
    try:
        yield context
    finally:
        _request_ctx.reset(token)


class _ServerConnection:
    """Per-connection state machine: handshake, then dispatch loop.

    Pipelining transports drive the three-phase interface directly:
    ``prepare`` (serial, read thread — unwrap consumes cipher sequence
    numbers in wire order), ``complete`` (worker pool), ``seal`` (under
    the transport's per-connection send lock — wrap assigns the response
    sequence number, so seal order must equal transmit order).
    ``handle`` composes the phases for synchronous transports.
    """

    def __init__(self, endpoint: "ServiceEndpoint") -> None:
        self._endpoint = endpoint
        self._context = SecurityContext(
            Role.ACCEPT,
            endpoint.credential,
            endpoint.trust_store,
            clock=endpoint.clock,
            rng=random.Random(endpoint._rng.getrandbits(64)),
        )
        self._trace_rng = random.Random(endpoint._rng.getrandbits(64))
        self._rng = random.Random(endpoint._rng.getrandbits(64))
        self._open = False
        self._closed = False
        #: Which server backend drives this connection ("threads"/"async");
        #: transports stamp it at accept time and it lands on every
        #: dispatch span so per-backend latency can be compared in traces.
        self.transport_backend = ""

    @property
    def peer_subject(self) -> Optional[str]:
        """Authenticated peer identity once established, else ``None``.

        The front end keys per-principal rate limiting on this — before
        the handshake completes there is no principal to charge, which is
        exactly why pre-establishment traffic gets the (stricter)
        handshake timeout instead.
        """
        return self._context.peer_subject if self._open else None

    def handle(self, payload: bytes) -> Optional[bytes]:
        kind, value = self.prepare(payload)
        if kind != "call":
            return value
        return self.seal(self.complete(value))

    def prepare(self, payload: bytes) -> tuple[str, Any]:
        """Phase 1 (serial): parse, handshake, or unwrap a sealed request.

        Returns ``("inline", response_bytes_or_None)`` for traffic that is
        already fully answered (handshake tokens, refusals, closed
        connections) or ``("call", request_dict)`` for a request the
        transport should run through :meth:`complete` + :meth:`seal`.
        """
        if self._closed or self._endpoint.crashed:
            return ("inline", None)
        message = parse_payload(payload)
        if not self._open:
            return ("inline", self._handle_handshake(message))
        if message.get("kind") != "sealed":
            self._closed = True
            return ("inline", canonical_dumps({"kind": "refused", "reason": "expected sealed record"}))
        try:
            request = parse_payload(self._context.unwrap(message["record"]))
        except (ChannelError, ProtocolError) as exc:
            self._closed = True
            return ("inline", canonical_dumps({"kind": "refused", "reason": str(exc)}))
        if isinstance(request, dict):
            # wire size of the sealed request, for per-principal usage
            # accounting in complete() (prepare is the only phase that
            # still sees the payload)
            request["_nbytes"] = len(payload)
        return ("call", request)

    def seal(self, response: bytes) -> bytes:
        """Phase 3: wrap a response envelope for the wire (order-sensitive).

        A response whose sealed frame would exceed the frame limit is
        answered with a typed ``ProtocolError`` instead. The size is
        checked before ``wrap`` assigns the record's cipher sequence
        number, so the channel stays in step for later calls.
        """
        # the record travels hex-encoded: two characters per byte
        if not fits_frame(_SEALED_ENVELOPE + 2 * (RECORD_OVERHEAD + len(response))):
            obs_metrics.counter("rpc.server.oversized_responses").inc()
            _log.warning("rpc.response_too_large", bytes=len(response))
            response = make_error(
                parse_payload(response).get("id", 0), "ProtocolError",
                f"response of {len(response)} bytes does not fit in one frame",
            )
        return canonical_dumps({"kind": "sealed", "record": self._context.wrap(response)})

    def _handle_handshake(self, message: dict) -> Optional[bytes]:
        kind = message.get("kind")
        if kind == "gsi_resume":
            return self._handle_resume(message)
        if kind != "gsi":
            self._closed = True
            return canonical_dumps({"kind": "refused", "reason": "handshake required"})
        try:
            reply = self._context.step(message["token"])
        except ReproError as exc:
            self._closed = True
            return canonical_dumps({"kind": "refused", "reason": str(exc)})
        if not self._context.established:
            return canonical_dumps({"kind": "gsi", "token": reply})
        subject = self._context.peer_subject
        assert subject is not None
        if not self._endpoint.policy.is_authorized(subject):
            self._closed = True
            self._endpoint.refused_connections += 1
            return canonical_dumps({"kind": "refused", "reason": "subject not authorized"})
        self._open = True
        self._endpoint.accepted_connections += 1
        ticket = self._endpoint.session_tickets.issue(subject, self._context.master_secret)
        return canonical_dumps({"kind": "established", "subject": subject, "ticket": ticket})

    def _handle_resume(self, message: dict) -> bytes:
        ticket = message.get("ticket")
        nonce_i = message.get("nonce")
        entry = (
            self._endpoint.session_tickets.redeem(ticket)
            if isinstance(ticket, str)
            else None
        )
        valid = (
            entry is not None
            and isinstance(nonce_i, bytes)
            and len(nonce_i) == _RESUME_NONCE_LEN
        )
        if valid:
            subject, master = entry  # type: ignore[misc]
            expected = _resume_mac(master, b"gsi-resume-client", ticket.encode("ascii"), nonce_i)
            valid = _mac_equal(message.get("mac"), expected)
        if not valid:
            # not a refusal: the connection stays pre-handshake, and the
            # client falls back to the full three-token exchange on it
            obs_metrics.counter("gsi.resume.missed").inc()
            return canonical_dumps({"kind": "resume_miss"})
        if not self._endpoint.policy.is_authorized(subject):
            # re-check at resume time: a revocation after ticket issue
            # must not be laundered through the resumption fast path
            self._closed = True
            self._endpoint.refused_connections += 1
            return canonical_dumps({"kind": "refused", "reason": "subject not authorized"})
        nonce_a = self._rng.getrandbits(8 * _RESUME_NONCE_LEN).to_bytes(_RESUME_NONCE_LEN, "big")
        self._context.resume(master, nonce_i, nonce_a, subject)
        self._open = True
        self._endpoint.accepted_connections += 1
        obs_metrics.counter("gsi.resume.accepted").inc()
        return canonical_dumps(
            {
                "kind": "resumed",
                "subject": subject,
                "nonce": nonce_a,
                "mac": _resume_mac(master, b"gsi-resume-server", nonce_i, nonce_a),
            }
        )

    def complete(self, request: dict) -> bytes:
        """Phase 2 (worker-pool safe): dispatch one unwrapped request."""
        request_bytes = request.pop("_nbytes", 0)
        request_id = request.get("id", 0)
        method = request.get("method", "")
        subject = self._context.peer_subject
        assert subject is not None
        # reject expired deadlines BEFORE dispatch: the caller has already
        # given up (or will refuse the answer), so starting the work would
        # only risk effects nobody collects
        deadline = request.get("deadline")
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            deadline = None
        if deadline is not None and self._endpoint.clock.epoch() > deadline:
            obs_metrics.counter("rpc.server.deadline_rejected").inc()
            _log.warning("rpc.deadline_rejected", method=method, subject=subject)
            return make_error(
                request_id,
                "DeadlineExceeded",
                f"request deadline expired before dispatch of {method!r}",
            )
        idempotency_key = request.get("idempotency_key", "")
        if not isinstance(idempotency_key, str):
            idempotency_key = ""
        sent_at = request.get("sent_at")
        if not isinstance(sent_at, (int, float)) or isinstance(sent_at, bool):
            sent_at = None
        # restore the caller's trace around dispatch: the server span is a
        # child of the client span, sharing its trace ID
        parent = obs_trace.from_wire(request.get("trace"))
        if parent is not None:
            span = parent.child(self._trace_rng)
        else:
            span = obs_trace.SpanContext(
                trace_id=obs_trace.new_trace_id(self._trace_rng),
                span_id=obs_trace.new_span_id(self._trace_rng),
            )
        operation = self._endpoint.operations.get(method)
        context = RequestContext(
            method=method, subject=subject, idempotency_key=idempotency_key,
            deadline=deadline, sent_at=sent_at,
        )
        # the dispatch runs inside a *recorded* span so the hop survives in
        # the span store; dispatch errors become error responses, so the
        # recorder is marked failed explicitly before they are swallowed
        with obs_trace.span(
            "rpc.server.dispatch", kind="server", context=span,
            method=method, subject=subject, backend=self.transport_backend,
        ) as recorder, request_scope(context):
            if operation is None:
                obs_metrics.counter("rpc.server.unknown_method").inc()
                recorder.set_error("ProtocolError", f"no such operation: {method!r}")
                response = make_error(request_id, "ProtocolError", f"no such operation: {method!r}")
            else:
                try:
                    result = operation(subject, request.get("params", {}))
                    response = make_response(request_id, result)
                except ReproError as exc:
                    recorder.set_error(type(exc).__name__, str(exc))
                    response = make_error(request_id, type(exc).__name__, str(exc))
                except Exception as exc:  # noqa: BLE001 - a bug in an operation
                    # must not kill the connection thread; the type name still
                    # crosses the wire so the client sees what happened
                    obs_metrics.counter("rpc.server.unexpected_errors").inc()
                    recorder.set_error(type(exc).__name__, str(exc))
                    _log.error(
                        "rpc.dispatch.unexpected_error",
                        method=method,
                        error=type(exc).__name__,
                        reason=str(exc),
                    )
                    response = make_error(request_id, type(exc).__name__, str(exc))
        usage_sink = self._endpoint.usage_sink
        if usage_sink is not None:
            try:
                usage_sink(subject, request_bytes, len(response))
            except Exception:  # noqa: BLE001 - accounting must never fail a call
                obs_metrics.counter("obs.usage_sink_errors").inc()
        return response

    def close(self) -> None:
        self._closed = True


class ServiceEndpoint:
    """A named, GSI-protected RPC service."""

    def __init__(
        self,
        credential,
        trust_store: CertificateStore,
        policy: AuthorizationPolicy,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.credential = credential
        self.trust_store = trust_store
        self.policy = policy
        self.clock = clock if clock is not None else SystemClock()
        self._rng = rng if rng is not None else random.Random()
        # handler construction draws from the endpoint RNG; a threaded
        # transport (TCPServer) builds handlers concurrently, and Random
        # instances are not safe to share across threads unguarded
        self._rng_lock = threading.Lock()
        self.operations: dict[str, Operation] = {}
        self.session_tickets = SessionTicketStore(
            self.clock, random.Random(self._rng.getrandbits(64))
        )
        self.accepted_connections = 0
        self.refused_connections = 0
        # kill switch for failover drills: a crashed endpoint answers
        # nothing (the transport surfaces "service closed the
        # connection", a retryable TransportError) — exactly what a
        # process death looks like to a client mid-call
        self.crashed = False
        # optional ``(subject, bytes_in, bytes_out)`` hook, called after
        # every dispatch; the bank points it at its UsageMeter so wire
        # volume lands in the per-principal usage rollups
        self.usage_sink: Optional[Callable[[str, int, int], None]] = None

    def register(self, method: str, operation: Operation) -> None:
        """Expose ``operation(subject, params) -> result`` as *method*."""
        if method in self.operations:
            raise ProtocolError(f"operation already registered: {method!r}")
        self.operations[method] = operation

    def connection_handler(self) -> _ServerConnection:
        """Factory for per-connection handlers (plug into a transport)."""
        with self._rng_lock:
            return _ServerConnection(self)


class RPCClient:
    """Client session: handshake on connect, then typed calls.

    With a :class:`~repro.net.retry.RetryPolicy` and a *reconnect* factory
    (``() -> connection``), :meth:`call` becomes exactly-once under
    message loss: retryable failures are re-sent with the same
    idempotency key after a jittered backoff, over a fresh connection and
    handshake whenever the old connection is no longer healthy. Without a
    policy the behaviour is unchanged from the at-most-once client.
    """

    def __init__(
        self,
        connection,
        credential,
        trust_store: CertificateStore,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        retry_policy: Optional[RetryPolicy] = None,
        reconnect: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._connection = connection
        self._credential = credential
        self._trust_store = trust_store
        self._clock = clock if clock is not None else SystemClock()
        base_rng = rng if rng is not None else random.Random()
        self._rng = base_rng
        self._trace_rng = random.Random(base_rng.getrandbits(64))
        # the client nonce scopes idempotency keys to this logical client:
        # key = "<nonce>:<request id>" is stable across re-sends of one
        # call but never collides across clients or across calls
        self._nonce = random_token(base_rng, nbytes=8)
        self._retry = retry_policy
        self._reconnect = reconnect
        self._context = self._new_context()
        self._next_id = 1
        # (ticket, master_secret, server_subject) from the last full
        # handshake — lets reconnects skip the handshake via gsi_resume
        self._session: Optional[tuple[str, bytes, str]] = None
        self.server_subject: Optional[str] = None
        self.connected = False

    def _new_context(self) -> SecurityContext:
        return SecurityContext(
            Role.INITIATE,
            self._credential,
            self._trust_store,
            clock=self._clock,
            rng=self._rng,
        )

    # -- connection management ------------------------------------------------

    def connect(self) -> str:
        """Run the handshake; returns the server's authenticated subject.

        Raises :class:`ConnectionRefused` if the server refuses (either a
        failed handshake or connection-time authorization) — refusals are
        terminal and never retried. Transport failures during the
        handshake are retried under the client's policy when a reconnect
        factory is available.
        """
        attempt = 0
        slept = 0.0
        while True:
            attempt += 1
            try:
                return self._handshake()
            except ReproError as exc:
                # a partially-run handshake poisons the security context;
                # any retry needs a fresh connection AND a fresh context
                if isinstance(exc, ConnectionRefused) or not is_retryable(exc) or self._reconnect is None:
                    raise
                retry_after = self._plan_retry(attempt, slept, None, exc)
                if retry_after is None:
                    raise
                slept += retry_after
                self._replace_connection()

    def _handshake(self) -> str:
        if self._session is not None:
            subject = self._try_resume()
            if subject is not None:
                return subject
            # resume miss: the connection is still pre-handshake on the
            # server side, so fall through to the full exchange on it
        token = self._context.step()
        while True:
            reply = parse_payload(self._connection.request(canonical_dumps({"kind": "gsi", "token": token})))
            if reply["kind"] == "refused":
                raise ConnectionRefused(reply.get("reason", "connection refused"))
            if reply["kind"] == "established":
                if not self._context.established:
                    raise ProtocolError("server declared establishment prematurely")
                self.connected = True
                self.server_subject = self._context.peer_subject
                assert self.server_subject is not None
                ticket = reply.get("ticket")
                if isinstance(ticket, str) and ticket:
                    self._session = (ticket, self._context.master_secret, self.server_subject)
                return self.server_subject
            if reply["kind"] != "gsi":
                raise ProtocolError(f"unexpected handshake reply kind {reply['kind']!r}")
            token = self._context.step(reply["token"])
            if token is None:
                raise ProtocolError("handshake ended without establishment")

    def _try_resume(self) -> Optional[str]:
        """Attempt ticket resumption; ``None`` means fall back to the full
        handshake (the only non-error outcome besides success)."""
        assert self._session is not None
        ticket, master, subject = self._session
        nonce_i = self._rng.getrandbits(8 * _RESUME_NONCE_LEN).to_bytes(_RESUME_NONCE_LEN, "big")
        payload = canonical_dumps(
            {
                "kind": "gsi_resume",
                "ticket": ticket,
                "nonce": nonce_i,
                "mac": _resume_mac(master, b"gsi-resume-client", ticket.encode("ascii"), nonce_i),
            }
        )
        reply = parse_payload(self._connection.request(payload))
        kind = reply.get("kind")
        if kind == "resume_miss":
            self._session = None
            obs_metrics.counter("rpc.client.resume_misses").inc()
            return None
        if kind == "refused":
            raise ConnectionRefused(reply.get("reason", "connection refused"))
        if kind != "resumed":
            raise ProtocolError(f"unexpected resume reply kind {kind!r}")
        nonce_a = reply.get("nonce")
        if not isinstance(nonce_a, bytes) or len(nonce_a) != _RESUME_NONCE_LEN:
            raise ProtocolError("bad resumption nonce from server")
        if not _mac_equal(reply.get("mac"), _resume_mac(master, b"gsi-resume-server", nonce_i, nonce_a)):
            # whoever answered does not hold the master secret
            raise AuthenticationError("server failed resumption proof")
        self._context.resume(master, nonce_i, nonce_a, subject)
        self.connected = True
        self.server_subject = subject
        obs_metrics.counter("rpc.client.resumes").inc()
        return subject

    def _replace_connection(self) -> None:
        """Swap in a fresh connection + security context (pre-handshake)."""
        assert self._reconnect is not None
        try:
            self._connection.close()
        except ReproError:
            pass
        self.connected = False
        self._connection = self._reconnect()
        self._context = self._new_context()
        obs_metrics.counter("rpc.client.reconnects").inc()

    def _connection_usable(self) -> bool:
        return self.connected and getattr(self._connection, "healthy", True)

    # -- calls ----------------------------------------------------------------

    def call(self, method: str, **params: Any) -> Any:
        """Invoke *method*; re-raises remote library errors by class.

        Each call runs in its own client span — continuing the caller's
        active trace if there is one, otherwise rooting a fresh trace —
        and the span travels in the request envelope so the server's
        dispatch span shares the same trace ID. The envelope also carries
        the call's idempotency key and (under a retry policy with a
        deadline) its absolute deadline.
        """
        if not self.connected and self.server_subject is None:
            raise ProtocolError("call before connect()")
        request_id = self._next_id
        self._next_id += 1
        idempotency_key = f"{self._nonce}:{request_id}"
        # stamped once per logical call (like the key): re-sends carry the
        # original epoch, so the server sees latency the caller actually
        # experienced — backoff and network faults included
        sent_at = self._clock.epoch()
        deadline: Optional[float] = None
        if self._retry is not None and self._retry.call_deadline is not None:
            deadline = self._clock.epoch() + self._retry.call_deadline
        attempt = 0
        slept = 0.0
        # ONE recorded span covers the whole logical call, however many
        # re-sends it takes — its span ID is as stable as the idempotency
        # key, so every server dispatch span shares this single parent and
        # retry events land on the span that retried
        with obs_trace.span(
            "rpc.call", kind="client", rng=self._trace_rng, method=method
        ) as recorder:
            while True:
                attempt += 1
                try:
                    if not self._connection_usable():
                        if self._reconnect is None:
                            raise TransportError("connection is no longer usable and no reconnect factory was given")
                        self._replace_connection()
                        self._handshake()
                    return self._call_once(
                        method, params, request_id, idempotency_key, deadline, sent_at
                    )
                except WrongShardError as exc:
                    # the account moved (or never lived) here; if the
                    # reconnect factory understands shard hints (a routing
                    # factory exposing shard_hint(), e.g. shard.ShardRouter's
                    # per-call dialer) feed it the stamped owner + map
                    # version and re-send — same idempotency key, so the
                    # call stays exactly-once across the re-route. Plain
                    # single-cluster clients propagate it to the caller.
                    shard_hint = getattr(self._reconnect, "shard_hint", None)
                    if shard_hint is None or self._retry is None or attempt >= self._retry.max_attempts:
                        raise
                    followed = shard_hint(exc)
                    if not followed:
                        raise
                    self.connected = False
                    obs_metrics.counter("rpc.client.shard_reroutes", method=method).inc()
                    recorder.add_event(
                        "rpc.shard_reroute",
                        attempt=attempt,
                        shard=exc.shard_id or "",
                        map_version=exc.map_version,
                    )
                    _log.info(
                        "rpc.call.shard_reroute",
                        method=method,
                        attempt=attempt,
                        shard=exc.shard_id or "",
                        map_version=exc.map_version,
                    )
                except NotPrimaryError as exc:
                    # a standby (or fenced ex-primary) refused a write; if
                    # the reconnect factory can be steered (a routing
                    # factory exposing hint(), e.g. cluster.PrimaryRouter)
                    # feed it the advertised primary and re-send — same
                    # idempotency key, so the call stays exactly-once
                    # across the redirect
                    hint = getattr(self._reconnect, "hint", None)
                    if hint is None or self._retry is None or attempt >= self._retry.max_attempts:
                        raise
                    address = exc.primary_address
                    hint(address)
                    self.connected = False
                    if address is None:
                        # no primary advertised (mid-failover): back off
                        # like a transport failure and re-probe the ring
                        retry_after = self._plan_retry(attempt, slept, deadline, exc)
                        if retry_after is None:
                            raise
                        slept += retry_after
                    obs_metrics.counter("rpc.client.reroutes", method=method).inc()
                    recorder.add_event("rpc.reroute", attempt=attempt, primary=address or "")
                    _log.info(
                        "rpc.call.reroute", method=method, attempt=attempt, primary=address or ""
                    )
                except ReproError as exc:
                    # classification goes through the policy when one is
                    # set so callers can widen/narrow it per client
                    retryable = (
                        self._retry.is_retryable(exc) if self._retry is not None else is_retryable(exc)
                    )
                    if not retryable:
                        raise
                    retry_after = self._plan_retry(attempt, slept, deadline, exc)
                    if retry_after is None:
                        raise
                    slept += retry_after
                    obs_metrics.counter("rpc.client.retries", method=method).inc()
                    recorder.add_event(
                        "rpc.retry",
                        attempt=attempt,
                        error=type(exc).__name__,
                        backoff=retry_after,
                    )
                    _log.info(
                        "rpc.call.retry",
                        method=method,
                        attempt=attempt,
                        error=type(exc).__name__,
                        backoff=retry_after,
                    )

    def _plan_retry(
        self,
        attempt: int,
        slept: float,
        deadline: Optional[float],
        exc: BaseException,
    ) -> Optional[float]:
        """Decide whether to retry after *exc*; sleep and return the delay.

        Returns ``None`` when the attempt budget is exhausted (caller
        re-raises *exc*); raises :class:`DeadlineExceeded` when the call's
        deadline has passed. The sleep is clock-aware and never overshoots
        the deadline or the policy's total sleep budget.
        """
        policy = self._retry
        if policy is None or attempt >= policy.max_attempts:
            return None
        if deadline is not None and self._clock.epoch() >= deadline:
            raise DeadlineExceeded(
                f"call deadline expired after {attempt} attempt(s)"
            ) from exc
        delay = policy.backoff(attempt)
        if policy.budget is not None:
            remaining_budget = policy.budget - slept
            if remaining_budget <= 0:
                return None
            delay = min(delay, remaining_budget)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - self._clock.epoch()))
        if policy.on_retry is not None:
            policy.on_retry(attempt, exc)
        sleep_for(self._clock, delay)
        return delay

    def _call_once(
        self,
        method: str,
        params: dict,
        request_id: int,
        idempotency_key: str,
        deadline: Optional[float],
        sent_at: Optional[float] = None,
    ) -> Any:
        if deadline is not None and self._clock.epoch() > deadline:
            raise DeadlineExceeded(f"call deadline expired before sending {method!r}")
        # the recorded rpc.call span in call() is already active; every
        # re-send travels under its (stable) span ID, like the idempotency key
        span = obs_trace.current()
        if span is None:
            span = obs_trace.child_span(self._trace_rng)
        with obs_trace.activate(span), obs_metrics.timed("rpc.client.call_seconds", method=method):
            sealed = self._context.wrap(
                make_request(
                    method,
                    params,
                    request_id,
                    trace=obs_trace.to_wire(span),
                    idempotency_key=idempotency_key,
                    deadline=deadline,
                    sent_at=sent_at,
                )
            )
            raw = self._connection.request(canonical_dumps({"kind": "sealed", "record": sealed}))
            reply = parse_payload(raw)
            if reply["kind"] == "refused":
                self.connected = False
                raise ConnectionRefused(reply.get("reason", "connection dropped"))
            if reply["kind"] != "sealed":
                raise ProtocolError(f"unexpected reply kind {reply['kind']!r}")
            try:
                response = parse_payload(self._context.unwrap(reply["record"]))
            except ChannelError:
                # the channel lost sync (e.g. a response was lost and the
                # sequence gap closed the wrong way): unusable from here on
                self.connected = False
                raise
            if response["kind"] == "error":
                obs_metrics.counter("rpc.client.remote_errors", method=method).inc()
                _log.debug(
                    "rpc.call.remote_error",
                    method=method,
                    error=response.get("error_type", ""),
                )
                raise_remote_error(response)
            if response["kind"] != "response" or response.get("id") != request_id:
                raise ProtocolError("response/request id mismatch")
            _log.debug("rpc.call", method=method)
            return response.get("result")

    # -- pipelining -----------------------------------------------------------

    @contextlib.contextmanager
    def pipeline(self, window: int = 32) -> Iterator["_Pipeline"]:
        """Keep up to *window* requests in flight on this connection.

        ``submit()`` seals and transmits immediately and returns a
        :class:`PendingCall`; ``result()`` blocks until that call's
        response has been read off the wire. Responses may complete out
        of submission order on a worker-pool server — matching is by
        envelope id. Unlike :meth:`call` there is **no transparent
        retry** inside a pipeline: a transport or channel failure breaks
        every outstanding call (their idempotency keys remain valid, so
        re-issuing them through ``call()`` after a reconnect is safe and
        dedupes server-side). On exit the pipeline drains all pending
        responses so the channel cipher stays in sequence for subsequent
        plain calls.
        """
        if not self.connected:
            raise ProtocolError("pipeline before connect()")
        if not hasattr(self._connection, "send_frame"):
            raise ProtocolError("connection does not support pipelining")
        if window < 1:
            raise ValueError("pipeline window must be >= 1")
        pl = _Pipeline(self, window)
        try:
            yield pl
            pl.drain()
        finally:
            # an exception path must still drain: unread responses would
            # desynchronize the channel cipher for the next call()
            if pl.pending and pl.broken is None:
                try:
                    pl.drain()
                except ReproError:
                    pass

    def close(self) -> None:
        self.connected = False
        self._connection.close()

    def __enter__(self) -> "RPCClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class PendingCall:
    """Handle for one in-flight pipelined request."""

    __slots__ = ("method", "request_id", "idempotency_key", "_pipeline", "_done", "_result", "_error")

    def __init__(self, pipeline: "_Pipeline", method: str, request_id: int, idempotency_key: str) -> None:
        self.method = method
        self.request_id = request_id
        self.idempotency_key = idempotency_key
        self._pipeline = pipeline
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """Block until this call's response arrives; raise remote errors."""
        self._pipeline.wait_for(self)
        if self._error is not None:
            raise self._error
        return self._result


class _Pipeline:
    """Sliding window of sealed requests on one client connection.

    Single-threaded by design (one submitter/consumer); the concurrency
    it buys comes from the *server* overlapping the dispatches while
    requests and responses stream past each other on the wire.
    """

    def __init__(self, client: RPCClient, window: int) -> None:
        self._client = client
        self._window = window
        self._pending: dict[int, PendingCall] = {}
        self.broken: Optional[BaseException] = None

    @property
    def pending(self) -> int:
        return len(self._pending)

    def submit(self, method: str, **params: Any) -> PendingCall:
        """Seal and transmit one request; never blocks on the response
        unless the window is full (then it reads one response first)."""
        if self.broken is not None:
            raise TransportError(f"pipeline broken: {self.broken}") from self.broken
        while len(self._pending) >= self._window:
            self._receive_one()
        client = self._client
        request_id = client._next_id
        client._next_id += 1
        idempotency_key = f"{client._nonce}:{request_id}"
        span = obs_trace.current()
        sealed = client._context.wrap(
            make_request(
                method,
                params,
                request_id,
                trace=obs_trace.to_wire(span) if span is not None else None,
                idempotency_key=idempotency_key,
                sent_at=client._clock.epoch(),
            )
        )
        call = PendingCall(self, method, request_id, idempotency_key)
        self._pending[request_id] = call
        try:
            client._connection.send_frame(canonical_dumps({"kind": "sealed", "record": sealed}))
        except ReproError as exc:
            self._break(exc)
            raise
        obs_metrics.counter("rpc.client.pipeline.submitted", method=method).inc()
        return call

    def wait_for(self, call: PendingCall) -> None:
        while not call._done:
            if self.broken is not None:
                raise TransportError(f"pipeline broken: {self.broken}") from self.broken
            self._receive_one()

    def drain(self) -> None:
        """Read responses until nothing is outstanding."""
        while self._pending:
            self._receive_one()

    def _break(self, exc: BaseException) -> None:
        self.broken = exc
        self._client.connected = False
        for pending in self._pending.values():
            if not pending._done:
                pending._error = TransportError(f"pipeline broken: {exc}")
                pending._done = True
        self._pending.clear()

    def _receive_one(self) -> None:
        client = self._client
        try:
            reply = parse_payload(client._connection.recv_frame())
            if reply["kind"] == "refused":
                raise ConnectionRefused(reply.get("reason", "connection dropped"))
            if reply["kind"] != "sealed":
                raise ProtocolError(f"unexpected reply kind {reply['kind']!r}")
            response = parse_payload(client._context.unwrap(reply["record"]))
        except ReproError as exc:
            self._break(exc)
            raise
        call = self._pending.pop(response.get("id"), None)
        if call is None:
            exc = ProtocolError(f"response for unknown request id {response.get('id')!r}")
            self._break(exc)
            raise exc
        if response["kind"] == "error":
            obs_metrics.counter("rpc.client.remote_errors", method=call.method).inc()
            try:
                raise_remote_error(response)
            except ReproError as remote:
                call._error = remote
        elif response["kind"] == "response":
            call._result = response.get("result")
        else:
            exc = ProtocolError(f"unexpected response kind {response['kind']!r}")
            self._break(exc)
            raise exc
        call._done = True
