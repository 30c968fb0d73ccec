"""Wire messages and framing.

Every payload on the wire is a canonical-JSON dict. Over stream transports
(TCP) payloads are framed with a 4-byte big-endian length prefix. RPC
requests/responses are small tagged dicts; the GSI handshake tokens travel
as payloads of kind ``gsi``.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, Optional

import repro.errors as _errors
from repro.errors import ProtocolError, ReproError, RPCError, ValidationError
from repro.util.serialize import canonical_dumps, canonical_loads

__all__ = [
    "MAX_FRAME",
    "fits_frame",
    "frame",
    "unframe_stream",
    "make_request",
    "make_response",
    "make_error",
    "parse_payload",
    "resolve_error_class",
    "raise_remote_error",
]

MAX_FRAME = 16 * 1024 * 1024  # 16 MiB — RURs are small; this is generous
_LEN = struct.Struct(">I")


def fits_frame(size: int) -> bool:
    """Whether a payload of *size* bytes may travel as one frame."""
    return size <= MAX_FRAME


def frame(payload: bytes) -> bytes:
    """Length-prefix *payload* for a stream transport."""
    if not fits_frame(len(payload)):
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    return _LEN.pack(len(payload)) + payload


def unframe_stream(read) -> Iterator[bytes]:
    """Yield payloads from a blocking ``read(n) -> bytes`` callable.

    Stops cleanly on EOF at a frame boundary; raises ProtocolError on a
    truncated frame or an oversized length.
    """
    while True:
        header = _read_exact(read, _LEN.size, allow_eof=True)
        if header is None:
            return
        (length,) = _LEN.unpack(header)
        if length > MAX_FRAME:
            raise ProtocolError(f"frame too large: {length} bytes")
        payload = _read_exact(read, length, allow_eof=False)
        assert payload is not None
        yield payload


def _read_exact(read, n: int, allow_eof: bool) -> Optional[bytes]:
    chunks = []
    got = 0
    while got < n:
        chunk = read(n - got)
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


# -- RPC envelopes -----------------------------------------------------------


def make_request(
    method: str,
    params: dict,
    request_id: int,
    trace: Optional[dict] = None,
    idempotency_key: str = "",
    deadline: Optional[float] = None,
    sent_at: Optional[float] = None,
) -> bytes:
    """Encode a request envelope.

    *trace* is the optional observability context (``trace_id`` /
    ``span_id`` / ``parent_id``, see :mod:`repro.obs.trace`); servers
    restore it around dispatch so client and server spans share one
    trace ID.

    *idempotency_key* (``client_nonce:seq``) names the logical call: it
    stays stable across transparent re-sends, so the server's reply cache
    can return the original response instead of re-executing a mutating
    operation. *deadline* is an absolute epoch-seconds bound; a request
    arriving past it is rejected with ``DeadlineExceeded`` before
    dispatch. *sent_at* is the client clock epoch when the *logical* call
    began (stable across re-sends, like the idempotency key); servers use
    it to measure client-observed latency — queueing, retries and
    network faults included — for SLO accounting.
    """
    envelope: dict = {"kind": "request", "id": request_id, "method": method, "params": params}
    if trace:
        envelope["trace"] = trace
    if idempotency_key:
        envelope["idempotency_key"] = idempotency_key
    if deadline is not None:
        envelope["deadline"] = deadline
    if sent_at is not None:
        envelope["sent_at"] = sent_at
    return canonical_dumps(envelope)


def make_response(request_id: int, result: Any) -> bytes:
    return canonical_dumps({"kind": "response", "id": request_id, "result": result})


def make_error(request_id: int, error_type: str, message: str) -> bytes:
    return canonical_dumps(
        {"kind": "error", "id": request_id, "error_type": error_type, "message": message}
    )


def parse_payload(data: bytes) -> dict:
    """Parse any wire payload; raises ProtocolError on malformed data."""
    try:
        payload = canonical_loads(data)
    except ValidationError as exc:
        raise ProtocolError(f"malformed wire payload: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProtocolError("wire payload must be a dict with a 'kind'")
    return payload


_ERROR_CLASSES = {
    name: getattr(_errors, name)
    for name in _errors.__all__
    if isinstance(getattr(_errors, name), type)
}


def resolve_error_class(error_type: str) -> Optional[type]:
    """Library exception class named by a wire ``error_type``, if any."""
    error_class = _ERROR_CLASSES.get(error_type)
    if error_class is not None and issubclass(error_class, ReproError):
        return error_class
    return None


def raise_remote_error(payload: dict) -> None:
    """Re-raise an error payload, preserving the server-side error type.

    A remote ``PaymentError`` surfaces as :class:`PaymentError` locally;
    types outside the :mod:`repro.errors` hierarchy fall back to
    :class:`RPCError` with ``remote_type`` carrying the original name.
    """
    message = payload.get("message", "remote error")
    error_class = resolve_error_class(payload.get("error_type", ""))
    if error_class is not None:
        raise error_class(message)
    raise RPCError(message, remote_type=payload.get("error_type", ""))
