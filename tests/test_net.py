"""Unit + integration tests for transports and secure RPC."""

import random

import pytest

from repro.errors import (
    InsufficientFundsError,
    PaymentError,
    ProtocolError,
    RPCError,
    TransportError,
)
from repro.gsi.authorization import AllowAllPolicy, SubjectListPolicy
from repro.net import message as wire
from repro.net import rpc
from repro.net.aio import AsyncTCPServer
from repro.net.message import frame, make_request, parse_payload, unframe_stream
from repro.net.rpc import ConnectionRefused, RPCClient, ServiceEndpoint
from repro.net.tcp import TCPClientConnection, TCPServer
from repro.net.transport import FaultPlan, InProcessNetwork
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock


@pytest.fixture(scope="module")
def world(ca_keypair, keypair_a, keypair_b):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    alice = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_a)
    server_ident = ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_b)
    store = CertificateStore([ca.root_certificate])
    return {"clock": clock, "alice": alice, "server": server_ident, "store": store}


def make_endpoint(world, policy=None) -> ServiceEndpoint:
    endpoint = ServiceEndpoint(
        world["server"],
        world["store"],
        policy if policy is not None else AllowAllPolicy(),
        clock=world["clock"],
        rng=random.Random(77),
    )
    endpoint.register("echo", lambda subject, params: {"subject": subject, **params})
    endpoint.register("add", lambda subject, params: params["a"] + params["b"])

    def overdraw(subject, params):
        raise InsufficientFundsError("balance too low")

    def bounce(subject, params):
        raise PaymentError("cheque bounced")

    def explode(subject, params):
        raise KeyError("missing_param")

    endpoint.register("overdraw", overdraw)
    endpoint.register("bounce", bounce)
    endpoint.register("explode", explode)
    return endpoint


def make_client(world, connection) -> RPCClient:
    return RPCClient(
        connection,
        world["alice"],
        world["store"],
        clock=world["clock"],
        rng=random.Random(88),
    )


class TestFraming:
    def test_frame_roundtrip(self):
        payloads = [b"one", b"", b"three" * 100]
        stream = b"".join(frame(p) for p in payloads)
        pos = 0

        def read(n):
            nonlocal pos
            chunk = stream[pos : pos + min(n, 3)]  # dribble 3 bytes at a time
            pos += len(chunk)
            return chunk

        assert list(unframe_stream(read)) == payloads

    def test_truncated_frame_raises(self):
        data = frame(b"hello")[:-2]
        pos = 0

        def read(n):
            nonlocal pos
            chunk = data[pos : pos + n]
            pos += len(chunk)
            return chunk

        with pytest.raises(ProtocolError):
            list(unframe_stream(read))

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            frame(b"x" * (17 * 1024 * 1024))

    def test_parse_payload_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            parse_payload(b"not json")
        with pytest.raises(ProtocolError):
            parse_payload(b'{"no":"kind"}')
        with pytest.raises(ProtocolError):
            parse_payload(b"[1,2]")


class TestInProcessRPC:
    def test_connect_and_call(self, world):
        network = InProcessNetwork()
        endpoint = make_endpoint(world)
        network.listen("bank", endpoint.connection_handler)
        client = make_client(world, network.connect("bank"))
        server_subject = client.connect()
        assert server_subject == world["server"].subject
        assert client.server_subject == world["server"].subject
        result = client.call("echo", x=1)
        assert result == {"subject": world["alice"].subject, "x": 1}
        assert client.call("add", a=2, b=3) == 5

    def test_remote_library_error_reraised_by_class(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises(InsufficientFundsError, match="balance too low"):
            client.call("overdraw")

    def test_remote_payment_error_type_preserved(self, world):
        """Regression: a PaymentError raised inside a server operation must
        surface at the client as PaymentError — the exact class, not a
        generic RPCError — so payment-protocol callers can catch it."""
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises(PaymentError, match="cheque bounced") as excinfo:
            client.call("bounce")
        assert type(excinfo.value) is PaymentError

    def test_unexpected_server_error_survives_as_rpc_error(self, world):
        """A non-library bug (KeyError) in an operation must not kill the
        connection: the client sees an RPCError naming the remote type and
        the session stays usable."""
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises(RPCError) as excinfo:
            client.call("explode")
        assert excinfo.value.remote_type == "KeyError"
        assert client.call("add", a=1, b=2) == 3  # connection still alive

    def test_unknown_method(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises((RPCError, ProtocolError)):
            client.call("nonexistent")

    def test_unauthorized_subject_refused(self, world):
        network = InProcessNetwork()
        endpoint = make_endpoint(world, policy=SubjectListPolicy(["/O=Other/CN=someone"]))
        network.listen("bank", endpoint.connection_handler)
        client = make_client(world, network.connect("bank"))
        with pytest.raises(ConnectionRefused, match="not authorized"):
            client.connect()
        assert endpoint.refused_connections == 1
        assert endpoint.accepted_connections == 0

    def test_call_before_connect(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        with pytest.raises(ProtocolError):
            client.call("echo")

    def test_no_service_at_address(self, world):
        network = InProcessNetwork()
        with pytest.raises(TransportError, match="refused"):
            network.connect("nowhere")

    def test_stats_counted(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        base = network.stats.messages_sent
        client.call("add", a=1, b=1)
        assert network.stats.messages_sent == base + 1
        assert network.stats.messages_received >= base + 1
        assert network.stats.connections == 1
        assert network.stats.bytes_sent > 0

    def test_fault_injection_drops(self, world):
        network = InProcessNetwork(
            faults=FaultPlan(drop_request_probability=1.0, rng=random.Random(1))
        )
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        with pytest.raises(TransportError, match="dropped"):
            client.connect()
        assert network.stats.drops == 1

    def test_closed_connection_rejects_requests(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        conn = network.connect("bank")
        client = make_client(world, conn)
        client.connect()
        client.close()
        with pytest.raises(TransportError):
            conn.request(b"{}")

    def test_duplicate_listen_rejected(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        with pytest.raises(TransportError):
            network.listen("bank", make_endpoint(world).connection_handler)
        network.unlisten("bank")
        network.listen("bank", make_endpoint(world).connection_handler)

    def test_plaintext_after_handshake_refused(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        conn = network.connect("bank")
        client = make_client(world, conn)
        client.connect()
        reply = parse_payload(conn.request(make_request("echo", {}, 1)))
        assert reply["kind"] == "refused"


#: Both socket backends serve the same framed/sealed protocol from the
#: same handler factories; every TCP test runs against each.
SERVER_BACKENDS = {"threads": TCPServer, "async": AsyncTCPServer}


@pytest.fixture(params=sorted(SERVER_BACKENDS))
def server_cls(request):
    return SERVER_BACKENDS[request.param]


class TestTCP:
    def test_rpc_over_real_sockets(self, world, server_cls):
        endpoint = make_endpoint(world)
        with server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            client = make_client(world, conn)
            assert client.connect() == world["server"].subject
            assert client.call("add", a=10, b=5) == 15
            with pytest.raises(InsufficientFundsError):
                client.call("overdraw")
            client.close()

    def test_pipelined_calls_over_real_sockets(self, world, server_cls):
        endpoint = make_endpoint(world)
        with server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            client = make_client(world, conn)
            client.connect()
            with client.pipeline(window=8) as pl:
                pending = [pl.submit("add", a=i, b=i) for i in range(24)]
                assert [p.result() for p in pending] == [2 * i for i in range(24)]
            # plain calls still work after the pipeline drained (sequence
            # numbers stayed in lockstep on both ends)
            assert client.call("add", a=1, b=2) == 3
            client.close()

    def test_multiple_sequential_clients(self, world, server_cls):
        endpoint = make_endpoint(world)
        with server_cls(endpoint.connection_handler) as server:
            for i in range(3):
                conn = TCPClientConnection(server.address)
                client = make_client(world, conn)
                client.connect()
                assert client.call("add", a=i, b=1) == i + 1
                client.close()
        assert endpoint.accepted_connections == 3

    def test_oversized_response_answers_typed_error(self, world, server_cls, monkeypatch):
        endpoint = make_endpoint(world)
        endpoint.register("bulk", lambda subject, params: "x" * params["n"])
        sealed_sizes = []
        real_seal = rpc._ServerConnection.seal

        def recording_seal(handler, response):
            sealed = real_seal(handler, response)
            sealed_sizes.append(len(sealed))
            return sealed

        monkeypatch.setattr(rpc._ServerConnection, "seal", recording_seal)
        with server_cls(endpoint.connection_handler) as server:
            client = make_client(world, TCPClientConnection(server.address))
            client.connect()
            assert client.call("bulk", n=1000) == "x" * 1000
            # one more result byte is two more hex characters in the frame
            limit = sealed_sizes[-1] + 2 * 9000
            monkeypatch.setattr(wire, "MAX_FRAME", limit)
            assert client.call("bulk", n=10_000) == "x" * 10_000
            assert sealed_sizes[-1] == limit  # the size check is exact
            with pytest.raises(ProtocolError, match="does not fit in one frame"):
                client.call("bulk", n=10_001)
            # no cipher sequence number was spent on the refused response
            assert client.call("add", a=1, b=2) == 3
            client.close()

    def test_refusal_over_tcp(self, world, server_cls):
        endpoint = make_endpoint(world, policy=SubjectListPolicy())
        with server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            client = make_client(world, conn)
            with pytest.raises(ConnectionRefused):
                client.connect()
            client.close()
