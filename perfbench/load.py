"""Load generation: the four workloads' traffic and the client threads.

The load is one process with two client threads, each holding one GSI
connection to a bank. The loop is closed: like a GridBank Payment Module
or Charging Module, a thread sends its next request only after the
signed reply to the previous one has arrived and been checked.

Each thread's operations are drawn up front from the workload seed, so a
run is a fixed amount of work and the same seed gives the same inputs.

A transfer that loses the reply cache's eviction race (two concurrent
``ReplyCache._evict`` calls delete the same oldest rows, and the second
delete raises ``NotFoundError``) is re-sent, as a GridBank client with an
idempotency key would do. The failed attempt rolled back inside its
transaction, so the re-send with the same key runs it once. A cross-shard
transfer whose participant lost the race has been aborted and refunded
by its coordinator; it is issued again as a new call. Every such retry is
counted by error type, so the defect stays visible.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from typing import Optional

from repro.core.api import GridBankAPI
from repro.errors import AccountError, NotFoundError, ReproError, SignatureError
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient
from repro.net.tcp import TCPClientConnection
from repro.util.gbtime import SystemClock, Timestamp
from repro.util.money import Credits

from perfbench.deploy import Ledger

__all__ = ["CountingConnection", "LoadThread", "connect", "draw_ops"]

# operation kinds; a latency class is reported for every kind
PAY = "pay"  # RequestDirectTransfer within one bank or shard
XPAY = "cross_shard"  # RequestDirectTransfer whose recipient is on the other shard
DETAILS = "details"  # RequestAccountDetails
STATEMENT = "statement"  # RequestAccountStatement

_CROSS_EVERY = 2  # half of the cross_shard transfers cross shards
_STATEMENT_EVERY = 10  # a tenth of the statements mix are statements
_SHARDS = ("s1", "s2")
_ATTEMPTS = 5  # sends of one call, and issues of one cross-shard transfer


def lost_eviction_race(exc: BaseException) -> bool:
    """Whether *exc* comes from a reply-cache eviction that lost the race:
    a delete of a ``replies`` row another eviction had already deleted."""
    # a KeyError's str() quotes its message, once per re-raise
    return "in 'replies'" in str(exc).replace("\\", "")


class EvictionRaceRetry(RetryPolicy):
    """Re-send a call at once, with its idempotency key, when it lost the
    eviction race; nothing else is retried. Counts the re-sends."""

    def __init__(self) -> None:
        super().__init__(max_attempts=_ATTEMPTS, base_delay=0.0, on_retry=self._count)
        self.retried: Counter = Counter()  # error type -> re-sends

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, NotFoundError) and lost_eviction_race(exc)

    def _count(self, attempt: int, exc: BaseException) -> None:
        self.retried[type(exc).__name__] += 1


def draw_ops(workload: str, ledger: Ledger, thread: int, count: int, rng: random.Random) -> list:
    """*count* operations for client thread *thread* (0 or 1).

    Mixes are exact, not sampled: every block of ``1 / share`` operations
    holds one of the minority kind at a seeded position, so each run of a
    given length carries the same number of each kind.
    """
    ops = []
    if workload == "cross_shard":
        home, other = _SHARDS[thread], _SHARDS[1 - thread]
        consumers = ledger.consumers[home]
        for cross in _exact_mix(count, _CROSS_EVERY, rng):
            provider = rng.choice(ledger.providers[other if cross else home])
            ops.append((XPAY if cross else PAY, rng.choice(consumers), provider, _amount(rng)))
    elif workload == "statements":
        consumers = ledger.all_consumers()
        for statement in _exact_mix(count, _STATEMENT_EVERY, rng):
            ops.append((STATEMENT if statement else DETAILS, rng.choice(consumers), None, None))
    else:
        consumers, providers = ledger.all_consumers(), ledger.all_providers()
        for _ in range(count):
            ops.append((PAY, rng.choice(consumers), rng.choice(providers), _amount(rng)))
    return ops


def _exact_mix(count: int, every: int, rng: random.Random) -> list[bool]:
    """*count* flags, exactly one True in each block of *every*."""
    flags = []
    while len(flags) < count:
        block = [False] * every
        block[rng.randrange(every)] = True
        flags.extend(block)
    return flags[:count]


def _amount(rng: random.Random) -> Credits:
    return Credits.from_micro(rng.randrange(10_000, 1_000_000))


class CountingConnection(TCPClientConnection):
    """A client TCP connection that counts the framed bytes it carries,
    with the retry policy of the client that owns it."""

    def __init__(self, address: tuple[str, int]) -> None:
        super().__init__(address, timeout=60.0)
        self.bytes = 0
        self.retry = EvictionRaceRetry()

    def send_frame(self, payload: bytes) -> None:
        super().send_frame(payload)
        self.bytes += len(payload) + 4

    def recv_frame(self) -> bytes:
        payload = super().recv_frame()
        self.bytes += len(payload) + 4
        return payload


def connect(address: str, identity, store, seed: int) -> tuple[GridBankAPI, CountingConnection]:
    host, _, port = address.partition(":")
    connection = CountingConnection((host, int(port)))
    client = RPCClient(connection, identity, store, rng=random.Random(seed),
                       retry_policy=connection.retry)
    client.connect()
    return GridBankAPI(client, rng=random.Random(seed + 1)), connection


class PhaseResult:
    """What one thread saw in one phase."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.failures: Counter = Counter()  # error type -> count
        self.retried: Counter = Counter()  # error type -> retries that followed it
        self.rescued = 0  # operations that succeeded only after a retry
        self.confirmed: list[tuple[str, str, Credits]] = []
        # transfers that answered with an error: a cross-shard one may
        # still complete later, when its prepared intent is resolved
        self.unconfirmed: list[tuple[str, str, Credits]] = []
        self.violations: list[str] = []
        self.attempted = 0


class LoadThread(threading.Thread):
    """Runs its phases in order, meeting the other threads at *barrier*
    before and after each phase so the coordinator can take readings."""

    def __init__(
        self,
        api: GridBankAPI,
        connection: CountingConnection,
        ledger: Ledger,
        phases: list[list],
        barrier: threading.Barrier,
    ) -> None:
        super().__init__(daemon=True)
        self.api = api
        self.retry = connection.retry
        self.ledger = ledger
        self.phases = phases
        self.barrier = barrier
        self.results = [PhaseResult() for _ in phases]
        self.error: Optional[BaseException] = None
        self._statement_end = Timestamp(SystemClock().now().epoch + 86_400)

    def run(self) -> None:
        try:
            for ops, result in zip(self.phases, self.results):
                self.barrier.wait()
                for op in ops:
                    self._one(op, result)
                self.barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported by the coordinator
            self.error = exc
            self.barrier.abort()

    def _one(self, op: tuple, result: PhaseResult) -> None:
        kind, account, other, amount = op
        api = self.api
        result.attempted += 1
        resent = Counter(self.retry.retried)
        retries = sum(result.retried.values())
        failed = True
        started = time.perf_counter()
        try:
            if kind in (PAY, XPAY):
                reply = self._transfer(account, other, amount, result)
            elif kind == DETAILS:
                reply = api.account_details(account)
            else:
                reply = api.account_statement(account, Timestamp(0.0), self._statement_end)
            failed = False
        except SignatureError as exc:
            result.violations.append(f"{kind} {account}: confirmation failed to verify: {exc}")
            return
        except ReproError as exc:
            result.failures[type(exc).__name__] += 1
            if kind in (PAY, XPAY):
                result.unconfirmed.append((account, other, amount))
            return
        finally:
            result.latencies.setdefault(kind, []).append(time.perf_counter() - started)
            result.retried.update(self.retry.retried - resent)
            if not failed and sum(result.retried.values()) > retries:
                result.rescued += 1
        self._check(kind, account, other, amount, reply, result)

    def _transfer(self, account, other, amount, result: PhaseResult):
        for issue in range(1, _ATTEMPTS + 1):
            try:
                return self.api.request_direct_transfer(account, other, amount)
            except AccountError as exc:
                # a cross-shard intent aborted by the race: the coordinator
                # refunded the drawer, so the transfer is issued again
                if issue == _ATTEMPTS or not lost_eviction_race(exc):
                    raise
                result.retried[type(exc).__name__] += 1

    def _check(self, kind, account, other, amount, reply, result: PhaseResult) -> None:
        ledger = self.ledger
        if kind in (PAY, XPAY):
            # the signature was verified against the bank key by the API
            payload = reply.payload
            if (
                payload.get("drawer_account") != account
                or payload.get("recipient_account") != other
                or Credits(payload.get("amount", 0)) != amount
            ):
                result.violations.append(f"confirmation does not match request: {payload}")
            else:
                result.confirmed.append((account, other, amount))
        elif kind == DETAILS:
            if Credits(reply["AvailableBalance"]) != ledger.balance[account]:
                result.violations.append(
                    f"{account}: balance {reply['AvailableBalance']} != {ledger.balance[account]}"
                )
        else:
            expected = ledger.transfers[account]
            got = {}
            for row in reply["transfers"]:
                sign = -1 if row["DrawerAccountID"] == account else 1
                got[row["TransactionID"]] = Credits(row["Amount"]) * sign
            if got != expected:
                result.violations.append(
                    f"{account}: statement has {len(got)} transfers, ledger {len(expected)}"
                )
