"""Durable reply cache — the server half of exactly-once RPC.

The bank routes every mutating operation through this cache: before
dispatch it looks the request's idempotency key up, and a hit returns the
*original* response without re-executing; after a successful execution it
stores the response **inside the same database transaction** as the
operation's ledger effects. Because the :class:`~repro.db.database.Database`
journals a transaction as one WAL line, a crash between "funds moved" and
"reply recorded" is impossible — recovery replays both or neither, and a
client retrying across the crash gets the cached reply instead of a
second execution. This is what upgrades the instrument registry's
"retried redemption fails loudly" into "retried redemption returns the
original confirmation".

The cache is bounded: when it reaches ``max_entries`` the oldest rows (by
insertion sequence) are evicted in batches. A batch is picked from the
``Seq`` index and deleted under one hold of the database lock
(:meth:`~repro.db.database.Database.evict_oldest`), so concurrent stores
never race for the same victims, and the deletes ride the operation's
transaction as part of its one WAL line. An evicted key's retry falls
back to ordinary execution — safe for instrument operations (the
double-spend registry still refuses). How far back retries are still
deduplicated is exported on each eviction as
``bank.reply_cache.horizon_seconds``: now minus the ``Date`` of the oldest
surviving reply.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.bank.records import reply_schema
from repro.db.database import Database
from repro.errors import ProtocolError
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.util.gbtime import Clock, Timestamp
from repro.util.ids import IdGenerator
from repro.util.serialize import canonical_dumps, canonical_loads

__all__ = ["ReplyCache"]

_log = get_logger("bank.replies")

# evict this many rows at once when full, amortizing the index scan
_EVICTION_BATCH = 64


class ReplyCache:
    """Idempotency-keyed store of mutating-operation responses."""

    def __init__(self, db: Database, clock: Clock, max_entries: int = 10_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.db = db
        self.clock = clock
        self.max_entries = max_entries
        if reply_schema().name not in db.table_names():
            db.create_table(reply_schema())
        self.rescan()

    def rescan(self) -> None:
        """Re-derive the insertion sequence from persisted rows (called at
        construction and again after WAL recovery replays the journal)."""
        highest = 0
        for row in self.db.table("replies").all_rows():
            highest = max(highest, row["Seq"])
        self._seq = IdGenerator(start=highest + 1)

    def lookup(self, idempotency_key: str, subject: str, method: str) -> Optional[dict]:
        """The cached reply row for *idempotency_key*, if any.

        A key found under a different subject or method is a protocol
        violation (key reuse or a forged replay) and is refused loudly
        rather than served or re-executed.
        """
        row = self.db.find("replies", (idempotency_key,))
        if row is None:
            return None
        if row["Subject"] != subject or row["Method"] != method:
            _log.warning(
                "replies.key_conflict",
                key=idempotency_key,
                cached_method=row["Method"],
                request_method=method,
            )
            raise ProtocolError(
                f"idempotency key {idempotency_key!r} was already used by a "
                f"different caller or operation"
            )
        return row

    @staticmethod
    def replay(row: dict) -> Any:
        """Decode the cached result carried by a reply row."""
        return canonical_loads(row["Body"])

    def store(self, idempotency_key: str, subject: str, method: str, result: Any) -> None:
        """Record *result* for *idempotency_key*.

        Must run inside the operation's database transaction so the reply
        commits atomically (same WAL line) with the ledger effects it
        describes; calling it outside a transaction raises.
        """
        self.db.require_transaction("reply cache writes")
        count = len(self.db.table("replies"))  # O(1), vs count()'s full scan
        if count >= self.max_entries:
            self._evict(count - self.max_entries + 1)
        self.db.insert(
            "replies",
            {
                "IdempotencyKey": idempotency_key,
                "Seq": self._seq.next_int(),
                "Subject": subject,
                "Method": method,
                "Date": self.clock.now(),
                "Body": canonical_dumps(result),
            },
        )

    def _evict(self, need: int) -> None:
        evicted = self.db.evict_oldest("replies", "Seq", max(need, _EVICTION_BATCH))
        # only an eviction moves the horizon, so the hot path pays nothing
        oldest = self.db.oldest("replies", "Seq")
        horizon = self.clock.now() - Timestamp.from_stamp14(oldest[0]["Date"]) if oldest else 0.0
        obs_metrics.gauge("bank.reply_cache.horizon_seconds").set(horizon)
        _log.debug("replies.evicted", count=evicted)

    def __len__(self) -> int:
        return len(self.db.table("replies"))
