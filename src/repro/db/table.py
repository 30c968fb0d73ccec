"""Table storage: primary-key map plus secondary hash indexes.

Rows are stored as canonicalized dicts keyed by primary-key tuple. Secondary
indexes map column value -> set of pks and are maintained on every mutation.
Mutation methods return undo entries so the database's transaction layer can
roll back.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.db.query import Condition
from repro.db.schema import TableSchema
from repro.errors import DatabaseError, IntegrityError, NotFoundError

__all__ = ["Table"]


class Table:
    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[tuple, dict] = {}
        self._indexes: dict[str, dict[Any, set[tuple]]] = {col: {} for col in schema.indexes}

    # -- index maintenance ---------------------------------------------------

    def _index_add(self, pk: tuple, row: dict) -> None:
        for col, index in self._indexes.items():
            index.setdefault(row[col], set()).add(pk)

    def _index_remove(self, pk: tuple, row: dict) -> None:
        for col, index in self._indexes.items():
            bucket = index.get(row[col])
            if bucket is not None:
                bucket.discard(pk)
                if not bucket:
                    del index[row[col]]

    # -- mutations (return undo callables) ------------------------------------

    def insert(self, row: dict) -> tuple:
        """Insert a full row; returns its pk. Raises on duplicate pk."""
        validated = self.schema.validate_row(row)
        pk = self.schema.pk_of(validated)
        if pk in self._rows:
            raise IntegrityError(f"duplicate primary key {pk!r} in {self.schema.name!r}")
        self._rows[pk] = validated
        self._index_add(pk, validated)
        return pk

    def update(self, pk: tuple, changes: dict) -> dict:
        """Apply *changes* to the row at *pk*; returns the prior row copy."""
        row = self._rows.get(pk)
        if row is None:
            raise NotFoundError(f"no row {pk!r} in {self.schema.name!r}")
        validated = self.schema.validate_row(changes, partial=True)
        for col in self.schema.primary_key:
            if col in validated and validated[col] != row[col]:
                raise IntegrityError("primary key columns are immutable")
        before = dict(row)
        self._index_remove(pk, row)
        row.update(validated)
        self._index_add(pk, row)
        return before

    def delete(self, pk: tuple) -> dict:
        """Delete the row at *pk*; returns the removed row."""
        row = self._rows.pop(pk, None)
        if row is None:
            raise NotFoundError(f"no row {pk!r} in {self.schema.name!r}")
        self._index_remove(pk, row)
        return row

    # -- reads ---------------------------------------------------------------

    def get(self, pk: tuple) -> dict:
        """Copy of the row at *pk*; raises :class:`NotFoundError`."""
        row = self._rows.get(pk)
        if row is None:
            raise NotFoundError(f"no row {pk!r} in {self.schema.name!r}")
        return dict(row)

    def find(self, pk: tuple) -> Optional[dict]:
        row = self._rows.get(pk)
        return dict(row) if row is not None else None

    def __contains__(self, pk: tuple) -> bool:
        return pk in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def _iter_matching(self, conditions: Sequence[Condition]) -> Iterator[dict]:
        """Internal (uncopied) rows satisfying every condition.

        Uses the smallest applicable secondary index for equality conditions,
        then filters the remainder.
        """
        candidate_pks: Optional[Iterable[tuple]] = None
        for cond in conditions:
            if cond.is_equality and cond.column in self._indexes:
                bucket = self._indexes[cond.column].get(cond.eq_value, set())
                candidate_pks = bucket if candidate_pks is None else (
                    [pk for pk in candidate_pks if pk in bucket]
                )
        if candidate_pks is None:
            rows: Iterator[dict] = iter(self._rows.values())
        else:
            rows = (self._rows[pk] for pk in candidate_pks if pk in self._rows)
        return (row for row in rows if all(cond(row) for cond in conditions))

    def select(
        self,
        conditions: Sequence[Condition] = (),
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """All rows satisfying every condition (row copies)."""
        out = [dict(row) for row in self._iter_matching(conditions)]
        if order_by is not None:
            out.sort(key=lambda r: r[order_by], reverse=descending)
        if limit is not None:
            out = out[:limit]
        return out

    def oldest(self, column: str, limit: int) -> list[tuple]:
        """Pks of the *limit* rows with the smallest *column* values, in
        ascending order (ties by pk).

        Reads the column's secondary index: only its distinct keys are
        scanned, and no row is copied or sorted.
        """
        index = self._indexes.get(column)
        if index is None:
            raise DatabaseError(f"column {column!r} of {self.schema.name!r} is not indexed")
        pks: list[tuple] = []
        for key in heapq.nsmallest(limit, index):
            pks.extend(sorted(index[key]))
        return pks[:limit]

    def count(self, conditions: Sequence[Condition] = ()) -> int:
        if not conditions:
            return len(self._rows)
        return sum(1 for _ in self._iter_matching(conditions))

    def exists(self, conditions: Sequence[Condition] = ()) -> bool:
        """True iff any row matches (short-circuits; no copies)."""
        return next(self._iter_matching(conditions), None) is not None

    def all_rows(self) -> list[dict]:
        return [dict(row) for row in self._rows.values()]
