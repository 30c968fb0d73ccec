"""Unit + property tests for the relational engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import (
    BigIntUnsigned,
    Blob,
    Boolean,
    Column,
    Database,
    Float,
    Integer,
    TableSchema,
    Timestamp14,
    VarChar,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    predicate,
)
from repro.errors import (
    DatabaseError,
    DuplicateError,
    IntegrityError,
    NotFoundError,
    SchemaError,
    TransactionError,
)
from repro.util.gbtime import Timestamp


def account_schema() -> TableSchema:
    return TableSchema(
        "accounts",
        [
            Column.make("AccountID", VarChar(16)),
            Column.make("CertificateName", VarChar(150)),
            Column.make("Balance", Float(), default=0.0),
            Column.make("Notes", VarChar(30), nullable=True),
        ],
        primary_key=["AccountID"],
        indexes=["CertificateName"],
    )


def fresh_db() -> Database:
    db = Database()
    db.create_table(account_schema())
    return db


class TestColumnTypes:
    def test_varchar(self):
        assert VarChar(5).validate("hello") == "hello"
        with pytest.raises(SchemaError):
            VarChar(5).validate("toolong")
        with pytest.raises(SchemaError):
            VarChar(5).validate(5)
        with pytest.raises(SchemaError):
            VarChar(0)

    def test_float(self):
        assert Float().validate(2) == 2.0
        assert Float().validate(2.5) == 2.5
        for bad in (float("nan"), float("inf"), "x", True):
            with pytest.raises(SchemaError):
                Float().validate(bad)

    def test_integers(self):
        assert Integer().validate(-5) == -5
        assert BigIntUnsigned().validate(5) == 5
        with pytest.raises(SchemaError):
            BigIntUnsigned().validate(-1)
        with pytest.raises(SchemaError):
            Integer().validate(1 << 64)
        with pytest.raises(SchemaError):
            Integer().validate(True)

    def test_timestamp14(self):
        assert Timestamp14().validate("20030101000000") == "20030101000000"
        assert Timestamp14().validate(Timestamp(1041379200.0)) == "20030101000000"
        for bad in ("2003", 20030101000000, "2003010100000x"):
            with pytest.raises(SchemaError):
                Timestamp14().validate(bad)

    def test_blob_and_boolean(self):
        assert Blob().validate(b"\x00") == b"\x00"
        with pytest.raises(SchemaError):
            Blob().validate("str")
        assert Boolean().validate(True) is True
        with pytest.raises(SchemaError):
            Boolean().validate(1)


class TestSchema:
    def test_rejects_bad_definitions(self):
        col = Column.make("a", Integer())
        with pytest.raises(SchemaError):
            TableSchema("", [col], primary_key=["a"])
        with pytest.raises(SchemaError):
            TableSchema("t", [], primary_key=["a"])
        with pytest.raises(SchemaError):
            TableSchema("t", [col, col], primary_key=["a"])
        with pytest.raises(SchemaError):
            TableSchema("t", [col], primary_key=[])
        with pytest.raises(SchemaError):
            TableSchema("t", [col], primary_key=["missing"])
        with pytest.raises(SchemaError):
            TableSchema("t", [col], primary_key=["a"], indexes=["missing"])
        nullable = Column.make("n", Integer(), nullable=True)
        with pytest.raises(SchemaError):
            TableSchema("t", [nullable], primary_key=["n"])

    def test_validate_row_defaults_and_nullables(self):
        schema = account_schema()
        row = schema.validate_row({"AccountID": "01", "CertificateName": "cn"})
        assert row["Balance"] == 0.0
        assert row["Notes"] is None

    def test_validate_row_rejects_unknown_and_missing(self):
        schema = account_schema()
        with pytest.raises(SchemaError):
            schema.validate_row({"AccountID": "01", "CertificateName": "cn", "Bogus": 1})
        with pytest.raises(SchemaError):
            schema.validate_row({"AccountID": "01"})


class TestTableOps:
    def test_insert_get_update_delete(self):
        db = fresh_db()
        pk = db.insert("accounts", {"AccountID": "01", "CertificateName": "cn-a"})
        assert pk == ("01",)
        assert db.get("accounts", pk)["Balance"] == 0.0
        db.update("accounts", pk, {"Balance": 10.5})
        assert db.get("accounts", pk)["Balance"] == 10.5
        db.delete("accounts", pk)
        assert db.find("accounts", pk) is None
        with pytest.raises(NotFoundError):
            db.get("accounts", pk)

    def test_duplicate_pk_rejected(self):
        db = fresh_db()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        with pytest.raises(IntegrityError):
            db.insert("accounts", {"AccountID": "01", "CertificateName": "other"})

    def test_pk_immutable(self):
        db = fresh_db()
        pk = db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        with pytest.raises(IntegrityError):
            db.update("accounts", pk, {"AccountID": "02"})

    def test_update_missing_row(self):
        db = fresh_db()
        with pytest.raises(NotFoundError):
            db.update("accounts", ("nope",), {"Balance": 1.0})

    def test_rows_are_copies(self):
        db = fresh_db()
        pk = db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        row = db.get("accounts", pk)
        row["Balance"] = 999.0
        assert db.get("accounts", pk)["Balance"] == 0.0

    def test_unknown_table(self):
        db = fresh_db()
        with pytest.raises(NotFoundError):
            db.insert("nope", {})
        with pytest.raises(DuplicateError):
            db.create_table(account_schema())


class TestSelect:
    def setup_method(self):
        self.db = fresh_db()
        for i in range(10):
            self.db.insert(
                "accounts",
                {
                    "AccountID": f"{i:02d}",
                    "CertificateName": f"cn-{i % 3}",
                    "Balance": float(i),
                },
            )

    def test_indexed_equality(self):
        rows = self.db.select("accounts", [eq("CertificateName", "cn-1")])
        assert sorted(r["AccountID"] for r in rows) == ["01", "04", "07"]

    def test_combined_conditions(self):
        rows = self.db.select("accounts", [eq("CertificateName", "cn-1"), gt("Balance", 3.0)])
        assert sorted(r["AccountID"] for r in rows) == ["04", "07"]

    def test_comparisons(self):
        assert self.db.count("accounts", [lt("Balance", 3.0)]) == 3
        assert self.db.count("accounts", [le("Balance", 3.0)]) == 4
        assert self.db.count("accounts", [ge("Balance", 8.0)]) == 2
        assert self.db.count("accounts", [ne("CertificateName", "cn-0")]) == 6
        assert self.db.count("accounts", [between("Balance", 2.0, 4.0)]) == 3

    def test_predicate_and_ordering(self):
        rows = self.db.select(
            "accounts",
            [predicate(lambda r: int(r["AccountID"]) % 2 == 0)],
            order_by="Balance",
            descending=True,
            limit=2,
        )
        assert [r["AccountID"] for r in rows] == ["08", "06"]

    def test_index_updated_on_update_and_delete(self):
        pk = ("01",)
        self.db.update("accounts", pk, {"CertificateName": "cn-9"})
        assert self.db.count("accounts", [eq("CertificateName", "cn-9")]) == 1
        assert self.db.count("accounts", [eq("CertificateName", "cn-1")]) == 2
        self.db.delete("accounts", pk)
        assert self.db.count("accounts", [eq("CertificateName", "cn-9")]) == 0

    def test_select_all(self):
        assert len(self.db.select("accounts")) == 10
        assert self.db.count("accounts") == 10


class TestTransactions:
    def test_commit_keeps_changes(self):
        db = fresh_db()
        with db.transaction():
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
            db.update("accounts", ("01",), {"Balance": 5.0})
        assert db.get("accounts", ("01",))["Balance"] == 5.0

    def test_rollback_on_exception(self):
        db = fresh_db()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn", "Balance": 1.0})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.update("accounts", ("01",), {"Balance": 99.0})
                db.insert("accounts", {"AccountID": "02", "CertificateName": "cn2"})
                db.delete("accounts", ("01",))
                raise RuntimeError("abort")
        assert db.get("accounts", ("01",))["Balance"] == 1.0
        assert db.find("accounts", ("02",)) is None

    def test_nested_savepoint_rollback(self):
        db = fresh_db()
        with db.transaction():
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.insert("accounts", {"AccountID": "02", "CertificateName": "cn"})
                    raise RuntimeError("inner abort")
            db.insert("accounts", {"AccountID": "03", "CertificateName": "cn"})
        assert db.find("accounts", ("01",)) is not None
        assert db.find("accounts", ("02",)) is None
        assert db.find("accounts", ("03",)) is not None

    def test_outer_rollback_undoes_committed_inner(self):
        db = fresh_db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
                raise RuntimeError("outer abort")
        assert db.find("accounts", ("01",)) is None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rollback_restores_exact_state(self, ops):
        db = fresh_db()
        for i in range(3):
            db.insert("accounts", {"AccountID": f"{i:02d}", "CertificateName": f"cn-{i}"})
        before = {tuple(sorted(r.items())) for r in db.select("accounts")}
        with pytest.raises(ZeroDivisionError):
            with db.transaction():
                for op, idx, value in ops:
                    pk = (f"{idx:02d}",)
                    try:
                        if op == "insert":
                            db.insert(
                                "accounts",
                                {"AccountID": pk[0], "CertificateName": "new", "Balance": value},
                            )
                        elif op == "update":
                            db.update("accounts", pk, {"Balance": value})
                        else:
                            db.delete("accounts", pk)
                    except (IntegrityError, NotFoundError):
                        pass
                raise ZeroDivisionError
        after = {tuple(sorted(r.items())) for r in db.select("accounts")}
        assert before == after


def usage_schema() -> TableSchema:
    # the usage meter's shape: composite pk, float order column with ties
    return TableSchema(
        "usage",
        [
            Column.make("Principal", VarChar(20)),
            Column.make("PeriodStart", Float()),
        ],
        primary_key=["Principal", "PeriodStart"],
        indexes=["PeriodStart"],
    )


class TestEvictOldest:
    def _db(self, starts):
        db = Database()
        db.create_table(usage_schema())
        for principal, start in starts:
            db.insert("usage", {"Principal": principal, "PeriodStart": start})
        return db

    def _left(self, db):
        return sorted((r["Principal"], r["PeriodStart"]) for r in db.select("usage"))

    def test_victims_come_out_ascending(self):
        starts = [(f"p{i}", float(v)) for i, v in enumerate([7, 3, 9, 1, 5, 8, 2])]
        db = self._db(starts)
        victims = [("p3", 1.0), ("p6", 2.0), ("p1", 3.0)]
        assert db.table("usage").oldest("PeriodStart", 3) == victims
        assert db.evict_oldest("usage", "PeriodStart", 3) == 3
        assert sorted(start for _, start in self._left(db)) == [5.0, 7.0, 8.0, 9.0]
        assert [r["PeriodStart"] for r in db.oldest("usage", "PeriodStart", 2)] == [5.0, 7.0]

    def test_float_column_with_ties(self):
        db = self._db([("b", 0.5), ("a", 0.5), ("c", 0.25), ("d", 1.75)])
        assert db.evict_oldest("usage", "PeriodStart", 2) == 2
        assert self._left(db) == [("b", 0.5), ("d", 1.75)]
        assert db.evict_oldest("usage", "PeriodStart", 10) == 2
        assert self._left(db) == []

    def test_rolled_back_eviction_restores_the_next_victims(self):
        db = self._db([(f"p{i}", float(i)) for i in range(6)])
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.evict_oldest("usage", "PeriodStart", 2)
                assert len(db.table("usage")) == 4
                raise RuntimeError("abort")
        assert len(db.table("usage")) == 6
        db.evict_oldest("usage", "PeriodStart", 2)
        assert self._left(db) == [(f"p{i}", float(i)) for i in range(2, 6)]

    def test_unindexed_column_refused(self):
        db = fresh_db()
        with pytest.raises(DatabaseError):
            db.evict_oldest("accounts", "Balance", 1)


class TestPersistence:
    def _make(self, path):
        db = Database(path=path)
        db.create_table(account_schema())
        return db

    def test_recover_requires_path(self):
        with pytest.raises(DatabaseError):
            Database().recover()

    def test_write_requires_recover(self, tmp_path):
        db = self._make(tmp_path)
        with pytest.raises(DatabaseError):
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})

    def test_wal_replay(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        with db.transaction():
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn", "Balance": 7.0})
            db.insert("accounts", {"AccountID": "02", "CertificateName": "cn"})
        db.update("accounts", ("02",), {"Balance": 3.0})
        db.delete("accounts", ("01",))
        db.close()

        db2 = self._make(tmp_path)
        assert db2.recover() == 3
        assert db2.find("accounts", ("01",)) is None
        assert db2.get("accounts", ("02",))["Balance"] == 3.0

    def test_checkpoint_then_recover(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn", "Balance": 1.0})
        db.checkpoint()
        db.update("accounts", ("01",), {"Balance": 2.0})
        db.close()

        db2 = self._make(tmp_path)
        replayed = db2.recover()
        assert replayed == 1  # only the post-checkpoint update
        assert db2.get("accounts", ("01",))["Balance"] == 2.0

    def test_torn_journal_tail_skipped(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        db.close()
        wal = tmp_path / "wal.gbdb"
        wal.write_bytes(wal.read_bytes() + b'{"ops":[{"op":"insert","ta')  # torn write

        db2 = self._make(tmp_path)
        assert db2.recover() == 1
        assert db2.find("accounts", ("01",)) is not None

    def test_rolled_back_txn_not_journaled(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
                raise RuntimeError
        db.close()
        db2 = self._make(tmp_path)
        db2.recover()
        assert db2.find("accounts", ("01",)) is None

    def test_checkpoint_inside_txn_rejected(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        with pytest.raises(TransactionError):
            with db.transaction():
                db.checkpoint()

    def test_context_manager_closes(self, tmp_path):
        with self._make(tmp_path) as db:
            db.recover()
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        db2 = self._make(tmp_path)
        db2.recover()
        assert db2.find("accounts", ("01",)) is not None
