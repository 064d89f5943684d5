"""Unit tests for row storage, primary keys and secondary indexes."""

import tracemalloc

import pytest

from repro.errors import SchemaError
from repro.relational import Column, Database, DataType, Table, TableSchema


@pytest.fixture
def table():
    schema = TableSchema(
        name="departments",
        columns=[Column("code", DataType.TEXT, nullable=False),
                 Column("name", DataType.TEXT),
                 Column("population", DataType.INTEGER)],
        primary_key="code",
    )
    t = Table(schema)
    t.insert({"code": "75", "name": "Paris", "population": 2_165_423})
    t.insert({"code": "33", "name": "Gironde", "population": 1_601_845})
    t.insert({"code": "29", "name": "Finistere", "population": 915_090})
    return t


class TestInsertion:
    def test_insert_returns_coerced_tuple(self, table):
        row = table.insert({"code": "59", "name": "Nord", "population": "2604000"})
        assert row == ("59", "Nord", 2_604_000)
        assert len(table) == 4

    def test_duplicate_primary_key_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert({"code": "75", "name": "Paris bis", "population": 1})

    def test_null_primary_key_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert({"name": "Nowhere", "population": 0})

    def test_insert_many(self, table):
        inserted = table.insert_many([
            {"code": "01", "name": "Ain", "population": 650_000},
            {"code": "06", "name": "Alpes-Maritimes", "population": 1_080_000},
        ])
        assert inserted == 2


class TestAccess:
    def test_scan_returns_dicts(self, table):
        rows = list(table.scan())
        assert len(rows) == 3
        assert rows[0]["code"] == "75"

    def test_scan_with_predicate(self, table):
        rows = list(table.scan(lambda r: r["population"] > 1_000_000))
        assert {r["code"] for r in rows} == {"75", "33"}

    def test_lookup_uses_primary_key_index(self, table):
        assert table.has_index("code")
        assert table.lookup("code", "33")[0]["name"] == "Gironde"

    def test_lookup_without_index_scans(self, table):
        assert not table.has_index("name")
        assert table.lookup("name", "Paris")[0]["code"] == "75"

    def test_lookup_missing_value_returns_empty(self, table):
        assert table.lookup("code", "99") == []

    def test_create_index_backfills_existing_rows(self, table):
        index = table.create_index("name")
        assert len(index) == 3
        assert table.lookup("name", "Finistere")[0]["code"] == "29"

    def test_create_index_on_unknown_column_raises(self, table):
        with pytest.raises(SchemaError):
            table.create_index("region")

    def test_distinct_and_column_values(self, table):
        assert table.distinct_values("code") == {"75", "33", "29"}
        assert len(table.column_values("population")) == 3

    def test_statistics(self, table):
        stats = table.statistics()
        assert stats["rows"] == 3
        assert stats["distinct"]["code"] == 3

    def test_index_distinct_count(self, table):
        index = table.create_index("population")
        assert index.distinct_count() == 3


class TestSnapshot:
    @pytest.fixture
    def database(self):
        database = Database("d")
        database.create_table_from_rows("t", [{"code": str(i), "n": i % 7} for i in range(50_000)])
        database.table("t").create_index("code")
        return database

    def test_a_lookup_reads_the_rows_in_place(self, database):
        """A snapshot's row list is the live one, read up to its count:
        an indexed lookup copied the whole table first (about 400 KB)."""
        frozen = database.snapshot().table("t")
        tracemalloc.start()
        try:
            assert frozen.lookup("code", "49999") == [{"code": "49999", "n": 49999 % 7}]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000

    def test_a_snapshot_stops_at_its_cut(self, database):
        frozen = database.snapshot().table("t")
        database.table("t").insert_many([{"code": "new", "n": 0}, {"code": "49999", "n": 1}])
        assert len(frozen) == 50_000 and frozen.lookup("code", "new") == []
        assert frozen.lookup("code", "49999") == [{"code": "49999", "n": 49999 % 7}]
        assert frozen.lookup("n", 1) == [row for row in frozen.scan() if row["n"] == 1]
        assert len(frozen.column_values("code")) == 50_000
        assert "new" not in frozen.distinct_values("code")
        assert len(database.table("t").lookup("code", "49999")) == 2
