"""The relational database: a catalog of tables plus a SQL entry point.

A :class:`Database` plays the role of the INSEE or Ministry-of-Interior
sources of the paper: a self-contained system with its own query
capability (the SQL subset) that the mediator ships sub-queries to.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable

from repro.core.deltas import RESET, DeltaJournal, Journalled, Logged
from repro.errors import RelationalError, SchemaError
from repro.locks import RWLock
from repro.relational.ast import CreateTableStatement, InsertStatement, SelectStatement
from repro.relational.executor import ResultSet, SelectExecutor
from repro.relational.parser import parse_sql
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.table import Table, TableSnapshot
from repro.relational.types import DataType, infer_type, parse_type


class Tables:
    """The read side of a database, shared by a :class:`Database` and its
    snapshots: the table map ``_tables`` and SELECT over it."""

    _tables: dict[str, Table]

    def table(self, name: str) -> Table:
        """Return a table by (case-insensitive) name."""
        table = self._tables.get(name.lower())
        if table is None:
            raise RelationalError(f"database {self.name!r} has no table {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        """True when a table with ``name`` exists."""
        return name.lower() in self._tables

    def tables(self) -> list[Table]:
        """Return every table, in name order."""
        return [self._tables[k] for k in sorted(self._tables)]

    def table_names(self) -> list[str]:
        """Return the declared table names, in name order."""
        return [t.name for t in self.tables()]

    def __len__(self) -> int:
        """Rows over every table: the source's size."""
        return sum(len(t) for t in self._tables.values())

    def execute_select(self, statement: SelectStatement) -> ResultSet:
        """Run an already-parsed SELECT statement."""
        return SelectExecutor(self._tables).execute(statement)

    def statistics(self) -> dict[str, dict[str, object]]:
        """Per-table statistics, used by digests and the planner."""
        return {t.name: t.statistics() for t in self.tables()}


class Database(Journalled, Tables):
    """A named collection of tables accepting SQL statements."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, Table] = {}
        self._catalog_version = 0
        #: One typed mutation log for the whole database: table inserts
        #: record into it (scoped by table name) under the *database*
        #: version scale, catalog changes as non-repairable resets.
        self._journal = DeltaJournal()
        # One lock for the catalog and every table, so a snapshot is a
        # consistent cut of the whole database.
        self._rwlock = RWLock()

    @property
    def version(self) -> int:
        """Monotonic mutation counter over the catalog and every table."""
        return self._catalog_version + sum(t.version for t in self._tables.values())

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        """Register a new table from a schema object."""
        key = schema.name.lower()
        with self._rwlock.write_locked():
            if key in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists in {self.name!r}")
            pre = self.version
            table = Table(schema, lock=self._rwlock, journal=self._journal,
                          version_of=lambda: self.version)
            self._tables[key] = table
            self._catalog_version += 1
            self._journal.record(pre, RESET, scope=key)
            return table

    def create_table_from_rows(self, name: str, rows: Iterable[dict[str, object]],
                               primary_key: str | None = None,
                               foreign_keys: list[ForeignKey] | None = None) -> Table:
        """Create a table whose schema is inferred from dictionaries."""
        rows = list(rows)
        if not rows:
            raise SchemaError(f"cannot infer a schema for {name!r} from zero rows")
        column_types: dict[str, DataType] = {}
        for row in rows:
            for column, value in row.items():
                if value is None:
                    column_types.setdefault(column, DataType.TEXT)
                    continue
                inferred = infer_type(value)
                previous = column_types.get(column)
                if previous is None or previous is DataType.TEXT:
                    column_types[column] = inferred
                elif previous is DataType.INTEGER and inferred is DataType.FLOAT:
                    column_types[column] = DataType.FLOAT
        columns = [Column(name=c, data_type=t) for c, t in column_types.items()]
        schema = TableSchema(name=name, columns=columns, primary_key=primary_key,
                             foreign_keys=foreign_keys or [])
        with self._rwlock.write_locked():
            # Creation + load as one write section: a concurrent snapshot
            # sees either no table or the fully loaded one.
            table = self.create_table(schema)
            table.insert_many(rows)
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        with self._rwlock.write_locked():
            if name.lower() not in self._tables:
                raise RelationalError(f"database {self.name!r} has no table {name!r}")
            # Absorb the dropped table's mutation count so the database
            # version stays monotonic (it must never revisit an old value).
            pre = self.version
            self._catalog_version += 1 + self._tables[name.lower()].version
            del self._tables[name.lower()]
            self._journal.record(pre, RESET, scope=name.lower())

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> ResultSet:
        """Parse and run one SQL statement.

        SELECT returns a populated :class:`ResultSet`; CREATE TABLE and
        INSERT return an empty result with a ``rowcount``-style single
        column describing the effect.
        """
        statement = parse_sql(sql)
        if isinstance(statement, SelectStatement):
            with self.reading() as database:
                return database.execute_select(statement)
        if isinstance(statement, CreateTableStatement):
            self._execute_create(statement)
            return ResultSet(columns=["status"], rows=[("created",)])
        if isinstance(statement, InsertStatement):
            count = self._execute_insert(statement)
            return ResultSet(columns=["inserted"], rows=[(count,)])
        raise RelationalError(f"unsupported statement type: {type(statement).__name__}")

    def query(self, sql: str) -> list[dict[str, object]]:
        """Run a SELECT and return rows as dictionaries (convenience)."""
        return self.execute(sql).to_dicts()

    # ------------------------------------------------------------------
    def _execute_create(self, statement: CreateTableStatement) -> None:
        columns = []
        primary_key = None
        for name, type_name, not_null, primary in statement.columns:
            columns.append(Column(name=name, data_type=parse_type(type_name),
                                  nullable=not (not_null or primary)))
            if primary:
                primary_key = name
        foreign_keys = [ForeignKey(column=c, referenced_table=t, referenced_column=rc)
                        for c, t, rc in statement.foreign_keys]
        schema = TableSchema(name=statement.name, columns=columns,
                             primary_key=primary_key, foreign_keys=foreign_keys)
        self.create_table(schema)

    def _execute_insert(self, statement: InsertStatement) -> int:
        table = self.table(statement.table)
        if statement.columns:
            rows: list = [dict(zip(statement.columns, row))
                          for row in statement.rows]
        else:
            rows = list(statement.rows)
        # One statement = one batch = one version bump (insert_many).
        return table.insert_many(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Database(name={self.name!r}, tables={self.table_names()})"


class DatabaseSnapshot(Logged, Tables):
    """What :meth:`Database.snapshot` returns: the table map of the cut,
    each table a :class:`TableSnapshot` read up to its row count (a
    watermark over rows that are only ever appended), so its
    :meth:`reading` yields itself and takes no lock.  It never writes."""

    def __init__(self, live: Database):
        self.name, self._journal, self.version = live.name, live._journal, live.version
        self._tables = {key: TableSnapshot(table) for key, table in live._tables.items()}

    def snapshot(self) -> "DatabaseSnapshot":
        return self

    def reading(self):
        return nullcontext(self)


Database._snapshot_type = DatabaseSnapshot
