"""Row storage and secondary indexes for the relational substrate."""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Callable, Iterable, Iterator

from repro.core.deltas import DeltaJournal, INSERT
from repro.errors import SchemaError
from repro.locks import RWLock
from repro.relational.schema import TableSchema


class Index:
    """A hash index from one column's values to row positions (each list
    only grows, in row order)."""

    def __init__(self, column: str):
        self.column = column
        self._entries: dict[object, list[int]] = defaultdict(list)

    def add(self, value: object, row_id: int) -> None:
        """Record that ``value`` appears at ``row_id``."""
        self._entries[value].append(row_id)

    def lookup(self, value: object) -> list[int]:
        """Return the row positions holding ``value``."""
        return list(self._entries.get(value, ()))

    def distinct_count(self) -> int:
        """Number of distinct indexed values (used by selectivity estimates)."""
        return len(self._entries)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._entries.values())


class Rows:
    """The read side of a table, shared by a :class:`Table` and its
    snapshots: ``schema``, the stored rows (the first ``len(self)`` of
    ``_live_rows``, read in place) and their ``_indexes``."""

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def scan(self, predicate: Callable[[dict[str, object]], bool] | None = None) -> Iterator[dict[str, object]]:
        """Yield rows as dictionaries, optionally filtered by ``predicate``."""
        names = self.schema.column_names()
        for row in self:
            record = dict(zip(names, row))
            if predicate is None or predicate(record):
                yield record

    def lookup(self, column: str, value: object) -> list[dict[str, object]]:
        """Return the rows where ``column == value``, via index when available."""
        names, rows, count = self.schema.column_names(), self._live_rows, len(self)
        key = column.lower()
        if key in self._indexes:
            return [dict(zip(names, rows[row_id]))
                    for row_id in self._indexes[key].lookup(value) if row_id < count]
        position = self.schema.column_index(column)
        return [dict(zip(names, row)) for row in self if row[position] == value]

    def has_index(self, column: str) -> bool:
        """True when a hash index exists on ``column``."""
        return column.lower() in self._indexes

    def distinct_values(self, column: str) -> set[object]:
        """Return the distinct non-NULL values of ``column``."""
        position = self.schema.column_index(column)
        return {row[position] for row in self if row[position] is not None}

    def column_values(self, column: str) -> list[object]:
        """Return every value (including duplicates) of ``column``."""
        position = self.schema.column_index(column)
        return [row[position] for row in self]

    def statistics(self) -> dict[str, object]:
        """Basic per-table statistics used by the mediator's planner."""
        return {
            "rows": len(self),
            "columns": len(self.schema.columns),
            "distinct": {
                c.name: len(self.distinct_values(c.name)) for c in self.schema.columns
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table({self.name!r}, rows={len(self)})"


class Table(Rows):
    """An in-memory table: a schema plus a list of tuples.

    Rows are stored as tuples in insertion order; hash indexes can be added
    on any column (the primary key is indexed automatically).
    """

    def __init__(self, schema: TableSchema, lock: RWLock | None = None,
                 journal: DeltaJournal | None = None,
                 version_of: Callable[[], int] | None = None):
        self.schema = schema
        self.rows: list[tuple] = []
        self._indexes: dict[str, Index] = {}
        self._version = 0
        # A table created inside a Database records into the database's
        # journal under the *database* version scale (its version is the
        # catalog version plus every table's counter), scoped by table
        # name; a standalone table journals under its own counter.
        self._journal = journal if journal is not None else DeltaJournal()
        self._version_of = version_of if version_of is not None \
            else (lambda: self._version)
        # A table created inside a Database shares the database's lock,
        # so a database snapshot is one consistent cut across its tables.
        self._rwlock = lock or RWLock()
        if schema.primary_key:
            self.create_index(schema.primary_key)

    @property
    def version(self) -> int:
        """Monotonic mutation counter (used for cache invalidation)."""
        return self._version

    @property
    def _live_rows(self) -> list[tuple]:
        return self.rows

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, values: dict[str, object] | list[object] | tuple) -> tuple:
        """Insert a row (dict or positional); return the stored tuple."""
        with self._rwlock.write_locked():
            self.insert_many((values,))
            return self.rows[-1]

    def _insert_unlocked(self, row: tuple) -> tuple:
        if self.schema.primary_key:
            pk_index = self.schema.column_index(self.schema.primary_key)
            pk_value = row[pk_index]
            if pk_value is None:
                raise SchemaError(
                    f"primary key {self.schema.primary_key!r} of {self.name!r} cannot be NULL"
                )
            if self._indexes[self.schema.primary_key.lower()].lookup(pk_value):
                raise SchemaError(
                    f"duplicate primary key {pk_value!r} in table {self.name!r}"
                )
        row_id = len(self.rows)
        self.rows.append(row)
        for column, index in self._indexes.items():
            index.add(row[self.schema.column_index(column)], row_id)
        return row

    def insert_many(self, rows: Iterable[dict[str, object] | list[object] | tuple]) -> int:
        """Insert every row of ``rows``; return how many were inserted.

        The write lock is held across the whole batch, so a concurrent
        snapshot sees all of it or none of it — and the whole batch is
        ONE version bump, so one ingest invalidates derived state once,
        not once per row.
        """
        names = self.schema.column_names()
        entry = None
        with self._rwlock.write_locked():
            pre = self._version_of()
            inserted: list[dict[str, object]] = []
            try:
                for values in rows:
                    row = self.schema.coerce_row(values)
                    stored = self._insert_unlocked(row)
                    inserted.append(dict(zip(names, stored)))
            finally:
                # Even a partially applied batch (a constraint error
                # mid-way) must advance the version: rows landed, so
                # version equality has to keep meaning "unchanged".
                if inserted:
                    self._version += 1
                    entry = self._journal.record(pre, INSERT, inserted,
                                                 scope=self.name.lower())
        if entry is not None:
            self._journal.notify(entry)
        return len(inserted)

    def create_index(self, column: str) -> Index:
        """Create (or return the existing) hash index on ``column``."""
        key = column.lower()
        with self._rwlock.write_locked():
            if key in self._indexes:
                return self._indexes[key]
            if not self.schema.has_column(column):
                raise SchemaError(f"cannot index unknown column {column!r} of {self.name!r}")
            index = Index(column)
            position = self.schema.column_index(column)
            for row_id, row in enumerate(self.rows):
                index.add(row[position], row_id)
            self._indexes[key] = index
            return index


class TableSnapshot(Rows):
    """A table read up to its row count at the cut (rows and index
    positions only grow); it never writes."""

    def __init__(self, live: Table):
        self.schema, self._indexes = live.schema, live._indexes
        self._live_rows, self._count = live.rows, len(live.rows)

    @property
    def rows(self) -> list[tuple]:
        return self._live_rows[:self._count]

    def __iter__(self) -> Iterator[tuple]:
        return itertools.islice(self._live_rows, self._count)

    def __len__(self) -> int:
        return self._count
