"""Relational schemas: columns, primary keys and foreign keys.

Foreign keys matter beyond integrity checking: the relational wrapper turns
each key/foreign-key constraint into an edge of the source's digest graph
(paper §2.2), which is what the keyword search walks to find join paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.relational.types import DataType, coerce


@dataclass(frozen=True)
class Column:
    """A column definition."""

    name: str
    data_type: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint ``column -> referenced_table.referenced_column``."""

    column: str
    referenced_table: str
    referenced_column: str


@dataclass
class TableSchema:
    """The schema of one table."""

    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: str | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        names = [c.name.lower() for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and not self.has_column(self.primary_key):
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for fk in self.foreign_keys:
            if not self.has_column(fk.column):
                raise SchemaError(
                    f"foreign key column {fk.column!r} is not a column of {self.name!r}"
                )

    # ------------------------------------------------------------------
    def column_names(self) -> list[str]:
        """Return the column names in declaration order."""
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        """Case-insensitive column existence test."""
        return any(c.name.lower() == name.lower() for c in self.columns)

    def column(self, name: str) -> Column:
        """Return the column definition for ``name`` (case-insensitive)."""
        for c in self.columns:
            if c.name.lower() == name.lower():
                return c
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def column_index(self, name: str) -> int:
        """Return the positional index of column ``name``."""
        for index, c in enumerate(self.columns):
            if c.name.lower() == name.lower():
                return index
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def coerce_row(self, values: dict[str, object] | list[object] | tuple) -> tuple:
        """Validate and coerce an input row into a storage tuple.

        Dict inputs may omit nullable columns; positional inputs must cover
        every column.
        """
        if isinstance(values, dict):
            lowered = {k.lower(): v for k, v in values.items()}
            unknown = set(lowered) - {c.name.lower() for c in self.columns}
            if unknown:
                raise SchemaError(
                    f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
                )
            raw = [lowered.get(c.name.lower()) for c in self.columns]
        else:
            raw = list(values)
            if len(raw) != len(self.columns):
                raise SchemaError(
                    f"table {self.name!r} expects {len(self.columns)} values, got {len(raw)}"
                )
        row = []
        for column, value in zip(self.columns, raw):
            coerced = coerce(value, column.data_type)
            if coerced is None and not column.nullable:
                raise SchemaError(
                    f"column {column.name!r} of table {self.name!r} is NOT NULL"
                )
            row.append(coerced)
        return tuple(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        cols = ", ".join(f"{c.name} {c.data_type}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"
